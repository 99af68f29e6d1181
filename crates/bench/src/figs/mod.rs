//! Figure-regeneration functions, one module per paper figure group.

pub mod adaptation;
pub mod extensions;
pub mod fig3;
pub mod fig4;
pub mod profiles;

use visapp::Scenario;

/// The scenario used for all application figures: 512x512 synthetic
/// images, 4-level pyramids, 100 Mbps physical link. Bandwidth and CPU
/// settings in individual figures are scaled from the paper's 500/50 KBps
/// and 90/40% so the *ratios* match (see EXPERIMENTS.md for the mapping).
pub fn figure_scenario() -> Scenario {
    Scenario { n_images: 10, img_size: 512, levels: 4, seed: 2000, ..Scenario::default() }
}

/// The scenario of the run-time adaptation experiments (Figure 7 and the
/// contention extension): the figure scenario with 15 images.
pub fn experiment_scenario() -> Scenario {
    Scenario { n_images: 15, ..figure_scenario() }
}

/// A smaller scenario for quick shape checks in tests.
pub fn test_scenario() -> Scenario {
    Scenario { n_images: 3, img_size: 128, levels: 3, seed: 2000, ..Scenario::default() }
}
