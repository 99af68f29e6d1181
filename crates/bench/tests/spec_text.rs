//! The programmatic tunability spec and the paper's annotation language
//! agree: for every scenario geometry the tree runs, `viz_spec` renders
//! to Figure-2 text that parses back to the very same spec. This pins the
//! equality a spec built from the annotation text must keep.

use adapt_bench::figs;
use adapt_core::dsl;
use arbiter::StormOpts;
use visapp::{viz_spec, LoadGenOpts, Scenario};

/// A scenario of the given image geometry, the only inputs of `viz_spec`.
fn geometry(img_size: usize, levels: usize) -> Scenario {
    Scenario { img_size, levels, ..Scenario::default() }
}

#[test]
fn every_scenario_spec_survives_the_annotation_language() {
    let scenarios = [
        ("default", Scenario::default()),
        ("figures", figs::figure_scenario()),
        ("figure tests", figs::test_scenario()),
        ("load", LoadGenOpts::default().scenario()),
        ("storm", StormOpts::default().load_opts().scenario()),
        // `TrialContext::new`'s base scenario, the socket twin, and the
        // small scenarios of the figure and visapp tests.
        ("dst, socket, small figures", geometry(64, 3)),
        // The benchmark's `session_collapse` and `profile_build`.
        ("benchmark 256 px", geometry(256, 4)),
        ("benchmark 512 px", geometry(512, 4)),
    ];
    for (name, sc) in &scenarios {
        let spec = viz_spec(sc);
        let text = dsl::render(&spec);
        let parsed = dsl::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: rendered spec does not parse: {e}\n{text}"));
        assert_eq!(parsed, spec, "{name}: the spec changed through its text\n{text}");
    }
}
