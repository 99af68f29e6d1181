//! # adapt-bench — the evaluation harness
//!
//! Regenerates every figure of the paper's evaluation (Figures 3-7) from
//! the reimplemented system. Each `figs::*` function returns plain data
//! (so its unit tests can assert the figure's shape); the `figures`
//! binary prints the series the paper plots.
//!
//! The crate's tests hold the workload-level contracts:
//! `tests/digest_contract.rs` pins the load sweep, the arbiter sweep and
//! saturation storm, the socket twin, the session-collapse workload and
//! the explorer digests through the option builders in [`load`],
//! [`arbiter`] and [`socket`]; `tests/overhead_floors.rs` asserts the
//! wall-clock floors of the hot paths; `tests/ablations.rs` shows what
//! breaks when a design mechanism is switched off. Performance numbers
//! come from `benchmark/` (`BENCHMARK.json`) alone.
//!
//! | Paper figure | Function |
//! |---|---|
//! | 3(a) testbed CPU control trace | `figs::fig3::fig3a` |
//! | 3(b) testbed vs expected time, 10-100% share | `figs::fig3::fig3b` |
//! | 4(a) simple app: testbed vs physical machines | `figs::fig4::fig4a` |
//! | 4(b) active viz: testbed vs physical machines | `figs::fig4::fig4b` |
//! | 5(a,b) transmit/response vs CPU share per fovea size | `figs::profiles::fig5` |
//! | 6(a) transmit vs bandwidth per compression | `figs::profiles::fig6a` |
//! | 6(b) transmit vs CPU share per resolution | `figs::profiles::fig6b` |
//! | 7(a) Experiment 1: adapt compression | `figs::adaptation::fig7a` |
//! | 7(b) Experiment 2: adapt resolution | `figs::adaptation::fig7b` |
//! | 7(c,d) Experiment 3: adapt fovea size | `figs::adaptation::fig7cd` |

pub mod arbiter;
pub mod figs;
pub mod load;
pub mod socket;
pub mod toy;

/// Print a simple aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let hdr: Vec<String> =
        headers.iter().enumerate().map(|(i, h)| format!("{:>w$}", h, w = widths[i])).collect();
    println!("{}", hdr.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Format seconds with 3 decimals.
pub fn secs(v: f64) -> String {
    format!("{v:.3}")
}
