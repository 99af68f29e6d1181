//! The tunability preprocessor as a command-line tool.
//!
//! The paper's preprocessor converts annotated source into "an executable
//! form of the application ... as well as steering and monitoring agents"
//! plus "performance database templates". This binary does the
//! language-level part for any annotation file:
//!
//! ```text
//! cargo run -p adapt-core --bin tunable-preprocessor -- spec.tun out_dir/
//! ```
//!
//! Outputs in `out_dir/`:
//! - `spec.normal.tun` — the normalized annotation source (render of the
//!   parse; stable formatting for diffing, and the form applications
//!   embedding the framework read back with `dsl::parse`);
//! - `db_template.json` — the performance-database template: resource
//!   axes to sample, configurations to profile, metrics to record;
//! - `configurations.txt` — one configuration key per line (the driver
//!   loop's work list).

use std::path::PathBuf;
use std::process::ExitCode;

use adapt_core::dsl;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(input), Some(outdir)) = (args.next(), args.next()) else {
        eprintln!("usage: tunable-preprocessor <spec.tun> <out_dir>");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match dsl::parse(&src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{input}:{e}");
            return ExitCode::FAILURE;
        }
    };
    let out = PathBuf::from(&outdir);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("error: cannot create {outdir}: {e}");
        return ExitCode::FAILURE;
    }
    let template = spec.perf_db_template();
    let writes: [(&str, String); 3] = [
        ("spec.normal.tun", dsl::render(&spec)),
        ("db_template.json", template.to_json()),
        (
            "configurations.txt",
            template.configurations.iter().map(|c| c.key()).collect::<Vec<_>>().join("\n"),
        ),
    ];
    for (name, contents) in writes {
        let path = out.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "preprocessed {}: {} parameters, {} configurations, {} resource axes, {} metrics -> {}",
        input,
        spec.control.params.len(),
        template.configurations.len(),
        template.axes.len(),
        template.metrics.len(),
        out.display()
    );
    ExitCode::SUCCESS
}
