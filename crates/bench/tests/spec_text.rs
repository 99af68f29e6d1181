//! Every scenario's tunability spec is the paper's Figure 2 text with the
//! scenario's domains: for every scenario geometry the tree runs,
//! `viz_spec` equals `dsl::ACTIVE_VIZ_SPEC` parsed, except that `dR` is
//! the scenario's set and `l` its level range, and it renders to
//! annotation text that parses back to the very same spec.

use adapt_bench::figs;
use adapt_core::{dsl, ParamDomain, TunableSpec};
use arbiter::StormOpts;
use compress::Method;
use visapp::{viz_spec, LoadGenOpts, Scenario};

/// A scenario of the given image geometry, the only inputs of `viz_spec`.
fn geometry(img_size: usize, levels: usize) -> Scenario {
    Scenario { img_size, levels, ..Scenario::default() }
}

fn scenarios() -> [(&'static str, Scenario); 9] {
    [
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
        // The geometry Figure 2's own domains describe.
        ("figure 2", geometry(640, 4)),
    ]
}

/// The Figure 2 spec with `dR` and `l` set to the scenario's domains.
fn figure_2_with_domains(sc: &Scenario) -> TunableSpec {
    let mut spec = dsl::parse(dsl::ACTIVE_VIZ_SPEC).expect("Figure 2 parses");
    let (min, max) = sc.level_values();
    for p in &mut spec.control.params {
        match p.name.as_str() {
            "dR" => p.domain = ParamDomain::Set(sc.dr_values()),
            "l" => p.domain = ParamDomain::Range { min, max, step: 1 },
            _ => {}
        }
    }
    spec
}

#[test]
fn every_scenario_spec_is_figure_2_with_its_domains() {
    for (name, sc) in &scenarios() {
        let spec = viz_spec(sc);
        assert_eq!(spec, figure_2_with_domains(sc), "{name}: not Figure 2 with its domains");
        let c = spec.control.param("c").expect("c is declared");
        let codes =
            vec![("lzw".to_string(), Method::Lzw.code()), ("bzip".into(), Method::Bzip.code())];
        assert_eq!(c.domain, ParamDomain::Enum(codes), "{name}: c's codes are the codec's");
    }
}

#[test]
fn figure_2_geometry_runs_figure_2_exactly() {
    let spec = dsl::parse(dsl::ACTIVE_VIZ_SPEC).expect("Figure 2 parses");
    assert_eq!(viz_spec(&geometry(640, 4)), spec);
}

#[test]
fn every_scenario_spec_survives_the_annotation_language() {
    for (name, sc) in &scenarios() {
        let spec = viz_spec(sc);
        let text = dsl::render(&spec);
        let parsed = dsl::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: rendered spec does not parse: {e}\n{text}"));
        assert_eq!(parsed, spec, "{name}: the spec changed through its text\n{text}");
    }
}
