//! Integration test for the preprocessor binary.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tunable-preprocessor")
}

#[test]
fn preprocesses_the_paper_spec() {
    let dir = std::env::temp_dir().join("tunpre_test_ok");
    let _ = std::fs::remove_dir_all(&dir);
    let input = dir.join("viz.tun");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&input, adapt_core::dsl::ACTIVE_VIZ_SPEC).unwrap();
    let out = Command::new(bin()).arg(&input).arg(dir.join("out")).output().expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // All three artifacts exist and are consistent.
    let normal = std::fs::read_to_string(dir.join("out/spec.normal.tun")).unwrap();
    let spec = adapt_core::dsl::parse(adapt_core::dsl::ACTIVE_VIZ_SPEC).unwrap();
    assert_eq!(adapt_core::dsl::parse(&normal).unwrap(), spec);
    assert!(!dir.join("out/spec.json").exists(), "the spec's one text form is the .tun source");
    let configs = std::fs::read_to_string(dir.join("out/configurations.txt")).unwrap();
    assert_eq!(configs.lines().count(), 12);
    let template = std::fs::read_to_string(dir.join("out/db_template.json")).unwrap();
    let template = obs::json::parse(&template).expect("db_template.json is JSON");
    let list = |key: &str| -> Vec<&str> {
        let items = template.get(key).and_then(|v| v.as_arr()).expect(key);
        items.iter().map(|v| v.as_str().expect(key)).collect()
    };
    let axes: Vec<_> = list("axes").into_iter().map(adapt_core::ResourceKey::parse).collect();
    assert_eq!(axes.len(), 2);
    assert!(axes.iter().all(Option::is_some), "axes read back through ResourceKey::parse");
    assert_eq!(list("configurations"), configs.lines().collect::<Vec<_>>());
    assert_eq!(list("metrics").len(), spec.metrics.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reports_parse_errors_with_location() {
    let dir = std::env::temp_dir().join("tunpre_test_err");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("bad.tun");
    std::fs::write(&input, "control_parameters {\n  int x in ??; }\n").unwrap();
    let out = Command::new(bin()).arg(&input).arg(dir.join("out")).output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
