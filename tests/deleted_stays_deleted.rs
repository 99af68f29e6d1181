//! Deleted stays deleted: each mechanism a change removed is held out of
//! the tree by one row of [`GUARDS`], and a library item is `pub` only if
//! another crate uses it. A change that deletes a mechanism adds one row
//! naming what it deleted; bare `cargo test -q` runs the table.
//!
//! A token is a literal. A leading or trailing `\b` asks for a word
//! boundary on that side, as in grep: no `[A-Za-z0-9_]` character next to
//! the match, so `enum Workload\b` passes `enum WorkloadKind` and
//! `\bunsafe\b` passes `#![forbid(unsafe_code)]`. A root is a file or a
//! directory searched recursively, relative to the repository root; a `*`
//! component stands for every entry of its directory. This file names
//! every token, so every search skips it, and nothing else.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// One guard: the names a change deleted, and where they must not return.
struct Guard {
    name: &'static str,
    /// What replaced the deleted names.
    reason: &'static str,
    /// The commit that deleted them (`git show <hash>`).
    deleted_in: &'static str,
    searches: &'static [Search],
    /// A check that is not a token search: one line per violation.
    check: Option<fn(&Path) -> Vec<String>>,
}

/// Every file under `roots` whose name passes `files` must hold none of
/// `tokens`, unless it is one of `allowed`.
struct Search {
    tokens: &'static [&'static str],
    roots: &'static [&'static str],
    /// File-name patterns: `*.rs` matches a suffix, `Cargo.toml` a whole
    /// name. Empty: every file.
    files: &'static [&'static str],
    allowed: &'static [&'static str],
}

const THIS_FILE: &str = "tests/deleted_stays_deleted.rs";
const ALL: &[&str] = &[];
const RS: &[&str] = &["*.rs"];
const SOURCE: &[&str] = &["crates", "src", "tests", "examples"];

static GUARDS: &[Guard] = &[
    Guard {
        name: "no stub serializer",
        reason: "obs::json is the one text codec; the serde stand-ins serialized a placeholder \
                 and could not deserialize",
        deleted_in: "47c263a",
        searches: &[Search {
            tokens: &["serde"],
            roots: &["Cargo.toml", "Cargo.lock", "crates", "src", "tests", "examples", "vendor"],
            files: &["*.rs", "Cargo.toml", "Cargo.lock"],
            allowed: &[],
        }],
        check: None,
    },
    Guard {
        name: "one event queue",
        reason: "kernel/queue.rs owns the pending events: one insert, one representation, one \
                 drain loop; its test-local heap is the only other",
        deleted_in: "c105825, 4dfe2ac",
        searches: &[
            Search {
                tokens: &["fn enqueue_partitioned", "fn drain_batched_"],
                roots: &["crates/simnet/src"],
                files: ALL,
                allowed: &[],
            },
            Search {
                tokens: &["BinaryHeap"],
                roots: &["crates/simnet/src"],
                files: ALL,
                allowed: &["crates/simnet/src/kernel/queue.rs"],
            },
        ],
        check: None,
    },
    Guard {
        name: "no parallel drain",
        reason: "the kernel drains on one thread (DESIGN.md §14 has the measurement)",
        deleted_in: "b7ad993",
        searches: &[Search {
            tokens: &[
                "DrainMode::Sharded",
                "SIMNET_THREADS",
                "fn at_on",
                "fn mark_observer",
                "mod shard",
            ],
            roots: &["crates", "src", "tests", "examples", "scripts", ".github"],
            files: ALL,
            allowed: &[],
        }],
        check: None,
    },
    Guard {
        name: "no shadow benchmark",
        reason: "benchmark/ is the one source of performance numbers and a named test the one \
                 place a deterministic number is pinned",
        deleted_in: "5ef2fdd",
        searches: &[Search {
            tokens: &["bench_gate", "bench_compare", "criterion", "parking_lot", "CI_BENCH"],
            roots: &[
                "Cargo.toml",
                "Cargo.lock",
                "crates",
                "src",
                "tests",
                "examples",
                "scripts",
                "vendor",
                ".github",
            ],
            files: ALL,
            allowed: &[],
        }],
        check: Some(no_shadow_baselines),
    },
    Guard {
        name: "no rand",
        reason: "every seeded draw goes through obs::det::SplitMix64, the one stream the pinned \
                 digests are a function of",
        deleted_in: "869ac91",
        searches: &[Search {
            tokens: &[r"\buse rand\b", r"\brand::"],
            roots: &["crates", "src", "tests", "examples", "vendor"],
            files: RS,
            allowed: &[],
        }],
        check: Some(no_rand_crate),
    },
    Guard {
        name: "no unsafe",
        reason: "library code is safe Rust and every crate root forbids unsafe; the one left is \
                 the counting allocator of the zero-allocation audit",
        deleted_in: "cea3e5f",
        searches: &[Search {
            tokens: &[r"\bunsafe\b"],
            roots: &["crates", "src", "tests", "examples", "vendor"],
            files: RS,
            allowed: &["crates/obs/tests/zero_alloc.rs"],
        }],
        check: Some(crate_roots_forbid_unsafe),
    },
    Guard {
        name: "one kernel record",
        reason: "kernel events are Source::Simnet bus events built by Sim::emit; an actor keeps \
                 its CPU time, memory in use and last inbound timestamp; paging is the sandbox's \
                 model; Ctx::intercept returns a handler's actions",
        deleted_in: "f1557ea, a505f46",
        searches: &[Search {
            tokens: &[
                "TraceEvent",
                "TRANSFER_LOG_CAP",
                "transfers_since",
                "set_mem_limit",
                "set_mem_penalty_k",
                r"Snapshot\b",
                "my_snapshot",
                "snapshot_of",
                "record_sent",
                "drain_usage",
                "pending_usage",
                "compute_wall_us",
                "sleep_wall_us",
                "msgs_sent",
                "mem_peak",
                "push_action",
            ],
            roots: SOURCE,
            files: RS,
            allowed: &[],
        }],
        check: None,
    },
    Guard {
        name: "one link model",
        reason: "DrainMode is Batched | Explore and the kernel keeps one FIFO record per directed \
                 host pair; the reference heap and scan predictor live in test code",
        deleted_in: "4dfe2ac",
        searches: &[Search {
            tokens: &[
                "DrainMode::Heap",
                "LinkMode",
                "FlowSched",
                "FlowNext",
                "set_link_mode",
                "flow_scheds",
                "down_links",
                "DrainDivergence",
                "predict_scan",
            ],
            roots: SOURCE,
            files: RS,
            allowed: &[],
        }],
        check: None,
    },
    Guard {
        name: "one decision path",
        reason: "a decision prices candidates through PerfDb::candidates on metric rows \
                 (DESIGN.md §9); the whole-report decision is a test oracle",
        deleted_in: "48f60e9",
        searches: &[
            Search {
                tokens: &["fn memoized", "Vec<Option<QosReport>>"],
                roots: &["crates/*/src"],
                files: ALL,
                allowed: &[],
            },
            Search {
                tokens: &[".predict("],
                roots: &["crates/core/src/scheduler.rs"],
                files: ALL,
                allowed: &[],
            },
        ],
        check: None,
    },
    Guard {
        name: "one lattice",
        reason: "a slice finds exact matches and blend corners in one sorted table of grid \
                 positions (DESIGN.md §9)",
        deleted_in: "7101902",
        searches: &[Search {
            tokens: &[
                "GridCells",
                "DENSE_CELL_CAP",
                "ADDRESSABLE_CELL_CAP",
                "EMPTY_CELL",
                "is_complete_grid",
                "fn corner_record",
            ],
            roots: SOURCE,
            files: ALL,
            allowed: &[],
        }],
        check: None,
    },
    Guard {
        name: "one arbiter record",
        reason: "the arbiter keeps a record only while an app is live and writes its ledger row \
                 once, when it leaves (DESIGN.md §15); AppActor wraps a Box<dyn Actor>",
        deleted_in: "f7b5b95",
        searches: &[Search {
            tokens: &["fn sync_ledger", "fn mark_terminal", "fn force_reserve", r"enum Workload\b"],
            roots: SOURCE,
            files: ALL,
            allowed: &[],
        }],
        check: None,
    },
    Guard {
        name: "one value, one constant",
        reason: "a run-description setting no caller varied is a named constant next to the \
                 code that reads it, and a scenario loses messages through its fault plan alone",
        deleted_in: "c62801a",
        searches: &[Search {
            tokens: &[
                r"\bArbiterOpts\b",
                r"\bDriftStormOpts\b",
                r"\bwith_arbiter\b",
                r"\blink_loss\b",
                r"\bserver_speed\b",
            ],
            roots: SOURCE,
            files: ALL,
            allowed: &[],
        }],
        check: None,
    },
    Guard {
        name: "one copy of each payload",
        reason: "a reply's bytes are one shared Arc<[u8]> from the store's cache through the \
                 server's reply and its dedup cache to the client (DESIGN.md §17.2); an owned \
                 byte vector per reply copied them twice",
        deleted_in: "7362bb9",
        searches: &[Search {
            tokens: &[r"\bpayload: Vec<u8>"],
            roots: &["crates/visapp/src"],
            files: RS,
            allowed: &[],
        }],
        check: None,
    },
    Guard {
        name: "one kernel event form",
        reason: "every kernel bus event is one static obs::Shape published packed by Sim::emit \
                 and built only when read (DESIGN.md §11.2); a per-event builder closure \
                 allocated a Vec and an Arc for each",
        deleted_in: "733bc21",
        searches: &[Search {
            tokens: &[r"\bEvent::new\b"],
            roots: &["crates/simnet/src"],
            files: RS,
            allowed: &[],
        }],
        check: None,
    },
    Guard {
        name: "one spec path",
        reason: "visapp::viz_spec parses the paper's Figure 2 text (dsl::ACTIVE_VIZ_SPEC) with \
                 the scenario's dR and l domains; a Rust-built twin of that text and the \
                 builders only it called were a second way to make a spec, and steering's \
                 boundary and TaskGraph::validate hold the one copy of each spec rule",
        deleted_in: "5a449ef",
        searches: &[
            Search {
                tokens: &[
                    r"\bControlSpace\b",
                    r"\bControlParam\b",
                    r"\bParamDomain\b",
                    r"\bTaskGraph\b",
                    r"\bTaskSpec\b",
                    r"\bQosMetricDef\b",
                    r"\bTransitionSpec\b",
                    r"\bExecutionEnv\b",
                    r"\bHostSpec\b",
                    r"TunableSpec::default",
                ],
                roots: &["crates/visapp/src"],
                files: RS,
                allowed: &[],
            },
            Search {
                tokens: &[
                    r"fn triggered_by\b",
                    r"fn triggered_transitions\b",
                    r"fn topo_order\b",
                    r"fn instance_key\b",
                    r"fn with_host_speed\b",
                    r"fn enumeration\b",
                    r"fn merged_with\b",
                    r"fn value_name\b",
                ],
                roots: &["crates/core/src"],
                files: RS,
                allowed: &[],
            },
        ],
        check: None,
    },
    Guard {
        name: "no scrape exporters",
        reason: "obs is read inside the process, through the bus (events_filtered, render) and \
                 the registry (counter_value, histogram_stats); no program served the \
                 Prometheus, OTLP or metrics-JSON exporters, and a span is one histogram observe \
                 with no retained trace",
        deleted_in: "4bcb343",
        searches: &[Search {
            tokens: &[
                "export_prometheus",
                "export_otlp_spans",
                "export_json",
                "SpanRecord",
                "obs.export.spans",
                "set_span_export",
                "span_named",
                "resourceSpans",
                "OBS_BLESS",
            ],
            roots: SOURCE,
            files: ALL,
            allowed: &[],
        }],
        check: None,
    },
    Guard {
        name: "one adaptation path",
        reason: "PerfDb::predict interpolates and the nearest-record lookup is the ablation's \
                 test code; a prediction is timed inside its scheduler decision, so no database \
                 carries a span of its own; the runtime publishes obs events directly, with no \
                 typed mirror and no backlog",
        deleted_in: "30c2dae",
        searches: &[
            Search {
                tokens: &[
                    "PredictMode::Nearest",
                    r"fn nearest\b",
                    "fn with_mode",
                    "db_base_version",
                    "ObsHook",
                    "\"perfdb.predict\"",
                ],
                roots: &["crates/core/src"],
                files: ALL,
                allowed: &[],
            },
            Search { tokens: &["AdaptationEvent"], roots: SOURCE, files: ALL, allowed: &[] },
        ],
        check: None,
    },
    Guard {
        name: "pub means another crate uses it",
        reason: "a library pub fn or constant that only its own crate names is pub(crate), so \
                 rustc's dead-code lint sees it; a documented entry point has an UNCALLED_ALLOWED \
                 entry",
        deleted_in: "38dadf3, 1805d78, 4bcb343",
        searches: &[],
        check: Some(crate_local_pub_items),
    },
];

/// Library `pub` items that stay `pub` with no user outside their crate,
/// and why.
const UNCALLED_ALLOWED: &[(&str, &str)] = &[(
    "try_new",
    "ResourceScheduler's checked constructor, the one README's API tour and DESIGN.md §11 show: \
     it rejects an empty preference list and an input with no records",
)];

/// What the visibility row reads: every crate's library source (where it
/// finds definitions) and everything that builds against a library. The
/// benchmark is its own workspace but calls the libraries.
const CALLED_FROM: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src"];
/// The manifests the rand row reads.
const MANIFEST_ROOTS: &[&str] = &["Cargo.toml", "crates", "vendor"];
/// The crate roots that must forbid unsafe code.
const CRATE_ROOTS: &[&str] = &["crates/*/src/lib.rs", "src/lib.rs"];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The paths `pattern` names that exist, in name order.
fn expand(repo: &Path, pattern: &str) -> Vec<PathBuf> {
    let mut paths = vec![PathBuf::new()];
    for part in pattern.split('/') {
        paths = paths
            .into_iter()
            .flat_map(|p| match part {
                "*" => sorted_entries(&repo.join(&p)).into_iter().map(|n| p.join(n)).collect(),
                _ => vec![p.join(part)],
            })
            .filter(|p| repo.join(p).exists())
            .collect();
    }
    paths
}

fn sorted_entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .map(|d| d.map(|e| e.expect("readable entry").file_name().to_string_lossy().into()))
        .into_iter()
        .flatten()
        .collect();
    names.sort();
    names
}

/// Every file under `roots` whose name passes `files`, except this one.
fn files_under(repo: &Path, roots: &[&str], files: &[&str]) -> Vec<PathBuf> {
    fn walk(repo: &Path, rel: PathBuf, out: &mut Vec<PathBuf>) {
        let kind = fs::symlink_metadata(repo.join(&rel)).expect("readable path").file_type();
        if kind.is_dir() {
            for name in sorted_entries(&repo.join(&rel)) {
                walk(repo, rel.join(name), out);
            }
        } else if kind.is_file() {
            out.push(rel);
        }
    }
    let passes = |p: &Path| {
        let name = p.file_name().map_or(String::new(), |n| n.to_string_lossy().into());
        files.is_empty()
            || files.iter().any(|f| match f.strip_prefix('*') {
                Some(suffix) => name.ends_with(suffix),
                None => name == *f,
            })
    };
    let mut out = Vec::new();
    for root in roots {
        for path in expand(repo, root) {
            walk(repo, path, &mut out);
        }
    }
    out.retain(|p| passes(p) && p != Path::new(THIS_FILE));
    out
}

fn read(repo: &Path, rel: &Path) -> String {
    String::from_utf8_lossy(&fs::read(repo.join(rel)).expect("readable file")).into_owned()
}

fn is_word(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Whether `line` holds `token`, honouring its `\b` boundaries.
fn matches(line: &str, token: &str) -> bool {
    let (left, t) = token.strip_prefix(r"\b").map_or((false, token), |t| (true, t));
    let (right, t) = t.strip_suffix(r"\b").map_or((false, t), |t| (true, t));
    let mut from = 0;
    while let Some(at) = line[from..].find(t).map(|i| from + i) {
        let before = line[..at].chars().next_back();
        let after = line[at + t.len()..].chars().next();
        if !(left && is_word(before) || right && is_word(after)) {
            return true;
        }
        from = at + line[at..].chars().next().map_or(1, char::len_utf8);
    }
    false
}

/// `path:line: text` for every line of the search's files holding a token.
fn search_hits(repo: &Path, s: &Search) -> Vec<String> {
    let mut hits = Vec::new();
    for path in files_under(repo, s.roots, s.files) {
        if s.allowed.iter().any(|a| path == Path::new(a)) {
            continue;
        }
        for (n, line) in read(repo, &path).lines().enumerate() {
            if s.tokens.iter().any(|t| matches(line, t)) {
                hits.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
            }
        }
    }
    hits
}

/// A root `BENCH_*.json` was a shadow baseline.
fn no_shadow_baselines(repo: &Path) -> Vec<String> {
    sorted_entries(repo)
        .into_iter()
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .map(|n| format!("{n}: a shadow baseline; pin the number in a test"))
        .collect()
}

/// A manifest line that declares a dependency on `rand`.
fn declares_rand(line: &str) -> bool {
    line.trim_start().strip_prefix("rand").is_some_and(|r| r.trim_start().starts_with(['=', '.']))
}

fn no_rand_crate(repo: &Path) -> Vec<String> {
    let mut out = Vec::new();
    if repo.join("vendor/rand").is_dir() {
        out.push("vendor/rand: the rand stub is back".to_string());
    }
    for path in files_under(repo, MANIFEST_ROOTS, &["Cargo.toml"]) {
        for (n, line) in read(repo, &path).lines().enumerate() {
            if declares_rand(line) {
                out.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
            }
        }
    }
    for (n, line) in read(repo, Path::new("Cargo.lock")).lines().enumerate() {
        if line == r#"name = "rand""# {
            out.push(format!("Cargo.lock:{}: {line}", n + 1));
        }
    }
    out
}

fn crate_roots_forbid_unsafe(repo: &Path) -> Vec<String> {
    CRATE_ROOTS
        .iter()
        .flat_map(|root| expand(repo, root))
        .filter(|path| !read(repo, path).lines().any(|l| l == "#![forbid(unsafe_code)]"))
        .map(|path| format!("{}: lacks #![forbid(unsafe_code)]", path.display()))
        .collect()
}

/// The identifiers of `line`, each with its byte offset.
fn words(line: &str) -> impl Iterator<Item = (usize, &str)> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .map(move |w| (w.as_ptr() as usize - line.as_ptr() as usize, w))
}

/// The crate whose library source `path` is, if it is one: a file under
/// `crates/<name>/src` outside `src/bin`.
fn lib_crate(path: &Path) -> Option<&str> {
    let mut parts = path.iter().map(|p| p.to_str().unwrap_or(""));
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some(krate), Some("src"), Some(next)) if next != "bin" => Some(krate),
        _ => None,
    }
}

/// The name a line declares `pub` as a function or constant, if any.
fn pub_item(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest =
        ["const fn ", "fn ", "const ", "static "].iter().find_map(|k| rest.strip_prefix(k))?;
    let end = rest.find(|c: char| !is_word(Some(c))).unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// The code lines of `text`'s doc-tests, which rustdoc builds as a crate
/// of their own.
fn doctest_lines(text: &str) -> impl Iterator<Item = &str> {
    // Inside a fenced block: whether rustdoc compiles it.
    let mut block: Option<bool> = None;
    text.lines().filter_map(move |line| {
        let t = line.trim_start();
        let doc = t.strip_prefix("///").or_else(|| t.strip_prefix("//!"))?;
        match doc.trim().strip_prefix("```") {
            Some(info) => {
                let compiled = |a: &str| matches!(a.trim(), "rust" | "no_run" | "should_panic");
                block = match block {
                    Some(_) => None,
                    None => Some(info.is_empty() || info.split(',').all(compiled)),
                };
                None
            }
            None => (block == Some(true)).then_some(doc),
        }
    })
}

/// `line` up to its `//` comment: the code a compiler reads. A `//`
/// inside a string literal is code.
fn code(line: &str) -> &str {
    let (mut in_str, mut escaped) = (false, false);
    for (at, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '/' if !in_str && line[at + 1..].starts_with('/') => return &line[..at],
            _ => {}
        }
    }
    line
}

/// The identifiers of `lines` that are not the name of a definition.
fn used_words<'a>(lines: impl Iterator<Item = &'a str>) -> HashSet<&'a str> {
    let defines = |line: &str, at: usize| {
        ["fn ", "const ", "static "].iter().any(|k| line[..at].ends_with(k))
    };
    lines
        .flat_map(|line| words(line).filter(move |&(at, _)| !defines(line, at)).map(|(_, w)| w))
        .collect()
}

/// Library `pub` functions and constants of `files` that no code outside
/// their crate's library source names, besides a definition and unless
/// `allowed`, and `allowed` entries that have gone stale. A crate's own
/// `tests/`, `src/bin/` and doc-tests build as other crates, so they count
/// as outside it. Code is what rustc compiles: a `//` comment is not a
/// use, except a doc-test line.
fn crate_local(files: &[(PathBuf, String)], allowed: &[(&str, &str)]) -> Vec<String> {
    // Per file: its crate, if library source, and the words it uses in
    // its code and in its doc-tests.
    let used: Vec<_> = files
        .iter()
        .map(|(path, text)| {
            let doc = used_words(doctest_lines(text));
            let code = used_words(text.lines().map(code).chain(doctest_lines(text)));
            (lib_crate(path), code, doc)
        })
        .collect();
    let mut defs = BTreeMap::new();
    for (path, text) in files {
        let Some(k) = lib_crate(path) else { continue };
        for (n, line) in text.lines().enumerate() {
            if let Some(name) = pub_item(line) {
                defs.entry((k, name)).or_insert_with(|| format!("{}:{}", path.display(), n + 1));
            }
        }
    }
    let local: Vec<(&str, &str, &String)> = defs
        .iter()
        .filter(|&(&(k, name), _)| {
            !used.iter().any(|(of, all, doc)| if *of == Some(k) { doc } else { all }.contains(name))
        })
        .map(|(&(k, name), at)| (k, name, at))
        .collect();
    let mut out: Vec<String> = local
        .iter()
        .filter(|(_, name, _)| !allowed.iter().any(|(a, _)| a == name))
        .map(|(k, name, at)| {
            format!("{at}: pub {name} is named only inside crate {k}; make it pub(crate)")
        })
        .collect();
    out.extend(
        allowed
            .iter()
            .filter(|&&(a, _)| !local.iter().any(|&(_, name, _)| name == a))
            .map(|(a, _)| format!("UNCALLED_ALLOWED: {a} is not a crate-local pub item any more")),
    );
    out
}

fn crate_local_pub_items(repo: &Path) -> Vec<String> {
    let files: Vec<_> = files_under(repo, CALLED_FROM, RS)
        .into_iter()
        .map(|p| (p.clone(), read(repo, &p)))
        .collect();
    crate_local(&files, UNCALLED_ALLOWED)
}

#[test]
fn deleted_names_stay_deleted() {
    let failures: Vec<String> = GUARDS
        .iter()
        .filter_map(|g| {
            let mut v: Vec<String> =
                g.searches.iter().flat_map(|s| search_hits(repo(), s)).collect();
            v.extend(g.check.map_or_else(Vec::new, |check| check(repo())));
            (!v.is_empty()).then(|| {
                format!(
                    "row `{}` (deleted in {}): {}\n  {}",
                    g.name,
                    g.deleted_in,
                    g.reason,
                    v.join("\n  ")
                )
            })
        })
        .collect();
    assert!(failures.is_empty(), "deleted names are back:\n{}", failures.join("\n"));
}

#[test]
fn every_row_finds_what_it_guards() {
    // Each token is found when planted, and its boundaries reject a near miss.
    for s in GUARDS.iter().flat_map(|g| g.searches) {
        for token in s.tokens {
            let literal = token.trim_start_matches(r"\b").trim_end_matches(r"\b");
            assert!(!literal.is_empty());
            assert!(matches(&format!("let x = {literal}; // planted"), token), "{token}");
        }
    }
    for (line, token) in [
        ("pub enum WorkloadKind {", r"enum Workload\b"),
        ("#![forbid(unsafe_code)]", r"\bunsafe\b"),
        ("/// Snapshots of the queue", r"Snapshot\b"),
        ("use random::Rng;", r"\buse rand\b"),
        ("let r = operand::x;", r"\brand::"),
        ("sim.set_link_loss(a, b, 0.1, 7);", r"\blink_loss\b"),
        ("frame_payload: Vec<u8>,", r"\bpayload: Vec<u8>"),
        ("let ev = TraceEvent::new(0);", r"\bEvent::new\b"),
        ("Event::new_packed(0)", r"\bEvent::new\b"),
    ] {
        assert!(!matches(line, token), "`{token}` must not match `{line}`");
    }
    assert!(matches("x Snapshot, Snapshots", r"Snapshot\b"), "a later occurrence still counts");

    // Every root exists and yields a file, so a misspelled root cannot pass.
    let mut roots: Vec<(&[&str], &[&str])> =
        vec![(CALLED_FROM, RS), (MANIFEST_ROOTS, &["Cargo.toml"]), (CRATE_ROOTS, ALL)];
    roots.extend(GUARDS.iter().flat_map(|g| g.searches).map(|s| (s.roots, s.files)));
    for (group, files) in roots {
        for root in group {
            assert!(!files_under(repo(), &[root], files).is_empty(), "root {root} scans nothing");
        }
    }

    // The manifest check reads a dependency line, not a longer name.
    assert!(declares_rand(r#"rand = "0.8""#) && declares_rand("  rand.workspace = true"));
    assert!(!declares_rand(r#"random = "1""#) && !declares_rand(r#"operand = "1""#));

    // The visibility row flags a `pub` item that only its own crate's
    // library source names, prose and text blocks included, or that
    // another crate names only in a `//` comment, and passes one that the
    // crate's tests, binaries or doc-tests or another crate's code or
    // doc-tests name. Another crate's definition of the same name is not
    // a use.
    let file = |path: &str, lines: &[&str]| (PathBuf::from(path), lines.join("\n"));
    let files = [
        file(
            "crates/x/src/lib.rs",
            &[
                "//! ```",
                "//! x::in_doctest();",
                "//! ```",
                "//! ```text",
                "//! x::in_text_block();",
                "//! ```",
                "/// Prose that names [`in_prose`].",
                "pub fn lonely() { in_prose(); in_text_block(); }",
                "pub fn in_prose() {}",
                "pub fn in_doctest() {}",
                "pub fn in_text_block() {}",
                "pub fn used_by_tests() {}",
                "pub fn used_by_bin() {}",
                "pub fn used_by_y() {}",
                "pub fn in_y_comment() {}",
                "pub fn in_y_doctest() {}",
                "pub fn after_y_url() {}",
                "pub(crate) fn inner() {}",
                "pub const LIMIT: u32 = 1;",
                "fn limit() -> u32 { LIMIT }",
            ],
        ),
        file("crates/x/src/bin/b.rs", &["fn main() { x::used_by_bin(); }"]),
        file("crates/x/tests/t.rs", &["#[test]", "fn t() { x::used_by_tests(); }"]),
        file(
            "crates/y/src/lib.rs",
            &[
                "pub fn lonely() {} // not x::in_y_comment()",
                "// Nor x::in_y_comment() here.",
                "/// ```",
                "/// x::in_y_doctest();",
                "/// ```",
                r#"fn f() { let _ = "http://host"; x::after_y_url(); }"#,
            ],
        ),
        file("crates/y/tests/t.rs", &["#[test]", "fn t() { x::used_by_y(); }"]),
    ];
    let out = crate_local(&files, &[]);
    let flagged: Vec<&str> = out.iter().map(|l| l.split(' ').nth(2).unwrap()).collect();
    assert_eq!(flagged, ["LIMIT", "in_prose", "in_text_block", "in_y_comment", "lonely", "lonely"]);
    assert_eq!(
        out[5],
        "crates/y/src/lib.rs:1: pub lonely is named only inside crate y; make it pub(crate)"
    );
    // An allowed entry silences its item; one that no longer matches is stale.
    let out = crate_local(&files, &[("in_prose", "an entry point"), ("used_by_bin", "stale")]);
    assert_eq!(out.len(), 6);
    assert!(!out.iter().any(|l| l.contains(" in_prose ")));
    assert_eq!(out[5], "UNCALLED_ALLOWED: used_by_bin is not a crate-local pub item any more");
}
