//! The annotation parser against mutated spec text. Every mutant of
//! `dsl::ACTIVE_VIZ_SPEC` — tokens deleted, duplicated and swapped,
//! extreme integers spliced in — is parsed without a panic, and every
//! mutant the parser accepts survives a round trip through `render`:
//! `parse(render(parse(x))) == parse(x)`.

use std::panic::catch_unwind;

use adapt_core::dsl::{parse, render, ACTIVE_VIZ_SPEC};
use obs::det::SplitMix64;

/// Integers at the edges of the lexer and of the control-space bound.
const EXTREME_INTS: &[&str] = &[
    "0",
    "1",
    "-1",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775806",
    "-9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "4611686018427387904",
    "1048576",
    "1048577",
    "1_000",
    "007",
];

/// The spec's tokens, comments dropped: words and numbers, quoted
/// strings, and the language's one- and two-character symbols.
fn tokens(src: &str) -> Vec<String> {
    let b = src.as_bytes();
    let (mut out, mut i) = (Vec::new(), 0);
    while i < b.len() {
        let c = b[i];
        let start = i;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        } else if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        } else if c == b'"' {
            i += 1;
            while b[i] != b'"' {
                i += 1;
            }
            i += 1;
        } else if c.is_ascii_alphanumeric() || c == b'_' {
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
        } else if matches!(&b[i..(i + 2).min(b.len())], b".." | b"->" | b"==" | b"<=" | b">=") {
            i += 2;
        } else {
            i += 1;
        }
        out.push(src[start..i].to_string());
    }
    out
}

/// One to three random edits of `toks` (one half the time).
fn mutate(toks: &[String], rng: &mut SplitMix64) -> Vec<String> {
    let mut t = toks.to_vec();
    let edits = if rng.below(2) == 0 { 1 } else { rng.range(2, 3) };
    for _ in 0..edits {
        let n = t.len() as u64;
        let i = rng.below(n) as usize;
        let extreme = EXTREME_INTS[rng.below(EXTREME_INTS.len() as u64) as usize].to_string();
        match rng.below(5) {
            0 => {
                t.remove(i);
            }
            1 => t.insert(i, t[i].clone()),
            2 => t.swap(i, rng.below(n) as usize),
            3 => t.insert(i, extreme),
            _ => {
                // Overwrite an integer, so the edit lands where one is legal.
                let ints: Vec<usize> =
                    (0..t.len()).filter(|&k| t[k].as_bytes()[0].is_ascii_digit()).collect();
                if !ints.is_empty() {
                    t[ints[rng.below(ints.len() as u64) as usize]] = extreme;
                }
            }
        }
        if t.is_empty() {
            break;
        }
    }
    t
}

/// Mutants per run: about half a second in a debug build.
const TRIALS: usize = 10_000;

#[test]
fn mutated_specs_never_panic_and_accepted_ones_round_trip() {
    let toks = tokens(ACTIVE_VIZ_SPEC);
    assert_eq!(tokens(&toks.join(" ")), toks, "the token split is lossless");
    let original = parse(&toks.join(" ")).expect("the unmutated spec parses");
    assert_eq!(original, parse(ACTIVE_VIZ_SPEC).unwrap());

    let mut rng = SplitMix64::new(0xd51);
    let mut accepted = 0;
    for trial in 0..TRIALS {
        // Alternate token separators so line numbers move too.
        let sep = if trial % 2 == 0 { " " } else { "\n" };
        let text = mutate(&toks, &mut rng).join(sep);
        let parsed = catch_unwind(|| parse(&text))
            .unwrap_or_else(|_| panic!("parse panicked on mutant {trial}:\n{text}"));
        let Ok(spec) = parsed else { continue };
        accepted += 1;
        let rendered = render(&spec);
        let back = parse(&rendered).unwrap_or_else(|e| {
            panic!("mutant {trial} re-parse failed: {e}\n{text}\n--- rendered ---\n{rendered}")
        });
        assert_eq!(back, spec, "mutant {trial} changed through render:\n{text}\n---\n{rendered}");
    }
    // The edits must reach the accepting paths, not only the errors.
    eprintln!("{accepted} of {TRIALS} mutants parsed");
    assert!(accepted > 200, "only {accepted} of {TRIALS} mutants parsed");
}
