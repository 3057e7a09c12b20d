//! The golden corpus helper (`tests/golden/mod.rs`), and the scan that keeps
//! it the only way a test pins a fingerprint.
//!
//! * The helper's own behaviour: the fold is FNV-1a, a moved column is named
//!   per case, a missing case is reported, the fresh corpus replaces the
//!   computed cases in place while copying comments and cases this run did
//!   not compute through, and a second failing test of a suite rewrites the
//!   fresh file with the first one's cases still in it.
//! * `no_test_source_folds_or_pins_a_fingerprint_outside_the_corpus`: under
//!   `tests/` and `crates/*/tests/`, no file but the helper holds the FNV
//!   prime (a private fold), and no `const` / `static` holds a list of hex
//!   `u64` fingerprints, nor any binding typed `[u64; N]` a hex fingerprint.
//!   Explicit counters and clock bits (the pgas ledger pin, the allocation
//!   ceilings) are not folds and stay where they are.

mod golden;

use golden::{diff, fresh, Fingerprint, SOLVER};
use std::fs;
use std::path::{Path, PathBuf};

fn line(case: &str, fp: &Fingerprint) -> (String, String) {
    (case.to_string(), fp.render())
}

#[test]
fn the_fold_is_fnv_1a_over_little_endian_bytes() {
    let mut fp = Fingerprint::new(&["s", "n"]);
    fp.fold("s", "a");
    fp.fold("n", &1u64);
    let mut bytes = Fingerprint::new(&["s", "n"]);
    bytes.fold("s", [0x61u8].as_slice());
    bytes.fold("n", [1u8, 0, 0, 0, 0, 0, 0, 0].as_slice());
    // The published FNV-1a 64 digest of "a".
    assert!(fp.render().starts_with("s=af63dc4c8601ec8c "));
    assert_eq!(fp.render(), bytes.render());
    let mut float = Fingerprint::new(&["n"]);
    float.fold("n", &f64::from_bits(1));
    assert_eq!(float.render(), format!("n={}", &fp.render()[21..]));
}

#[test]
#[should_panic(expected = "no column `sched`")]
fn a_misspelled_column_is_refused() {
    Fingerprint::new(&SOLVER).fold("sched", &0u64);
}

#[test]
fn moved_columns_are_named_per_case_and_the_rest_is_copied_through() {
    let mut a = Fingerprint::new(&SOLVER);
    a.fold("schedule", "D(0)");
    a.fold("bits", &1.5f64);
    let mut b = Fingerprint::new(&SOLVER);
    b.fold("traffic", &7u64);
    let committed = format!(
        "# provenance\n\na | {}\nb | {}\nnot run | bits={:016x}\n",
        a.render(),
        b.render(),
        0
    );
    let unchanged = [line("a", &a), line("b", &b)];
    assert!(diff(&committed, &unchanged).is_empty());

    let mut a2 = Fingerprint::new(&SOLVER);
    a2.fold("schedule", "D(0)");
    a2.fold("bits", &2.5f64);
    a2.fold("virtual", &0.25f64);
    let mut c = Fingerprint::new(&["virtual"]);
    c.fold("virtual", &1.0f64);
    let computed = [line("a", &a2), line("b", &b), line("c", &c)];
    assert_eq!(
        diff(&committed, &computed),
        ["a: bits, virtual", "c: not in the corpus"]
    );
    let want = format!(
        "# provenance\n\na | {}\nb | {}\nnot run | bits={:016x}\nc | {}\n",
        a2.render(),
        b.render(),
        0,
        c.render()
    );
    assert_eq!(fresh(&committed, &computed), want);

    // A column the corpus has and the run no longer computes moves too.
    let mut only_bits = Fingerprint::new(&["bits"]);
    only_bits.fold("bits", &1.5f64);
    assert_eq!(
        diff(&committed, &[line("a", &only_bits)]),
        ["a: schedule, traffic, virtual"]
    );
}

#[test]
fn a_failing_suite_writes_one_fresh_corpus_holding_every_moved_case() {
    let suite = "selftest-not-committed";
    let run = |case: &str| {
        let mut fp = Fingerprint::new(&["bits"]);
        fp.fold("bits", case);
        let cases = vec![(case.to_string(), fp)];
        let err = std::panic::catch_unwind(|| golden::check(suite, cases))
            .expect_err("a case missing from the corpus fails");
        *err.downcast::<String>().expect("a formatted panic message")
    };
    run("first");
    let msg = run("second");
    assert!(msg.contains("second: not in the corpus"), "{msg}");
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden/{suite}.txt"));
    assert!(msg.contains(&format!("cp {}", fresh.display())), "{msg}");
    // The second failure's file still holds the first failure's case.
    let text = fs::read_to_string(&fresh).expect("fresh corpus written");
    let cases: Vec<&str> = text
        .lines()
        .map(|l| l.split(" | ").next().unwrap())
        .collect();
    assert_eq!(cases, ["first", "second"]);
}

#[test]
#[should_panic(expected = "malformed corpus column")]
fn a_malformed_corpus_line_is_refused() {
    diff("a | bits=12\n", &[]);
}

#[test]
#[should_panic(expected = "in the corpus twice")]
fn a_case_pinned_twice_is_refused() {
    let line = format!("a | bits={:016x}\n", 0);
    diff(&line.repeat(2), &[]);
}

// ----- the scan -----

/// Hex literals of at least 12 significant digits: what a 64-bit fold
/// prints, and no counter a test spells out by hand.
fn wide_hex_literals(code: &str) -> usize {
    let flat = code.replace('_', "").to_lowercase();
    flat.split("0x")
        .skip(1)
        .filter(|lit| lit.chars().take_while(char::is_ascii_hexdigit).count() >= 12)
        .count()
}

/// Every `const` / `static` / `let` binding of `code` as (keyword, the text
/// before its `=`, its initializer).
fn bindings(code: &str) -> Vec<(&str, &str, &str)> {
    let b = code.as_bytes();
    let mut found = Vec::new();
    for kw in ["const ", "static ", "let "] {
        for (at, _) in code.match_indices(kw) {
            if at > 0 && (b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_') {
                continue;
            }
            let (mut depth, mut eq) = (0i32, None);
            for (k, &c) in b.iter().enumerate().skip(at + kw.len()) {
                match c {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' | b';' if depth == 0 => break,
                    b'=' if depth == 0
                        && !matches!(b.get(k + 1), Some(b'=' | b'>'))
                        && !matches!(b[k - 1], b'=' | b'!' | b'<' | b'>') =>
                    {
                        eq = Some(k);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(eq) = eq else { continue };
            let mut depth = 0i32;
            let end = (eq + 1..b.len())
                .find(|&k| {
                    match b[k] {
                        b'(' | b'[' | b'{' => depth += 1,
                        b')' | b']' | b'}' => depth -= 1,
                        _ => {}
                    }
                    depth == 0 && b[k] == b';'
                })
                .unwrap_or(b.len());
            found.push((kw.trim(), &code[at + kw.len()..eq], &code[eq + 1..end]));
        }
    }
    found
}

/// What in `src` pins a fingerprint outside the corpus, one line each.
fn private_pins(src: &str) -> Vec<String> {
    let mut found = Vec::new();
    let prime = (1u64 << 40) + 0x1b3;
    let flat = src.replace('_', "").to_lowercase();
    if flat.contains(&format!("{prime:x}")) || flat.contains(&prime.to_string()) {
        found.push("the FNV prime: a private fold".to_string());
    }
    for (kw, head, init) in bindings(src) {
        let wide = wide_hex_literals(init);
        let typed = head
            .split_whitespace()
            .collect::<String>()
            .contains("[u64;");
        if (kw != "let" && wide >= 2) || (typed && wide >= 1) {
            let name = head.split(':').next().unwrap_or(head).trim();
            found.push(format!("`{kw} {name}`: {wide} pinned hex fingerprint(s)"));
        }
    }
    found
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_scan_finds_a_planted_fold_and_pin_and_passes_explicit_counters() {
    let prime = (1u64 << 40) + 0x1b3;
    let fold =
        format!("fn fnv(h: &mut u64, b: u8) {{ *h = (*h ^ b as u64).wrapping_mul({prime:#x}); }}");
    assert_eq!(private_pins(&fold).len(), 1, "{fold}");
    let decimal = format!("const P: u64 = {prime};");
    assert_eq!(private_pins(&decimal).len(), 1);
    let hex = |k: u64| format!("{:#018x}", k.wrapping_mul(prime) | 1 << 60);
    let pins = [
        format!(
            "const PINS: [u64; 2] = [\n    {},\n    {},\n];",
            hex(3),
            hex(5)
        ),
        format!("static GOLDEN: [[u64; 2]; 1] = [[{}, {}]];", hex(3), hex(5)),
        format!("let want: [u64; 1] = [{}];", hex(7)),
    ];
    for pin in &pins {
        assert_eq!(private_pins(pin).len(), 1, "{pin}");
    }
    // The ledger's clock bits and counters and the allocation ceilings are
    // not folds.
    let explicit = [
        format!("assert_eq!(clocks, [{}; P]);", hex(9)),
        format!(
            "let expect: [(Sample, u64, u64); P] = [(s, 43, {}), (s, 35, {})];",
            hex(3),
            hex(5)
        ),
        "const CEILINGS: [(&str, usize, [u64; 5]); 1] = [(\"flan\", 1, [89, 92, 1, 2, 3])];"
            .to_string(),
    ];
    for ok in &explicit {
        assert!(private_pins(ok).is_empty(), "{ok}: {:?}", private_pins(ok));
    }
}

#[test]
fn no_test_source_folds_or_pins_a_fingerprint_outside_the_corpus() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let helper = root.join("tests/golden/mod.rs");
    let mut files = Vec::new();
    rust_files(&root.join("tests"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        rust_files(
            &krate.expect("readable entry").path().join("tests"),
            &mut files,
        );
    }
    assert!(files.len() > 20, "the walk found the test sources");
    let helper_text = fs::read_to_string(&helper).expect("the helper exists");
    assert!(
        !private_pins(&helper_text).is_empty(),
        "the scan must recognise the helper's own fold"
    );
    let mut problems = Vec::new();
    let helper = helper.canonicalize().expect("the helper exists");
    for file in files
        .iter()
        .filter(|f| f.canonicalize().ok() != Some(helper.clone()))
    {
        let text = fs::read_to_string(file).expect("test source is UTF-8");
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .display()
            .to_string();
        problems.extend(
            private_pins(&text)
                .into_iter()
                .map(|p| format!("{rel}: {p}")),
        );
    }
    assert!(
        problems.is_empty(),
        "pin fingerprints through tests/golden/mod.rs and its corpus, not by hand:\n{}",
        problems.join("\n")
    );
}
