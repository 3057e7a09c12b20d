//! The golden corpus: every pinned fingerprint of the test suites, and the
//! one fold and the one check that make and guard them.
//!
//! A suite folds each case into a [`Fingerprint`] of named, independent
//! columns and hands all its cases to [`check`], which compares them with
//! `tests/golden/<suite>.txt`. That file holds one line per case,
//!
//! ```text
//! <case> | <column>=<16 hex digits> <column>=<16 hex digits> ...
//! ```
//!
//! and `#` lines (the provenance of the pins) and blank lines around them.
//! The solver suites (`solve`, `schedule`, `cross_solver`) use the
//! [`SOLVER`] columns: `schedule` (the executed task order per rank),
//! `traffic` (message, frame, byte and low-rank block counts), `virtual`
//! (makespans and span clocks) and `bits` (solution and factor bits); the
//! `analysis` and `fleet` suites name their own.
//!
//! **Re-pinning.** On a moved column or a case missing from the corpus,
//! [`check`] writes the suite's complete fresh corpus — the cases this run
//! computed replaced or appended, every other line (comments, cases of
//! tests that did not run, such as `#[ignore]`d ones) copied through — to
//! `$CARGO_TARGET_TMPDIR/golden/<suite>.txt`, and panics naming the moved
//! columns per case and the `cp` that applies the fresh file. Apply it only
//! when the change was meant to move exactly those columns; `git diff
//! tests/golden/` is then the review artifact.
//!
//! Included by path into every suite that pins a fingerprint (and into
//! `tests/golden_corpus.rs`, which tests it and keeps every other test
//! source free of private folds).

#![allow(dead_code)] // each suite uses its own subset

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

/// FNV-1a, 64 bit.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// The columns of the solve, schedule and cross-solver suites.
pub const SOLVER: [&str; 4] = ["schedule", "traffic", "virtual", "bits"];

/// A value a column folds: an integer as its 8 little-endian bytes, a float
/// by its bits, a string as its UTF-8 bytes, a slice element by element.
pub trait Pin {
    fn fold(&self, h: u64) -> u64;
}

impl Pin for u64 {
    fn fold(&self, h: u64) -> u64 {
        self.to_le_bytes().as_slice().fold(h)
    }
}

impl Pin for f64 {
    fn fold(&self, h: u64) -> u64 {
        self.to_bits().fold(h)
    }
}

impl Pin for str {
    fn fold(&self, h: u64) -> u64 {
        self.as_bytes().fold(h)
    }
}

impl Pin for [u8] {
    fn fold(&self, mut h: u64) -> u64 {
        // A plain loop: the suites run unoptimized, where an iterator
        // adaptor per byte is not inlined away.
        for &b in self {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        h
    }
}

impl Pin for [f64] {
    fn fold(&self, mut h: u64) -> u64 {
        for v in self {
            h = v.fold(h);
        }
        h
    }
}

/// One case's columns, each an independent FNV-1a fold.
pub struct Fingerprint {
    columns: Vec<(&'static str, u64)>,
}

impl Fingerprint {
    /// A fingerprint with these columns, in the order the corpus line
    /// prints them.
    pub fn new(columns: &[&'static str]) -> Fingerprint {
        Fingerprint {
            columns: columns.iter().map(|&c| (c, OFFSET)).collect(),
        }
    }

    /// Fold `value` into `column`.
    ///
    /// # Panics
    /// On a column [`Fingerprint::new`] was not given.
    pub fn fold<T: Pin + ?Sized>(&mut self, column: &str, value: &T) {
        let Some(c) = self.columns.iter_mut().find(|(name, _)| *name == column) else {
            panic!("no column `{column}` in this fingerprint");
        };
        c.1 = value.fold(c.1);
    }

    /// The right-hand side of the case's corpus line.
    pub(crate) fn render(&self) -> String {
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|(name, h)| format!("{name}={h:016x}"))
            .collect();
        cols.join(" ")
    }
}

/// The cases of each suite this process found moved or missing, so that the
/// fresh corpus a failing test writes also carries the fresh lines of every
/// test of the suite that failed before it.
static MOVED: Mutex<BTreeMap<&str, Vec<(String, String)>>> = Mutex::new(BTreeMap::new());

/// Check `cases` against `tests/golden/<suite>.txt`.
///
/// # Panics
/// When a column moved or a case is missing from the corpus, after writing
/// the fresh corpus (see the module docs); on a malformed corpus line and
/// on a case name given twice.
pub fn check(suite: &'static str, cases: Vec<(String, Fingerprint)>) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let dir = dir.canonicalize().unwrap_or(dir);
    let path = dir.join(format!("{suite}.txt"));
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    let lines: Vec<(String, String)> = cases.into_iter().map(|(c, f)| (c, f.render())).collect();
    let moved = diff(&committed, &lines);
    if moved.is_empty() {
        return;
    }
    let fresh_path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("golden")
        .join(format!("{suite}.txt"));
    {
        // Held across the write, so two failing tests of one suite cannot
        // interleave theirs; every update leaves the list whole, so a guard
        // poisoned by a failed write is still good.
        let mut moved_so_far = MOVED.lock().unwrap_or_else(PoisonError::into_inner);
        let all = moved_so_far.entry(suite).or_default();
        all.extend(lines);
        std::fs::create_dir_all(fresh_path.parent().expect("has a parent")).expect("tmp dir");
        std::fs::write(&fresh_path, fresh(&committed, all)).expect("fresh corpus written");
    }
    panic!(
        "golden corpus `{suite}`: {} case(s) moved:\n  {}\n\
         The complete fresh corpus is {}. If the change was meant to move exactly \
         these columns, apply it and review `git diff tests/golden/`:\n  cp {} {}",
        moved.len(),
        moved.join("\n  "),
        fresh_path.display(),
        fresh_path.display(),
        path.display(),
    );
}

/// A corpus line's case and its columns; `None` for a comment or a blank
/// line.
fn parse_line(line: &str) -> Option<(&str, BTreeMap<&str, &str>)> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let Some((case, cols)) = line.split_once(" | ") else {
        panic!("malformed corpus line (no ` | `): {line}");
    };
    Some((case.trim(), parse_columns(cols)))
}

/// `column=hex …` as a `column → hex` map.
fn parse_columns(cols: &str) -> BTreeMap<&str, &str> {
    let mut map = BTreeMap::new();
    for c in cols.split_whitespace() {
        match c.split_once('=') {
            Some((name, hex)) if hex.len() == 16 && u64::from_str_radix(hex, 16).is_ok() => {
                map.insert(name, hex);
            }
            _ => panic!("malformed corpus column `{c}` in `{cols}`"),
        }
    }
    map
}

/// The committed cases by name.
fn parse(corpus: &str) -> BTreeMap<&str, BTreeMap<&str, &str>> {
    let mut cases = BTreeMap::new();
    for (case, cols) in corpus.lines().filter_map(parse_line) {
        assert!(
            cases.insert(case, cols).is_none(),
            "case `{case}` is in the corpus twice"
        );
    }
    cases
}

/// One line per computed case that differs from `committed`: the case and
/// the columns that moved, or that it is not in the corpus.
pub(crate) fn diff(committed: &str, lines: &[(String, String)]) -> Vec<String> {
    let pinned = parse(committed);
    let mut seen = HashSet::new();
    let mut moved = Vec::new();
    for (case, rendered) in lines {
        assert!(seen.insert(case), "case `{case}` computed twice");
        let got = parse_columns(rendered);
        let Some(want) = pinned.get(case.as_str()) else {
            moved.push(format!("{case}: not in the corpus"));
            continue;
        };
        let names: Vec<&str> = got
            .keys()
            .chain(want.keys().filter(|c| !got.contains_key(*c)))
            .filter(|c| got.get(*c) != want.get(*c))
            .copied()
            .collect();
        if !names.is_empty() {
            moved.push(format!("{case}: {}", names.join(", ")));
        }
    }
    moved
}

/// `committed` with each of `lines`' cases replaced in place, and the cases
/// it does not hold appended in the order given.
pub(crate) fn fresh(committed: &str, lines: &[(String, String)]) -> String {
    let by_case: BTreeMap<&str, &str> = lines
        .iter()
        .map(|(c, r)| (c.as_str(), r.as_str()))
        .collect();
    let mut placed = HashSet::new();
    let mut out = String::new();
    for line in committed.lines() {
        let case = parse_line(line).map(|(case, _)| case);
        match case.and_then(|c| by_case.get_key_value(c)) {
            Some((case, rendered)) => {
                placed.insert(*case);
                out += &format!("{case} | {rendered}\n");
            }
            None => out += &format!("{line}\n"),
        }
    }
    for (case, rendered) in lines {
        if placed.insert(case.as_str()) {
            out += &format!("{case} | {rendered}\n");
        }
    }
    out
}
