//! The one bench-and-gate harness behind `scaling_bench`, `blr_bench`,
//! `fleet_bench` and `telemetry_bench`, the paper-figure suites `scaling`,
//! `taxonomy` and `ablation` (and the argument parser of the report
//! binaries).
//!
//! A [`Suite`] names its committed `BENCH_*.json` or `results/*.json` and
//! supplies three row producers and one gate. `--quick` runs `quick` and
//! touches no file. `--check` runs `cheap`, requires each row it produced
//! to equal a committed row, then runs `gate` over the committed rows. No
//! flag runs `full`, runs the same `gate` over its rows and only then
//! rewrites the file. A [`Row`] is always what [`sympack_trace::json::parse`]
//! made of its text, measured a moment ago or committed a year ago, so a
//! gate is one function over one kind of input. Any argument the suite did
//! not declare prints the usage and exits 2 before a case runs or a file is
//! touched.
//!
//! A figure suite runs every case in lockstep, so its rows reproduce bit
//! for bit; its `--quick` and `--check` run the cheap rows, and its gate
//! prints a [`Scorecard`] of the paper's claims over the full rows.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use sympack_trace::json::{self, Arr, JsonValue, Obj};

/// One row of a committed BENCH file: a flat JSON object, fields in order.
///
/// The committed files hold strings, unsigned integers, booleans, and
/// floats as quoted [`sci`] strings. A row is built with the workspace's
/// JSON writer ([`Obj`]) and held as the reader's view of that text, so a
/// fresh row and the same row read from a file compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct Row(JsonValue);

/// The bit-stable spelling of a float field: identical `f64` bits give
/// identical text, and the text parses back to the same bits.
pub fn sci(v: f64) -> String {
    format!("{v:.17e}")
}

impl From<Obj> for Row {
    fn from(fields: Obj) -> Row {
        let text = fields.finish();
        let row = Row(json::parse(&text).expect("the writer emits valid JSON"));
        // E.g. an integer above 2^53, which the reader holds as an `f64`.
        assert_eq!(row.to_json(), text, "a field does not survive the reader");
        row
    }
}

impl Row {
    /// The string field `name`.
    pub fn text(&self, name: &str) -> Result<&str, String> {
        let v = self.0.get(name).and_then(JsonValue::as_str);
        v.ok_or_else(|| format!("no string field {name:?} in {}", self.to_json()))
    }

    /// The integer field `name`.
    pub fn u64(&self, name: &str) -> Result<u64, String> {
        let v = self.0.get(name).and_then(JsonValue::as_u64);
        v.ok_or_else(|| format!("no integer field {name:?} in {}", self.to_json()))
    }

    /// The float field `name` (any string field that spells a number).
    pub fn f64(&self, name: &str) -> Result<f64, String> {
        let s = self.text(name)?;
        s.parse()
            .map_err(|_| format!("field {name:?} of {} is not a number", self.to_json()))
    }

    /// The row as one compact JSON object.
    pub fn to_json(&self) -> String {
        json::write(&self.0)
    }
}

/// Where a suite's cases put their rows. Each [`push`](Rows::push) prints
/// the progress line: the row on stdout, which a lockstep suite repeats
/// byte for byte, and the wall time since the previous row on stderr.
#[derive(Debug)]
pub struct Rows {
    rows: Vec<Row>,
    last: Instant,
}

impl Rows {
    /// Record one finished row.
    pub fn push(&mut self, row: Row) {
        let wall = self.last.elapsed().as_secs_f64();
        println!("{}", row.to_json());
        eprintln!("({wall:.1}s wall)");
        self.last = Instant::now();
        self.rows.push(row);
    }
}

/// The parsed command line: switches and `--flag VALUE` pairs, nothing else.
#[derive(Debug)]
pub struct Args(Vec<(String, Option<String>)>);

impl Args {
    /// The process's arguments, checked against the flags a binary takes.
    /// Anything else prints the usage line and exits 2, so call this before
    /// doing any work.
    pub fn from_env(switches: &[&str], valued: &[&str]) -> Args {
        Args::parse(std::env::args().skip(1), switches, valued).unwrap_or_else(|e| {
            let valued: String = valued.iter().map(|f| format!(" [{f} VALUE]")).collect();
            eprintln!("{e}\nusage: [{}]{valued}", switches.join(" | "));
            std::process::exit(2)
        })
    }

    fn parse(
        argv: impl IntoIterator<Item = String>,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Args, String> {
        let mut argv = argv.into_iter();
        let mut given = Vec::new();
        while let Some(arg) = argv.next() {
            let value = if switches.contains(&arg.as_str()) {
                None
            } else if valued.contains(&arg.as_str()) {
                Some(argv.next().ok_or(format!("{arg} needs a value"))?)
            } else {
                return Err(format!("unknown argument {arg:?}"));
            };
            given.push((arg, value));
        }
        Ok(Args(given))
    }

    /// Whether the switch was given.
    pub fn has(&self, switch: &str) -> bool {
        self.0.iter().any(|(a, _)| a == switch)
    }

    /// The value of a `--flag VALUE` pair, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let hit = self.0.iter().find(|(a, _)| a == flag);
        hit.and_then(|(_, v)| v.as_deref())
    }

    /// The value of `flag` as `parse` reads it, if given. A value `parse`
    /// refuses exits 2 like an unknown flag, so call this before any work.
    pub fn parsed<T>(&self, flag: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        let value = self.value(flag)?;
        Some(parse(value).unwrap_or_else(|| {
            eprintln!("unknown value {value:?} for {flag}");
            std::process::exit(2)
        }))
    }
}

/// What a figure suite's gate prints: one verdict per paper claim,
/// computed from the rows. A claim that fails is printed as failing; it
/// does not fail the gate.
#[derive(Debug, Default)]
pub struct Scorecard {
    held: usize,
    claims: usize,
}

impl Scorecard {
    /// Print one claim's verdict and the rows' evidence for it.
    pub fn claim(&mut self, claim: &str, holds: bool, evidence: &str) {
        self.claims += 1;
        self.held += usize::from(holds);
        let verdict = if holds { "holds" } else { "FAILS" };
        println!("  {verdict}: {claim} — {evidence}");
    }

    /// A claim that holds at every labelled point `holds` accepts: the
    /// evidence counts them and names the others.
    pub fn every<P>(&mut self, claim: &str, points: &[(String, P)], holds: impl Fn(&P) -> bool) {
        let misses = points.iter().filter(|(_, p)| !holds(p)).map(|(at, _)| at);
        let misses: Vec<&String> = misses.collect();
        let held = points.len() - misses.len();
        let evidence = format!("{held}/{} points; not at: {misses:?}", points.len());
        self.claim(claim, misses.is_empty(), &evidence);
    }

    /// The gate's summary: how many claims hold.
    pub fn summary(&self) -> String {
        format!("{}/{} paper claims hold", self.held, self.claims)
    }
}

/// The row whose fields hold `key`'s values (an integer field spelled in
/// decimal), or why there is none.
pub fn find<'a>(rows: &'a [Row], key: &[(&str, &str)]) -> Result<&'a Row, String> {
    let is = |r: &Row, (f, v): (&str, &str)| {
        r.text(f) == Ok(v) || r.u64(f).is_ok_and(|n| n.to_string() == v)
    };
    let hit = rows.iter().find(|r| key.iter().all(|&kv| is(r, kv)));
    hit.ok_or_else(|| format!("no row with {key:?}"))
}

/// A row producer: runs its cases, pushes their rows, and fails with a
/// message where an assertion over its own rows fails.
pub type Cases = fn(&Args, &mut Rows) -> Result<(), String>;

/// What one gate binary declares; [`run`] does the rest.
pub struct Suite {
    /// The committed file, relative to the repository root.
    pub file: &'static str,
    /// Extra `--flag VALUE` arguments the cases read through [`Args`].
    pub flags: &'static [&'static str],
    /// `--quick`: the PR smoke and its assertion.
    pub quick: Cases,
    /// `--check`: the rows cheap enough to re-derive on every run.
    pub cheap: Cases,
    /// No flag: every row of the file, in file order.
    pub full: Cases,
    /// The headline gate. `Ok` carries the summary printed in the final
    /// line, `Err` the reason the rows fail.
    pub gate: fn(&[Row]) -> Result<String, String>,
}

fn render(rows: &[Row]) -> String {
    let rows: Arr = rows.iter().map(Row::to_json).collect();
    rows.finish_lines() + "\n"
}

fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let items = doc.as_array().ok_or("not a JSON array of rows")?;
    items
        .iter()
        .map(|item| match item {
            JsonValue::Obj(_) => Ok(Row(item.clone())),
            _ => Err(format!("not a row: {}", json::write(item))),
        })
        .collect()
}

/// `--check` on in-memory text: every fresh row is a committed row, and
/// the committed rows pass the gate.
fn check(suite: &Suite, committed: &str, fresh: &[Row]) -> Result<String, String> {
    let file = suite.file;
    let rows = parse_rows(committed).map_err(|e| format!("{file}: {e}"))?;
    match fresh.iter().find(|row| !rows.contains(row)) {
        Some(row) => Err(format!(
            "row drifted from committed {file}:\n{}",
            row.to_json()
        )),
        None => (suite.gate)(&rows),
    }
}

/// Drive one suite from the process's command line.
pub fn run(suite: &Suite) -> ExitCode {
    let args = Args::from_env(&["--quick", "--check"], suite.flags);
    match drive(suite, &args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}

fn drive(suite: &Suite, args: &Args) -> Result<String, String> {
    let file = suite.file;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let mut out = Rows {
        rows: Vec::new(),
        last: Instant::now(),
    };
    if args.has("--quick") {
        (suite.quick)(args, &mut out)?;
        return Ok("quick gate passed".to_string());
    }
    if args.has("--check") {
        let committed =
            std::fs::read_to_string(&path).map_err(|e| format!("{file} not committed: {e}"))?;
        (suite.cheap)(args, &mut out)?;
        let summary = check(suite, &committed, &out.rows)?;
        return Ok(format!("check gate passed ({summary})"));
    }
    (suite.full)(args, &mut out)?;
    let summary = (suite.gate)(&out.rows)?;
    std::fs::write(&path, render(&out.rows)).map_err(|e| format!("write {file}: {e}"))?;
    let n = out.rows.len();
    Ok(format!("wrote {n} rows to {file}; gate passed ({summary})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_cases(_: &Args, _: &mut Rows) -> Result<(), String> {
        Ok(())
    }

    /// A suite whose gate is the shape every real one has: find a pair of
    /// rows, compare a float ratio against a slack.
    fn suite(file: &'static str) -> Suite {
        Suite {
            file,
            flags: &["--out"],
            quick: no_cases,
            cheap: no_cases,
            full: no_cases,
            gate: |rows| {
                let find = |side: &str| rows.iter().find(|r| r.text("side") == Ok(side));
                let (Some(base), Some(new)) = (find("base"), find("new")) else {
                    return Ok("no pair".into());
                };
                if new.f64("t")? <= base.f64("t")? * 1.02 {
                    Ok(format!("{} rows", rows.len()))
                } else {
                    Err("slower".into())
                }
            },
        }
    }

    fn committed(file: &str) -> String {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        std::fs::read_to_string(path).expect("committed BENCH file")
    }

    #[test]
    fn committed_files_round_trip_byte_for_byte() {
        for file in [
            "BENCH_scaling.json",
            "BENCH_blr.json",
            "BENCH_fleet.json",
            "BENCH_telemetry.json",
            "results/scaling.json",
            "results/taxonomy.json",
            "results/ablation.json",
        ] {
            let text = committed(file);
            let rows = parse_rows(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!rows.is_empty(), "{file}");
            assert_eq!(render(&rows), text, "{file}");
        }
    }

    #[test]
    fn every_encoding_reads_back_what_was_written() {
        let row = Row::from(
            Obj::new()
                .str("matrix", "boneS10 (bone_like)")
                .u64("p", 256)
                .str("makespan", &sci(0.1 + 0.2))
                .str("tiny", &sci(f64::MIN_POSITIVE / 8.0))
                .bool("plan_hit", false),
        );
        assert_eq!(
            row.to_json(),
            "{\"matrix\":\"boneS10 (bone_like)\",\"p\":256,\
             \"makespan\":\"3.00000000000000044e-1\",\
             \"tiny\":\"2.78134232313400173e-309\",\"plan_hit\":false}"
        );
        assert_eq!(row.text("matrix"), Ok("boneS10 (bone_like)"));
        assert_eq!(row.u64("p"), Ok(256));
        assert_eq!(
            row.f64("makespan").map(f64::to_bits),
            Ok((0.1f64 + 0.2).to_bits())
        );
        assert_eq!(row.f64("tiny"), Ok(f64::MIN_POSITIVE / 8.0));
        assert!(row.u64("matrix").unwrap_err().contains("\"matrix\""));
        let rows = parse_rows(r#"[{"jobs":-4,"share":1.5}]"#).unwrap();
        assert!(rows[0].u64("jobs").unwrap_err().contains("\"jobs\""));
        assert!(rows[0].u64("share").is_err());
        assert!(row.f64("matrix").unwrap_err().contains("not a number"));
        assert!(row.text("absent").is_err());
    }

    #[test]
    #[should_panic(expected = "does not survive the reader")]
    fn an_integer_the_reader_would_round_is_refused() {
        let _ = Row::from(Obj::new().u64("bytes", (1 << 53) + 1));
    }

    #[test]
    fn only_an_array_of_objects_is_a_row_file() {
        for bad in ["{}", "[1]", "[{\"a\":1},[]]", "[{\"a\":1}"] {
            assert!(parse_rows(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn check_names_the_cheap_row_that_drifted() {
        let suite = suite("BENCH_telemetry.json");
        let text = committed(suite.file);
        let rows = parse_rows(&text).unwrap();
        let cheap = &rows[..4];
        assert_eq!(check(&suite, &text, cheap), Ok("no pair".into()));

        // One digit of one cheap row: 12180 snapshot bytes become 12181.
        let bytes = cheap[3].u64("snapshot_bytes").unwrap();
        let drifted = parse_rows(&render(cheap).replace(
            &format!("\"snapshot_bytes\":{bytes},"),
            &format!("\"snapshot_bytes\":{},", bytes + 1),
        ))
        .unwrap();
        assert_eq!(drifted[..3], cheap[..3]);
        let err = check(&suite, &text, &drifted).unwrap_err();
        assert!(err.contains("BENCH_telemetry.json"), "{err}");
        assert!(err.ends_with(&drifted[3].to_json()), "{err}");
    }

    #[test]
    fn gate_verdict_is_the_same_on_fresh_and_reparsed_rows() {
        let suite = suite("BENCH_none.json");
        let base: f64 = 0.1 + 0.2;
        // On the slack exactly, one ulp over it, and far from it.
        let edge = base * 1.02;
        for (t, passes) in [
            (edge, true),
            (f64::from_bits(edge.to_bits() + 1), false),
            (base / 3.0, true),
            (base * 3.0, false),
        ] {
            let rows = [
                Row::from(Obj::new().str("side", "base").str("t", &sci(base))),
                Row::from(Obj::new().str("side", "new").str("t", &sci(t)).u64("n", 7)),
            ];
            let fresh = (suite.gate)(&rows);
            assert_eq!(fresh.is_ok(), passes, "{t:e}");
            let reparsed = parse_rows(&render(&rows)).unwrap();
            assert_eq!(reparsed, rows);
            assert_eq!((suite.gate)(&reparsed), fresh);
        }
    }

    #[test]
    fn only_declared_arguments_parse() {
        let parse = |argv: &[&str]| {
            let argv = argv.iter().map(|a| a.to_string());
            Args::parse(argv, &["--quick", "--check"], &["--out"])
        };
        let args = parse(&["--check", "--out", "x.json"]).unwrap();
        assert!(args.has("--check") && !args.has("--quick"));
        assert_eq!(args.value("--out"), Some("x.json"));
        assert_eq!(parse(&[]).unwrap().value("--out"), None);
        for bad in [
            &["--chek"][..],
            &["--check", "extra"],
            &["--out"],
            &["--json", "x"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
