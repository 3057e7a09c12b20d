//! The public-surface audit (ROADMAP item 7): `pub` means *called from
//! outside the file by code that ships*, or allow-listed with a reason.
//!
//! The audit reads every library file under `crates/*/src` (not `src/bin`),
//! lists its `pub fn / struct / enum / trait / const / type / static` items
//! and fails unless each one is **live** — its name occurs in the non-test
//! code of another library file, a `src/bin` program, an `examples/` program
//! or `perf/src` — or is named in `tests/pub_surface.allow`. A file other
//! than the item's own must name it: a call in the defining file does not
//! count, nor does a same-named `fn` defined elsewhere. A type is also
//! live when its own file names it in another item's signature or field:
//! callers reach it through that item without writing its name. Comments,
//! string literals, `pub use` re-exports, `#[cfg(test)]` items and the name
//! after `fn` are not references; `tests/` and `crates/*/tests` are test
//! code and are never read.
//! The match is by identifier, so a common name (`len`) is live whenever
//! anything of that name is called: the audit under-reports, it never
//! reports a called item.
//!
//! Everything that is *not* `pub` is rustc's business: `pub(crate)` and
//! private items are covered by the `dead_code` lint CI runs with
//! `-D warnings`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs;
use std::path::Path;

/// Why a `pub` item with no shipping caller may stay. `api` additionally
/// needs a rustdoc example (a fenced block in a doc comment) that names the
/// item; a user-facing item no example exercises is deleted instead.
const REASONS: [&str; 4] = ["oracle", "test-constructor", "test-accessor", "api"];

/// The allow-list is a debt register, not a second surface.
const MAX_ALLOWED: usize = 70;

const ALLOW_FILE: &str = "tests/pub_surface.allow";

/// One source file as the audit sees it.
struct Source {
    /// Path relative to the repository root, `/`-separated.
    path: String,
    /// Library files define the audited items; every file is a caller.
    library: bool,
    text: String,
}

#[derive(Debug, PartialEq)]
struct Item {
    /// `Type::method` inside an `impl`, the bare name otherwise.
    name: String,
    line: usize,
    /// A type that its own file names outside the type's definition and
    /// `impl` blocks — in the signature of a function, the field of another
    /// type. Callers reach such a type through that item without ever
    /// writing its name, so it is live where it stands.
    in_signature: bool,
}

// ----- source → code that can reference something -----

/// Blank out (with spaces, keeping every newline so line numbers survive)
/// comments, string and character literals.
fn strip_comments_and_literals(src: &str) -> Vec<u8> {
    let mut out = src.as_bytes().to_vec();
    let mut i = 0;
    while i < out.len() {
        let Some(end) = comment_or_literal_end(src, i) else {
            i += 1;
            continue;
        };
        for c in &mut out[i..end] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        i = end;
    }
    out
}

/// End (exclusive) of the comment or literal that starts at byte `i`, if one
/// does.
fn comment_or_literal_end(src: &str, i: usize) -> Option<usize> {
    let b = src.as_bytes();
    let find = |from: usize, pat: &[u8]| {
        let at = (from..b.len()).find(|&k| b[k..].starts_with(pat));
        at.map_or(b.len(), |k| k + pat.len())
    };
    match b[i] {
        b'/' if b[i..].starts_with(b"//") => {
            Some((i..b.len()).find(|&k| b[k] == b'\n').unwrap_or(b.len()))
        }
        b'/' if b[i..].starts_with(b"/*") => {
            let (mut depth, mut k) = (0usize, i);
            while k < b.len() {
                if b[k..].starts_with(b"/*") {
                    depth += 1;
                    k += 2;
                } else if b[k..].starts_with(b"*/") {
                    depth -= 1;
                    k += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    k += 1;
                }
            }
            Some(k)
        }
        b'"' => {
            let mut k = i + 1;
            while k < b.len() && b[k] != b'"' {
                k += if b[k] == b'\\' { 2 } else { 1 };
            }
            Some((k + 1).min(b.len()))
        }
        // r"..", r#".."#, br"..": only when the letter starts a token.
        b'r' | b'b' if i == 0 || !is_ident_byte(b[i - 1]) => {
            let r = i + usize::from(b[i] == b'b');
            let hashes = b.get(r + 1..)?.iter().take_while(|&&c| c == b'#').count();
            if b.get(r) != Some(&b'r') || b.get(r + 1 + hashes) != Some(&b'"') {
                return None;
            }
            let mut close = vec![b'"'];
            close.resize(1 + hashes, b'#');
            Some(find(r + 2 + hashes, &close))
        }
        // A character literal ('x', '\n', '\''); any other quote opens a
        // lifetime, which stays.
        b'\'' if b.get(i + 1) == Some(&b'\\') => Some(find(i + 3, b"'")),
        b'\'' => {
            let c = src.get(i + 1..)?.chars().next()?;
            let end = i + 1 + c.len_utf8();
            (b.get(end) == Some(&b'\'')).then_some(end + 1)
        }
        _ => None,
    }
}

fn is_ident_byte(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Punct(u8),
}

/// Identifiers and single punctuation bytes with their 1-based line;
/// lifetimes are dropped (a lifetime `'a` is not a reference to an item `a`).
fn lex(code: &[u8]) -> Vec<(Tok, usize)> {
    let mut toks = Vec::new();
    let (mut i, mut line) = (0, 1);
    while i < code.len() {
        let c = code[i];
        if c == b'\n' {
            line += 1;
        }
        if is_ident_byte(c) || c == b'\'' {
            let lifetime = c == b'\'';
            let start = i + lifetime as usize;
            i = start;
            while i < code.len() && is_ident_byte(code[i]) {
                i += 1;
            }
            let word = &code[start..i];
            if !lifetime && !word[0].is_ascii_digit() {
                let word = String::from_utf8_lossy(word).into_owned();
                toks.push((Tok::Ident(word), line));
            }
            continue;
        }
        if !c.is_ascii_whitespace() {
            toks.push((Tok::Punct(c), line));
        }
        i += 1;
    }
    toks
}

fn ident(toks: &[(Tok, usize)], i: usize) -> Option<&str> {
    match toks.get(i) {
        Some((Tok::Ident(s), _)) => Some(s),
        _ => None,
    }
}

fn punct(toks: &[(Tok, usize)], i: usize) -> Option<u8> {
    match toks.get(i) {
        Some((Tok::Punct(c), _)) => Some(*c),
        _ => None,
    }
}

/// Index one past the `close` that matches the first `open` at or after
/// token `i`.
fn matching(toks: &[(Tok, usize)], mut i: usize, open: u8, close: u8) -> usize {
    let mut depth = 0usize;
    while i < toks.len() {
        let p = punct(toks, i);
        i += 1;
        if p == Some(open) {
            depth += 1;
        } else if p == Some(close) && depth > 0 {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
    }
    i
}

/// Index one past the item that starts at token `i`: through the first `;`,
/// or through the `}` matching the first `{`.
fn item_end(toks: &[(Tok, usize)], mut i: usize) -> usize {
    while i < toks.len() && !matches!(punct(toks, i), Some(b';' | b'{')) {
        i += 1;
    }
    if punct(toks, i) == Some(b'{') {
        matching(toks, i, b'{', b'}')
    } else {
        (i + 1).min(toks.len())
    }
}

/// The tokens of `src` that can define or reference an item: no comments,
/// no literals, no `#[cfg(test)]` item, no `pub use` re-export.
fn shipping_tokens(src: &str) -> Vec<(Tok, usize)> {
    let toks = lex(&strip_comments_and_literals(src));
    let mut keep = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        let cfg_test = punct(&toks, i) == Some(b'#')
            && punct(&toks, i + 1) == Some(b'[')
            && ident(&toks, i + 2) == Some("cfg")
            && punct(&toks, i + 3) == Some(b'(')
            && ident(&toks, i + 4) == Some("test")
            && punct(&toks, i + 5) == Some(b')');
        if cfg_test {
            while punct(&toks, i) == Some(b'#') {
                i = matching(&toks, i, b'[', b']');
            }
            i = item_end(&toks, i);
            continue;
        }
        if ident(&toks, i) == Some("pub") {
            // `pub use` and `pub(crate) use` alike.
            let after_vis = if punct(&toks, i + 1) == Some(b'(') {
                matching(&toks, i + 1, b'(', b')')
            } else {
                i + 1
            };
            if ident(&toks, after_vis) == Some("use") {
                i = item_end(&toks, after_vis);
                continue;
            }
        }
        keep.push(toks[i].clone());
        i += 1;
    }
    keep
}

// ----- the items a library file declares `pub` -----

/// Self type of the `impl` whose keyword is token `i`, and the index of its
/// opening brace.
fn impl_header(toks: &[(Tok, usize)], i: usize) -> (String, usize) {
    let mut open = i + 1;
    while open < toks.len() && punct(toks, open) != Some(b'{') {
        open += 1;
    }
    let mut end = open;
    if let Some(w) = (i + 1..open).find(|&k| ident(toks, k) == Some("where")) {
        end = w;
    }
    // Walk back over the self type's generic arguments to its name.
    let mut angle = 0usize;
    let mut k = end;
    while k > i + 1 {
        k -= 1;
        match toks[k].0 {
            Tok::Punct(b'>') => angle += 1,
            Tok::Punct(b'<') => angle = angle.saturating_sub(1),
            Tok::Ident(ref s) if angle == 0 => return (s.clone(), open),
            _ => {}
        }
    }
    ("?".to_string(), open)
}

/// Every `pub` item (exactly `pub`: `pub(crate)` and narrower belong to
/// rustc's `dead_code`) except constructors named `new` / `default`, which
/// every type may have. Trait-impl methods carry no `pub` and are never
/// listed.
fn pub_items(toks: &[(Tok, usize)]) -> Vec<Item> {
    const TYPES: [&str; 5] = ["struct", "enum", "trait", "type", "union"];
    const VALUES: [&str; 3] = ["fn", "const", "static"];
    const QUALIFIERS: [&str; 3] = ["unsafe", "async", "extern"];
    let mut items: Vec<Item> = Vec::new();
    // Token ranges of the listed types' definitions, by index into `items`.
    let mut type_defs: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    // Identifier tokens outside any `impl` of the type they name.
    let mut mentions: Vec<(&str, usize)> = Vec::new();
    // (depth the impl was opened at, self type)
    let mut impls: Vec<(usize, String)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < toks.len() {
        if let Some(w) = ident(toks, i) {
            if impls.last().is_none_or(|(_, ty)| ty != w) {
                mentions.push((w, i));
            }
        }
        match &toks[i].0 {
            Tok::Punct(b'{') => depth += 1,
            Tok::Punct(b'}') => {
                depth = depth.saturating_sub(1);
                if impls.last().is_some_and(|(d, _)| *d == depth) {
                    impls.pop();
                }
            }
            // An `impl` block, not `impl Trait` in type position: it follows
            // the end of an item, an attribute, a block opening or `unsafe`.
            Tok::Ident(w)
                if w == "impl"
                    && (i == 0
                        || matches!(punct(toks, i - 1), Some(b'}' | b';' | b']' | b'{'))
                        || ident(toks, i - 1) == Some("unsafe")) =>
            {
                let (ty, open) = impl_header(toks, i);
                impls.push((depth, ty));
                depth += 1;
                i = open + 1;
                continue;
            }
            Tok::Ident(w) if w == "pub" && punct(toks, i + 1) != Some(b'(') => {
                let mut j = i + 1;
                while let Some(w) = ident(toks, j) {
                    let qualifier = QUALIFIERS.contains(&w)
                        || (w == "const"
                            && ident(toks, j + 1)
                                .is_some_and(|n| n == "fn" || QUALIFIERS.contains(&n)));
                    if !qualifier {
                        break;
                    }
                    j += 1;
                }
                let kind = ident(toks, j).filter(|k| TYPES.contains(k) || VALUES.contains(k));
                if let Some(kind) = kind {
                    if ident(toks, j + 1) == Some("mut") {
                        j += 1;
                    }
                    if let Some(name) = ident(toks, j + 1) {
                        if name != "new" && name != "default" {
                            if TYPES.contains(&kind) {
                                type_defs.push((items.len(), j + 1..item_end(toks, j + 1)));
                            }
                            let name = match impls.last() {
                                Some((_, ty)) => format!("{ty}::{name}"),
                                None => name.to_string(),
                            };
                            items.push(Item {
                                name,
                                line: toks[j + 1].1,
                                in_signature: false,
                            });
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    for (item, def) in type_defs {
        let name = bare(&items[item].name);
        items[item].in_signature = mentions
            .iter()
            .any(|&(w, at)| w == name && !def.contains(&at));
    }
    items
}

/// `method` of `Type::method`.
fn bare(name: &str) -> &str {
    name.rsplit("::").next().expect("rsplit yields one piece")
}

/// Identifiers the fenced blocks of doc comments refer to — what rustdoc
/// compiles and runs as examples.
fn doc_example_idents(src: &str) -> HashSet<String> {
    // rustdoc compiles a block unless its info string names another language.
    const RUST: [&str; 5] = ["rust", "no_run", "should_panic", "ignore", "compile_fail"];
    let mut code = String::new();
    // Inside a fenced block, and whether that block is Rust.
    let mut block: Option<bool> = None;
    for line in src.lines() {
        let line = line.trim_start();
        let Some(doc) = line
            .strip_prefix("///")
            .or_else(|| line.strip_prefix("//!"))
        else {
            block = None;
            continue;
        };
        if let Some(info) = doc.trim().strip_prefix("```") {
            block = match block {
                Some(_) => None,
                None => Some(info.split(',').all(|t| t.is_empty() || RUST.contains(&t))),
            };
        } else if block == Some(true) {
            code.push_str(doc);
            code.push('\n');
        }
    }
    references(&lex(&strip_comments_and_literals(&code)))
}

/// The identifiers of `toks` that refer to an item: every one except a name
/// right after `fn`, which defines a function rather than calling one.
fn references(toks: &[(Tok, usize)]) -> HashSet<String> {
    let mut out = HashSet::new();
    for (i, (t, _)) in toks.iter().enumerate() {
        if let Tok::Ident(s) = t {
            if i == 0 || ident(toks, i - 1) != Some("fn") {
                out.insert(s.clone());
            }
        }
    }
    out
}

// ----- the audit -----

/// Every violation, one line each; empty means the surface is honest.
fn audit(sources: &[Source], allow: &str) -> Vec<String> {
    let tokens: Vec<_> = sources.iter().map(|s| shipping_tokens(&s.text)).collect();
    // identifier → the files whose shipping code refers to it
    let mut files_naming: HashMap<String, Vec<usize>> = HashMap::new();
    for (f, toks) in tokens.iter().enumerate() {
        for id in references(toks) {
            files_naming.entry(id).or_default().push(f);
        }
    }
    let mut doc_examples = HashSet::new();
    for s in sources.iter().filter(|s| s.library) {
        doc_examples.extend(doc_example_idents(&s.text));
    }
    // (path, qualified name) → (line, live): live when a file other than
    // the defining one refers to the item.
    let mut items: BTreeMap<(String, String), (usize, bool)> = BTreeMap::new();
    for (f, (s, toks)) in sources.iter().zip(&tokens).enumerate() {
        if !s.library {
            continue;
        }
        for item in pub_items(toks) {
            let live = item.in_signature
                || files_naming
                    .get(bare(&item.name))
                    .is_some_and(|files| files.iter().any(|&g| g != f));
            items
                .entry((s.path.clone(), item.name))
                .or_insert((item.line, live));
        }
    }

    let mut problems = Vec::new();
    let mut allowed: HashSet<(String, String)> = HashSet::new();
    for (n, line) in allow.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = format!("{ALLOW_FILE}:{}", n + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [path, name, reason] = fields[..] else {
            problems.push(format!(
                "{at}: expected `<file> <item> <reason>`, got `{line}`"
            ));
            continue;
        };
        if !REASONS.contains(&reason) {
            problems.push(format!(
                "{at}: {path} {name}: reason `{reason}` is not one of {REASONS:?}"
            ));
        }
        let key = (path.to_string(), name.to_string());
        match items.get(&key) {
            None => problems.push(format!(
                "{at}: {path} {name}: stale entry, no such `pub` item"
            )),
            Some((_, true)) => problems.push(format!(
                "{at}: {path} {name}: stale entry, the item now has a shipping caller"
            )),
            Some((_, false)) => {
                if reason == "api" && !doc_examples.contains(bare(name)) {
                    problems.push(format!(
                        "{at}: {path} {name}: reason `api` needs a rustdoc example that calls it"
                    ));
                }
            }
        }
        if !allowed.insert(key) {
            problems.push(format!("{at}: {path} {name}: listed twice"));
        }
    }
    if allowed.len() > MAX_ALLOWED {
        problems.push(format!(
            "{ALLOW_FILE}: {} entries, the cap is {MAX_ALLOWED}",
            allowed.len()
        ));
    }
    for (key @ (path, name), (line, live)) in &items {
        if !live && !allowed.contains(key) {
            problems.push(format!(
                "{path}:{line}: `{name}` is `pub` but nothing that ships calls it from outside \
                 its file: delete it, narrow it to `pub(crate)`, or list it in {ALLOW_FILE}"
            ));
        }
    }
    problems
}

// ----- reading the repository -----

/// `crates/*/src` holds the library files, except the programs in `src/bin`.
fn source(path: &str, text: &str) -> Source {
    Source {
        path: path.to_string(),
        library: path.starts_with("crates/") && !path.contains("/src/bin/"),
        text: text.to_string(),
    }
}

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
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

fn repository_sources(root: &Path) -> Vec<Source> {
    let mut files = Vec::new();
    let mut crates: Vec<_> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("readable directory entry").path())
        .collect();
    crates.sort();
    for krate in crates {
        rust_files(&krate.join("src"), &mut files);
    }
    rust_files(&root.join("examples"), &mut files);
    rust_files(&root.join("perf/src"), &mut files);
    files.sort();
    files
        .into_iter()
        .map(|file| {
            let rel = file.strip_prefix(root).expect("walked from the root");
            let path = rel.to_string_lossy().replace('\\', "/");
            source(
                &path,
                &fs::read_to_string(&file).expect("source file is UTF-8"),
            )
        })
        .collect()
}

#[test]
fn every_pub_item_has_a_shipping_caller_or_a_listed_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = repository_sources(&root);
    assert!(
        sources.iter().filter(|s| s.library).count() > 50,
        "the walk found the workspace"
    );
    let allow = fs::read_to_string(root.join(ALLOW_FILE)).expect("allow-list exists");
    let problems = audit(&sources, &allow);
    assert!(
        problems.is_empty(),
        "{} public-surface problem(s):\n{}",
        problems.len(),
        problems.join("\n")
    );
}

// ----- the audit, audited -----

const PLANTED: &str = "pub struct Rank;\nimpl Rank {\n    pub fn rput(&self) {}\n}\n";

#[test]
fn a_planted_pub_fn_with_no_caller_is_reported_with_its_path_and_name() {
    let user = source("crates/b/src/lib.rs", "fn f(r: &a::Rank) {}");
    let problems = audit(&[source("crates/a/src/rank.rs", PLANTED), user], "");
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(problems[0].starts_with("crates/a/src/rank.rs:3: `Rank::rput`"));
}

#[test]
fn two_same_named_definitions_do_not_call_each_other() {
    let sources = [
        source("crates/a/src/rank.rs", PLANTED),
        source(
            "crates/b/src/team.rs",
            "pub fn rput() {}
fn f(r: Rank) {}",
        ),
    ];
    let problems = audit(&sources, "");
    assert_eq!(problems.len(), 2, "{problems:?}");
    assert!(problems[0].starts_with("crates/a/src/rank.rs:3: `Rank::rput`"));
    assert!(problems[1].starts_with("crates/b/src/team.rs:1: `rput`"));
}

#[test]
fn comments_strings_re_exports_and_test_modules_are_not_callers() {
    let not_callers = [
        "// rput is great\n/* rput */\n/// [`Rank::rput`]\nfn f(r: Rank) {}",
        "fn f(r: Rank) -> &'static str { \"rput\" }\nconst C: char = 'r';\nfn g() -> &'static str { r#\"rput \"# }",
        "pub use a::rank::{Rank, rput};\npub(crate) use a::rput;\nfn f(r: Rank) {}",
        "fn f(r: Rank) {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { { r.rput() } }\n}",
        "fn f(r: Rank) {}\n#[cfg(test)]\n#[allow(unused)]\nfn helper(r: Rank) { r.rput() }",
        "fn f<'rput>(r: &'rput Rank) {}",
    ];
    for text in not_callers {
        let sources = [
            source("crates/a/src/rank.rs", PLANTED),
            source("crates/b/src/lib.rs", text),
        ];
        let problems = audit(&sources, "");
        assert_eq!(problems.len(), 1, "{text:?} → {problems:?}");
        assert!(problems[0].contains("`Rank::rput`"), "{problems:?}");
    }
}

#[test]
fn library_files_bins_examples_and_perf_are_callers() {
    for path in [
        "crates/b/src/engine.rs",
        "crates/b/src/bin/tool.rs",
        "examples/quickstart.rs",
        "perf/src/suite.rs",
    ] {
        let text = "fn main() { let r = Rank; r.rput(); }";
        let sources = [source("crates/a/src/rank.rs", PLANTED), source(path, text)];
        let problems = audit(&sources, "");
        assert!(problems.is_empty(), "{path}: {problems:?}");
    }
}

#[test]
fn a_call_from_the_defining_file_alone_does_not_keep_an_item_pub() {
    let text = format!("{PLANTED}fn f(r: Rank) {{ r.rput() }}");
    let user = source("crates/b/src/lib.rs", "fn f(r: Rank) {}");
    let problems = audit(&[source("crates/a/src/rank.rs", &text), user], "");
    assert_eq!(problems.len(), 1, "{problems:?}");
}

#[test]
fn an_allow_listed_item_passes_and_a_stale_or_malformed_entry_is_named() {
    let sources = |user: &str| {
        [
            source("crates/a/src/rank.rs", PLANTED),
            source("crates/b/src/lib.rs", user),
        ]
    };
    let entry = "# survivors\ncrates/a/src/rank.rs Rank::rput test-accessor\n";
    assert!(audit(&sources("fn f(r: Rank) {}"), entry).is_empty());

    // The item is gone.
    let gone = audit(
        &sources("fn f(r: Rank) {}"),
        "crates/a/src/rank.rs Rank::rget oracle\n",
    );
    assert!(gone
        .iter()
        .any(|p| p.contains("Rank::rget: stale entry, no such")));
    // The item is live now.
    let live = audit(&sources("fn f(r: Rank) { r.rput() }"), entry);
    assert_eq!(live.len(), 1, "{live:?}");
    assert!(live[0].starts_with("tests/pub_surface.allow:2: crates/a/src/rank.rs Rank::rput"));
    assert!(live[0].contains("now has a shipping caller"));
    // A reason outside the vocabulary, a short line, a duplicate.
    let bad = "crates/a/src/rank.rs Rank::rput handy\n";
    assert!(audit(&sources("fn f(r: Rank) {}"), bad)[0].contains("reason `handy`"));
    let short = "crates/a/src/rank.rs Rank::rput\n";
    assert!(audit(&sources("fn f(r: Rank) {}"), short)[0].contains("expected `<file> <item>"));
    let twice = format!("{entry}{entry}");
    assert!(audit(&sources("fn f(r: Rank) {}"), &twice)[0].contains("listed twice"));
}

#[test]
fn reason_api_needs_a_rustdoc_example_that_calls_the_item() {
    let user = source("crates/b/src/lib.rs", "fn f(r: Rank) {}");
    let entry = "crates/a/src/rank.rs Rank::rput api\n";
    let bare = audit(&[source("crates/a/src/rank.rs", PLANTED), user], entry);
    assert_eq!(bare.len(), 1, "{bare:?}");
    assert!(bare[0].contains("needs a rustdoc example"));

    let documented = format!("//! ```no_run\n//! rank.rput();\n//! ```\n{PLANTED}");
    let user = source("crates/b/src/lib.rs", "fn f(r: Rank) {}");
    let sources = [source("crates/a/src/rank.rs", &documented), user];
    assert!(audit(&sources, entry).is_empty());
    // Prose fences are not examples, nor is what follows them.
    let prose = format!("//! ```text\n//! rank.rput();\n//! ```\n//! rput\n{PLANTED}");
    let user = source("crates/b/src/lib.rs", "fn f(r: Rank) {}");
    let sources = [source("crates/a/src/rank.rs", &prose), user];
    assert_eq!(audit(&sources, entry).len(), 1);
}

#[test]
fn the_allow_list_is_capped() {
    let mut text = String::new();
    let mut allow = String::new();
    for k in 0..=MAX_ALLOWED {
        text.push_str(&format!("pub fn probe_{k}() {{}}\n"));
        allow.push_str(&format!("crates/a/src/lib.rs probe_{k} test-accessor\n"));
    }
    let problems = audit(&[source("crates/a/src/lib.rs", &text)], &allow);
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(problems[0].contains("the cap is 70"));
}

#[test]
fn item_listing_knows_kinds_qualifiers_impls_and_what_to_skip() {
    let text = r#"
pub struct Mat<T> { pub rows: usize, t: T }
pub(crate) struct Hidden;
pub enum Kind { A }
pub trait Engine { fn exec(&self); }
pub const LIMIT: usize = 3;
pub static mut COUNTER: usize = 0;
pub type Payload = Vec<f64>;
pub mod inner {}
impl<T: Clone> Mat<T> where T: Copy {
    pub fn new() -> Self { todo!() }
    pub const fn rows(&self) -> usize { if self.rows > 0 { 1 } else { 0 } }
    pub unsafe fn raw(&self) {}
    pub(crate) fn narrowed(&self) {}
    fn private(&self, f: impl Fn()) -> impl Iterator<Item = u8> { todo!() }
}
impl<T> Default for Mat<T> {
    fn default() -> Self { todo!() }
}
impl Engine for Kind {
    fn exec(&self) {}
}
pub fn free<F: Fn() -> usize>(f: F) {}
"#;
    let names: Vec<String> = pub_items(&shipping_tokens(text))
        .into_iter()
        .map(|i| i.name)
        .collect();
    assert_eq!(
        names,
        [
            "Mat",
            "Kind",
            "Engine",
            "LIMIT",
            "COUNTER",
            "Payload",
            "Mat::rows",
            "Mat::raw",
            "free"
        ]
    );
}
