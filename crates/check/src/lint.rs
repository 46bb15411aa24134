//! Repo-invariant linter: a token-level scanner (no `syn`, no external
//! dependencies) enforcing the workspace's safety contracts on its own
//! source tree. Run via the `fibcheck` binary or [`run`].
//!
//! Rules (stable kebab-case codes, one per [`Finding::rule`]):
//!
//! * `unsafe-allowlist` — the `unsafe` keyword may appear only in the
//!   two modules whose whole purpose is the unsafe boundary:
//!   `crates/succinct/src/storage.rs`, `crates/router/src/snapcell.rs`.
//! * `ordering-justification` — every `Ordering::{SeqCst,AcqRel,Acquire,
//!   Release,Relaxed}` use in `crates/router/src` non-test code must
//!   carry a `// ordering:` comment on the same line or within the few
//!   lines above it, saying *why that strength*.
//! * `hot-path-purity` — no panic-family macro, `unwrap`/`expect`, or
//!   allocation in any function reachable (name-based call graph) from
//!   the packet-path entry points `lookup_batch`/`lookup_stream` inside
//!   `crates/{core,succinct,trie}`. `#[cold]` functions are exempt (they
//!   are the designated out-of-line error paths), as is any line
//!   carrying `// fibcheck: allow(hot-path)` with a stated reason.
//! * `deny-unsafe-missing` — every crate root carries
//!   `#![deny(unsafe_code)]` or `#![forbid(unsafe_code)]`.
//!
//! The scanner strips comments and string/char literals (preserving line
//! structure) before tokenizing, so prose about `unsafe` never trips the
//! keyword rules.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Stable kebab-case rule code.
    pub rule: &'static str,
    /// What was found.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Modules allowed to contain the `unsafe` keyword.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/succinct/src/storage.rs",
    "crates/router/src/snapcell.rs",
];

/// How many lines above an `Ordering::` use the `// ordering:`
/// justification may sit (it usually rides directly above the call).
const ORDERING_COMMENT_WINDOW: usize = 6;

/// Crates whose call graph is checked for hot-path purity.
const HOT_PATH_CRATES: &[&str] = &["crates/core/src", "crates/succinct/src", "crates/trie/src"];

/// Packet-path roots for the reachability pass.
const HOT_PATH_ROOTS: &[&str] = &["lookup_batch", "lookup_stream"];

/// Line marker suppressing `hot-path-purity` for one line.
const ALLOW_HOT_PATH: &str = "// fibcheck: allow(hot-path)";

/// Names that never form call-graph edges: they collide with ubiquitous
/// std methods (`Vec::new`, `Iterator::next`, …), so a name-based graph
/// would drag every local constructor into the "hot path" through one
/// `Vec::new()` in any reachable body. Build-time entry points named
/// like these are still scanned when *directly* reachable under another
/// name; the under-approximation is deliberate and documented.
const EDGE_STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "from",
    "into",
    "to_owned",
    "fmt",
    "drop",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "next",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "extend",
    "write",
    "read",
    "min",
    "max",
    "iter",
    "index",
    // Atomic accessors: `AtomicU64::load`/`store` on a packet path would
    // otherwise alias load-time entry points like `FibImage::load`.
    "load",
    "store",
];

// ---------------------------------------------------------------------
// Source model
// ---------------------------------------------------------------------

struct SourceFile {
    /// Repo-relative path with forward slashes.
    rel: String,
    /// Raw text (for comment-sensitive rules).
    raw: String,
    /// Comments and literal bodies blanked, line structure intact.
    code: String,
}

/// Replaces comment bodies and string/char literal contents with spaces,
/// keeping every newline so line numbers survive. Handles nested block
/// comments, raw strings, escapes, and the lifetime-vs-char ambiguity.
fn strip(source: &str) -> String {
    let b = source.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut i = 0;
    // Keep newlines everywhere.
    for (k, &c) in b.iter().enumerate() {
        if c == b'\n' {
            out[k] = b'\n';
        }
    }
    while i < b.len() {
        let c = b[i];
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == b'"' {
            out[i] = b'"';
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' {
                    i += 2;
                } else if b[i] == b'"' {
                    out[i] = b'"';
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
        } else if c == b'r' && i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') {
            // Raw string r"..." / r#"..."# (any hash depth).
            let mut j = i + 1;
            let mut hashes = 0;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == b'"' {
                out[i] = b'r';
                j += 1;
                'raw: while j < b.len() {
                    if b[j] == b'"' {
                        let mut k = j + 1;
                        let mut seen = 0;
                        while k < b.len() && b[k] == b'#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                i = j;
            } else {
                out[i] = c;
                i += 1;
            }
        } else if c == b'\'' {
            // Lifetime ('a) vs char literal ('a' / '\n').
            let is_char = if i + 1 < b.len() && b[i + 1] == b'\\' {
                true
            } else {
                i + 2 < b.len() && b[i + 2] == b'\''
            };
            if is_char {
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'\'' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
            } else {
                out[i] = c;
                i += 1;
            }
        } else {
            out[i] = c;
            i += 1;
        }
    }
    // The blanking above may have clobbered interior newlines of
    // comments/strings in `out` positions we skipped; restore them.
    for (k, &c) in b.iter().enumerate() {
        if c == b'\n' {
            out[k] = b'\n';
        }
    }
    String::from_utf8(out).expect("blanking preserves UTF-8 structure")
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Finds `needle` in `hay` at identifier boundaries, returning byte
/// offsets of every occurrence.
fn ident_positions(hay: &str, needle: &str) -> Vec<usize> {
    let hb = hay.as_bytes();
    let mut at = 0;
    let mut found = Vec::new();
    while let Some(pos) = hay[at..].find(needle) {
        let start = at + pos;
        let end = start + needle.len();
        let left_ok = start == 0 || !is_ident_byte(hb[start - 1]);
        let right_ok = end >= hb.len() || !is_ident_byte(hb[end]);
        if left_ok && right_ok {
            found.push(start);
        }
        at = start + needle.len().max(1);
    }
    found
}

fn line_of(source: &str, offset: usize) -> usize {
    source.as_bytes()[..offset]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

/// Byte ranges of `#[cfg(test)]`-gated items (the whole following
/// braced block), so test code escapes production-only rules.
fn test_mod_ranges(code: &str) -> Vec<(usize, usize)> {
    let b = code.as_bytes();
    let mut ranges = Vec::new();
    for start in ident_positions(code, "cfg") {
        // Match `#[cfg(test)]` allowing whitespace.
        let prefix_ok = code[..start].trim_end().ends_with("#[");
        let rest = code[start + 3..].trim_start();
        if !prefix_ok || !rest.starts_with("(test)") {
            continue;
        }
        // Find the opening brace of the gated item and its match.
        let mut i = start;
        while i < b.len() && b[i] != b'{' {
            if b[i] == b';' {
                // Gated declaration without a body (e.g. `mod tests;`).
                i = b.len();
                break;
            }
            i += 1;
        }
        if i >= b.len() {
            continue;
        }
        let open = i;
        let mut depth = 0usize;
        while i < b.len() {
            match b[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        ranges.push((open, i.min(b.len())));
    }
    ranges
}

fn in_ranges(ranges: &[(usize, usize)], pos: usize) -> bool {
    ranges.iter().any(|&(a, b)| pos >= a && pos <= b)
}

// ---------------------------------------------------------------------
// Function extraction (for the hot-path rule)
// ---------------------------------------------------------------------

struct FnDef {
    name: String,
    file_idx: usize,
    /// Byte range of the body in `code` (braces included).
    body: (usize, usize),
    cold: bool,
}

/// Extracts every `fn name(...) { ... }` with a body from stripped code.
fn extract_fns(files: &[SourceFile]) -> Vec<FnDef> {
    let mut defs = Vec::new();
    for (file_idx, sf) in files.iter().enumerate() {
        let code = &sf.code;
        let b = code.as_bytes();
        for fn_pos in ident_positions(code, "fn") {
            // Name follows.
            let mut i = fn_pos + 2;
            while i < b.len() && (b[i] as char).is_whitespace() {
                i += 1;
            }
            let name_start = i;
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            if i == name_start {
                continue;
            }
            let name = code[name_start..i].to_string();
            // Find body `{` before any `;` (skip generic bounds: track
            // angle depth loosely, brace wins).
            let mut j = i;
            let mut body_open = None;
            while j < b.len() {
                match b[j] {
                    b'{' => {
                        body_open = Some(j);
                        break;
                    }
                    b';' => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = body_open else { continue };
            let mut depth = 0usize;
            let mut k = open;
            while k < b.len() {
                match b[k] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            // #[cold] within the raw attribute lines right above.
            let fn_line = line_of(code, fn_pos);
            let raw_lines: Vec<&str> = sf.raw.lines().collect();
            let mut cold = false;
            let lo = fn_line.saturating_sub(6);
            for l in (lo..fn_line).rev() {
                let Some(text) = raw_lines.get(l.wrapping_sub(1)) else {
                    continue;
                };
                let t = text.trim();
                if t.contains("#[cold]") {
                    cold = true;
                    break;
                }
                // Stop at the first line that is not attribute/comment/
                // visibility noise — the attribute block is contiguous.
                if !(t.is_empty()
                    || t.starts_with("#[")
                    || t.starts_with("//")
                    || t.starts_with("#!["))
                {
                    break;
                }
            }
            defs.push(FnDef {
                name,
                file_idx,
                body: (open, k.min(b.len())),
                cold,
            });
        }
    }
    defs
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

fn rule_unsafe_allowlist(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for sf in files {
        if UNSAFE_ALLOWLIST.iter().any(|ok| sf.rel == *ok) {
            continue;
        }
        for pos in ident_positions(&sf.code, "unsafe") {
            findings.push(Finding {
                file: PathBuf::from(&sf.rel),
                line: line_of(&sf.code, pos),
                rule: "unsafe-allowlist",
                message: format!(
                    "`unsafe` outside the allowlisted modules ({})",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            });
        }
    }
}

fn rule_ordering_justification(files: &[SourceFile], findings: &mut Vec<Finding>) {
    const ORDERINGS: &[&str] = &["SeqCst", "AcqRel", "Acquire", "Release", "Relaxed"];
    for sf in files {
        if !sf.rel.starts_with("crates/router/src/") {
            continue;
        }
        let tests = test_mod_ranges(&sf.code);
        let raw_lines: Vec<&str> = sf.raw.lines().collect();
        for pos in ident_positions(&sf.code, "Ordering") {
            let rest = sf.code[pos + "Ordering".len()..].trim_start();
            let Some(variant) = ORDERINGS
                .iter()
                .find(|v| rest.starts_with("::") && rest[2..].trim_start().starts_with(**v))
            else {
                continue;
            };
            if in_ranges(&tests, pos) {
                continue;
            }
            let line = line_of(&sf.code, pos);
            // `use` lines import the names; only call sites choose.
            if raw_lines
                .get(line - 1)
                .is_some_and(|t| t.trim_start().starts_with("use "))
            {
                continue;
            }
            let lo = line.saturating_sub(ORDERING_COMMENT_WINDOW + 1);
            let justified = (lo..=line)
                .filter_map(|l| raw_lines.get(l.wrapping_sub(1)))
                .any(|t| t.contains("// ordering:"));
            if !justified {
                findings.push(Finding {
                    file: PathBuf::from(&sf.rel),
                    line,
                    rule: "ordering-justification",
                    message: format!(
                        "Ordering::{variant} without an `// ordering:` justification \
                         within {ORDERING_COMMENT_WINDOW} lines"
                    ),
                });
            }
        }
    }
}

fn rule_hot_path_purity(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let scoped: Vec<usize> = (0..files.len())
        .filter(|&i| HOT_PATH_CRATES.iter().any(|c| files[i].rel.starts_with(c)))
        .collect();
    let scoped_files: Vec<&SourceFile> = scoped.iter().map(|&i| &files[i]).collect();
    // Extract fns only from the scoped crates; exclude test-gated code.
    let all: Vec<SourceFile> = scoped_files
        .iter()
        .map(|sf| SourceFile {
            rel: sf.rel.clone(),
            raw: sf.raw.clone(),
            code: sf.code.clone(),
        })
        .collect();
    let mut defs = extract_fns(&all);
    for f in &all {
        let tests = test_mod_ranges(&f.code);
        defs.retain(|d| !(all[d.file_idx].rel == f.rel && in_ranges(&tests, d.body.0)));
    }
    // Name -> def indices (name collisions merge conservatively).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in defs.iter().enumerate() {
        by_name.entry(&d.name).or_default().push(i);
    }
    // BFS over the name-based call graph from the packet-path roots.
    let mut reachable: BTreeSet<usize> = BTreeSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for root in HOT_PATH_ROOTS {
        for &i in by_name.get(*root).map(Vec::as_slice).unwrap_or(&[]) {
            if reachable.insert(i) {
                queue.push_back(i);
            }
        }
    }
    while let Some(i) = queue.pop_front() {
        let d = &defs[i];
        let body = &all[d.file_idx].code[d.body.0..d.body.1];
        for (name, idxs) in &by_name {
            if *name == d.name || EDGE_STOPLIST.contains(name) {
                continue;
            }
            // A call edge is `name` followed by `(` or `::<` (turbofish).
            let mut called = false;
            for p in ident_positions(body, name) {
                let rest = body[p + name.len()..].trim_start();
                if rest.starts_with('(') || rest.starts_with("::<") {
                    called = true;
                    break;
                }
            }
            if called {
                for &j in idxs.iter() {
                    if reachable.insert(j) {
                        queue.push_back(j);
                    }
                }
            }
        }
    }
    // Ban list scan inside reachable, non-cold bodies.
    const BANNED: &[(&str, &str)] = &[
        ("panic", "panic! in a packet-path function"),
        ("unreachable", "unreachable! in a packet-path function"),
        ("todo", "todo! in a packet-path function"),
        ("unimplemented", "unimplemented! in a packet-path function"),
        (
            "assert",
            "assert! in a packet-path function (use debug_assert!)",
        ),
        (
            "assert_eq",
            "assert_eq! in a packet-path function (use debug_assert_eq!)",
        ),
        (
            "assert_ne",
            "assert_ne! in a packet-path function (use debug_assert_ne!)",
        ),
        ("unwrap", "unwrap() can panic on the packet path"),
        ("expect", "expect() can panic on the packet path"),
        ("vec", "vec! allocates on the packet path"),
        (
            "with_capacity",
            "with_capacity allocates on the packet path",
        ),
        ("to_vec", "to_vec allocates on the packet path"),
        ("collect", "collect allocates on the packet path"),
        ("format", "format! allocates on the packet path"),
        ("to_string", "to_string allocates on the packet path"),
    ];
    for &i in &reachable {
        let d = &defs[i];
        if d.cold {
            continue;
        }
        let sf = &all[d.file_idx];
        let body = &sf.code[d.body.0..d.body.1];
        let raw_lines: Vec<&str> = sf.raw.lines().collect();
        for (tok, why) in BANNED {
            for p in ident_positions(body, tok) {
                let rest = body[p + tok.len()..].trim_start();
                let is_macro = rest.starts_with('!');
                let is_call = rest.starts_with('(');
                let macro_tok = matches!(
                    *tok,
                    "panic"
                        | "unreachable"
                        | "todo"
                        | "unimplemented"
                        | "assert"
                        | "assert_eq"
                        | "assert_ne"
                        | "vec"
                        | "format"
                );
                if macro_tok && !is_macro {
                    continue;
                }
                if !macro_tok && !is_call {
                    continue;
                }
                let line = line_of(&sf.code, d.body.0 + p);
                if raw_lines
                    .get(line - 1)
                    .is_some_and(|t| t.contains(ALLOW_HOT_PATH))
                {
                    continue;
                }
                findings.push(Finding {
                    file: PathBuf::from(&sf.rel),
                    line,
                    rule: "hot-path-purity",
                    message: format!(
                        "{why} (in `{}`, reachable from {:?})",
                        d.name, HOT_PATH_ROOTS
                    ),
                });
            }
        }
    }
}

fn rule_deny_unsafe(root: &Path, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let mut roots: Vec<String> = files
        .iter()
        .filter(|sf| sf.rel.ends_with("src/lib.rs"))
        .map(|sf| sf.rel.clone())
        .collect();
    if root.join("src/lib.rs").exists() && !roots.iter().any(|r| r == "src/lib.rs") {
        roots.push("src/lib.rs".to_string());
    }
    for rel in roots {
        let Some(sf) = files.iter().find(|sf| sf.rel == rel) else {
            continue;
        };
        let has = sf.code.contains("#![deny(unsafe_code)]")
            || sf.code.contains("#![forbid(unsafe_code)]");
        if !has {
            findings.push(Finding {
                file: PathBuf::from(&rel),
                line: 1,
                rule: "deny-unsafe-missing",
                message: "crate root lacks #![deny(unsafe_code)] or #![forbid(unsafe_code)]"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Loads every `.rs` file under the workspace's library source trees
/// (`crates/*/src` and the umbrella `src/`).
fn load(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut members: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        members.sort();
        for member in members {
            walk(&member.join("src"), &mut paths);
        }
    }
    walk(&root.join("src"), &mut paths);
    let mut files = Vec::new();
    for path in paths {
        let raw = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let code = strip(&raw);
        files.push(SourceFile { rel, raw, code });
    }
    Ok(files)
}

/// Runs every rule over the workspace rooted at `root`; findings are
/// sorted by file and line.
pub fn run(root: &Path) -> std::io::Result<Vec<Finding>> {
    let files = load(root)?;
    let mut findings = Vec::new();
    rule_unsafe_allowlist(&files, &mut findings);
    rule_ordering_justification(&files, &mut findings);
    rule_hot_path_purity(&files, &mut findings);
    rule_deny_unsafe(root, &files, &mut findings);
    findings.sort();
    findings.dedup();
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_blanks_comments_and_strings() {
        let s = strip("let x = \"unsafe\"; // unsafe\n/* unsafe */ let y = 'u';");
        assert!(!s.contains("unsafe"));
        assert!(s.contains("let x ="));
        assert!(s.contains("let y ="));
    }

    #[test]
    fn strip_handles_raw_strings_and_lifetimes() {
        let s = strip("fn f<'a>(x: &'a str) { let r = r#\"unsafe \" quote\"#; }");
        assert!(!s.contains("quote"));
        assert!(s.contains("fn f<'a>"));
    }

    #[test]
    fn ident_positions_respects_boundaries() {
        assert_eq!(ident_positions("unsafe_code unsafe", "unsafe"), vec![12]);
        assert!(ident_positions("deny(unsafe_code)", "unsafe").is_empty());
    }

    #[test]
    fn test_mod_ranges_cover_gated_blocks() {
        let code = strip("fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() {}\n}\n");
        let ranges = test_mod_ranges(&code);
        assert_eq!(ranges.len(), 1);
        let b_pos = code.find("fn b").unwrap();
        assert!(in_ranges(&ranges, b_pos));
        assert!(!in_ranges(&ranges, 0));
    }

    #[test]
    fn extract_fns_finds_bodies_and_cold() {
        let raw = "#[cold]\nfn slow() { other(); }\nfn fast(x: u32) -> u32 { x }\n";
        let files = vec![SourceFile {
            rel: "x.rs".into(),
            raw: raw.into(),
            code: strip(raw),
        }];
        let defs = extract_fns(&files);
        assert_eq!(defs.len(), 2);
        assert!(defs.iter().any(|d| d.name == "slow" && d.cold));
        assert!(defs.iter().any(|d| d.name == "fast" && !d.cold));
    }
}
