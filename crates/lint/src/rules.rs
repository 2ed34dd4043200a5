//! The lint rules and the per-file analysis driver.
//!
//! Every rule works on the *masked* source from [`crate::lexer`]: string
//! and comment contents are blanked, so a pattern match really is code.
//! Findings are line-attributed and suppressible with an annotation
//! comment (see [`parse_allow`]) carrying a mandatory reason.

use crate::lexer::{mask, Comment, Masked};

/// A single lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Lint id, e.g. `panic-in-hot-path`.
    pub lint: &'static str,
    /// Human-readable description with remediation.
    pub message: String,
}

/// Registry entry: one lint rule.
pub struct Lint {
    pub name: &'static str,
    /// One-line summary (shown in listings).
    pub summary: &'static str,
    /// Long-form `--explain` text.
    pub explain: &'static str,
}

/// All lints, in severity-then-name order.
pub const LINTS: &[Lint] = &[
    Lint {
        name: "panic-in-hot-path",
        summary: "no unwrap/expect/panic!/unreachable! in serve-path code",
        explain: "The serve path (crates/engine/src/{engine,catalog,session,store}.rs, \
crates/engine/src/server/, crates/cq/src/{eval,flat,probe,delta,database,stats}.rs) answers \
live queries and applies client-supplied facts (Reload and Delta frames, every bind): \
a panic there kills a worker thread, poisons shared mutexes, and turns one bad request \
into a denial of service for every connection. Return a typed error (EngineError, \
EvalError, ...) instead, and recover mutex poisoning through \
cqd2_cq::sync::{lock_or_poison, read_or_poison, write_or_poison, wait_or_poison} — \
a poisoned lock guards data whose invariants the engine re-validates per request, so \
inheriting the inner value is always safe here. For the rare provably-unreachable case, \
keep the expect and annotate the line (or the line above) with \
`// cqd2-lint: allow(panic-in-hot-path, reason = \"why it cannot fire\")`.",
    },
    Lint {
        name: "stringly-error",
        summary: "no Result<_, String> in pub signatures",
        explain: "A `pub fn ... -> Result<_, String>` gives callers nothing to match on, \
nothing to chain as a source, and invites format!-driven error construction deep in \
library code. Every public fallible surface must return a typed error implementing \
std::error::Error (see EngineError, DilutionError, JigsawError, VerifyError for the \
house style: an enum with a Display impl, a source() chain, and From conversions).",
    },
    Lint {
        name: "print-in-lib",
        summary: "no println!/eprintln! in library code",
        explain: "Library crates must not write to stdout/stderr: the engine is embedded \
(tests, benchmarks, the TCP server), and stray prints corrupt framed protocol output and \
make benchmarks noisy. Use the typed error channel or the metrics/trace facilities. \
Binaries (src/bin/, main.rs), tests, examples, and benches may print freely.",
    },
    Lint {
        name: "todo-markers",
        summary: "no todo!/unimplemented!/dbg! anywhere in shipped code",
        explain: "todo!() and unimplemented!() are panics wearing a disguise, and dbg!() \
is a debugging aid that prints to stderr — none of them belong in committed non-test \
code. Finish the implementation, return a typed error, or delete the dead branch.",
    },
    Lint {
        name: "unscoped-spawn",
        summary: "no std::thread::spawn outside scoped helpers and tests",
        explain: "Detached threads outlive the data they borrow from (forcing 'static \
bounds and Arc churn) and are invisible to graceful shutdown. Use std::thread::scope — \
the engine's batch executor and the server's worker pool both run scoped — so threads \
provably join before their data goes away. Daemon-lifetime threads in binaries are the \
one legitimate exception; annotate them with \
`// cqd2-lint: allow(unscoped-spawn, reason = \"...\")`.",
    },
    Lint {
        name: "malformed-allow",
        summary: "cqd2-lint annotation comments must parse",
        explain: "A comment containing `cqd2-lint:` that does not parse as \
`// cqd2-lint: allow(<lint>, reason = \"...\")` (with a known lint name and a non-empty \
reason) suppresses nothing — silently. That near-miss is reported as a violation so a \
typo never turns into an unsuppressed-but-believed-suppressed lint.",
    },
];

/// Look up a lint by name.
pub fn lint_by_name(name: &str) -> Option<&'static Lint> {
    LINTS.iter().find(|l| l.name == name)
}

/// How a file participates in linting, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source: every rule applies.
    Lib,
    /// Binary source (`src/bin/`, `src/main.rs`, `build.rs`): printing
    /// is fine; panics are a process-level choice; spawn/todo rules
    /// still apply.
    Bin,
    /// Tests, examples, benches, fixtures: only `malformed-allow`
    /// applies (a broken annotation is confusing anywhere).
    TestLike,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel_path: &str) -> FileKind {
    let p = rel_path;
    let test_dirs = ["tests/", "examples/", "benches/"];
    if test_dirs
        .iter()
        .any(|d| p.starts_with(d) || p.contains(&format!("/{d}")))
    {
        return FileKind::TestLike;
    }
    if p.ends_with("build.rs") || p.contains("/src/bin/") || p.ends_with("src/main.rs") {
        return FileKind::Bin;
    }
    FileKind::Lib
}

/// Is this file part of the serve path, where panics are banned?
///
/// The engine crate is hot *by directory*: everything under
/// `crates/engine/src/` (including `server/` and new modules like
/// `delta.rs`) is serve-path unless explicitly excluded below — so a
/// new engine module is born covered instead of silently cold. The
/// exclusions are planning-/parse-time code that runs before a plan
/// is cached, never per request.
pub fn is_hot_path(rel_path: &str) -> bool {
    /// Engine modules that are *not* on the per-request serve path.
    const COLD: &[&str] = &[
        // Structure planning: runs once per structure class, result
        // cached; panics surface at prepare time, not per query.
        "crates/engine/src/planner.rs",
        // Strict plan verification: opt-in audit at prepare time.
        "crates/engine/src/verify.rs",
        // Text parsing: load/admin-frame boundary, line-attributed
        // errors by design.
        "crates/engine/src/textio.rs",
    ];
    /// Kernel files in other crates that the serve path executes.
    const HOT: &[&str] = &[
        "crates/cq/src/eval.rs",
        "crates/cq/src/flat.rs",
        "crates/cq/src/probe.rs",
        "crates/cq/src/delta.rs",
        // The stored-relation layer: `Reload`/`Delta` admin frames and
        // every `bind` run it on reader and worker threads, with
        // client-supplied facts.
        "crates/cq/src/database.rs",
        "crates/cq/src/stats.rs",
    ];
    if rel_path.starts_with("crates/engine/src/") {
        return !COLD.contains(&rel_path);
    }
    HOT.contains(&rel_path)
}

/// A parsed suppression annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    pub lint: String,
    pub reason: String,
}

/// Parse a line comment as a `cqd2-lint: allow(...)` annotation.
///
/// - `None`: the comment does not mention `cqd2-lint:` (or is a doc
///   comment, which is documentation *about* the syntax, never an
///   annotation).
/// - `Some(Ok(allow))`: a well-formed annotation.
/// - `Some(Err(msg))`: mentions the marker but does not parse.
pub fn parse_allow(comment: &str) -> Option<Result<Allow, String>> {
    if comment.starts_with("///") || comment.starts_with("//!") {
        return None;
    }
    let marker = "cqd2-lint:";
    let at = comment.find(marker)?;
    let rest = comment[at + marker.len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Some(Err("expected `allow(` after `cqd2-lint:`".to_string()));
    };
    let Some(comma) = rest.find(',') else {
        return Some(Err(
            "expected `allow(<lint>, reason = \"...\")` — missing `, reason = ...`".to_string(),
        ));
    };
    let lint_name = rest[..comma].trim();
    if lint_by_name(lint_name).is_none() {
        return Some(Err(format!("unknown lint `{lint_name}`")));
    }
    let rest = rest[comma + 1..].trim_start();
    let Some(rest) = rest.strip_prefix("reason") else {
        return Some(Err("expected `reason = \"...\"`".to_string()));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('=') else {
        return Some(Err("expected `=` after `reason`".to_string()));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('"') else {
        return Some(Err("reason must be a quoted string".to_string()));
    };
    // The reason string: scan to the closing quote (no escapes needed
    // in reasons; a `\"` would end the scan early, which is acceptable
    // for an annotation grammar).
    let Some(endq) = rest.find('"') else {
        return Some(Err("unterminated reason string".to_string()));
    };
    let reason = &rest[..endq];
    if reason.trim().is_empty() {
        return Some(Err("reason must not be empty".to_string()));
    }
    let tail = rest[endq + 1..].trim_start();
    if !tail.starts_with(')') {
        return Some(Err("expected `)` closing the allow(...)".to_string()));
    }
    Some(Ok(Allow {
        lint: lint_name.to_string(),
        reason: reason.to_string(),
    }))
}

/// Mark every line covered by a `#[cfg(test)]` item (attribute line
/// through the matching close brace or terminating semicolon).
fn test_span_lines(masked: &str) -> Vec<bool> {
    let chars: Vec<char> = masked.chars().collect();
    let total_lines = masked.matches('\n').count() + 1;
    let mut is_test = vec![false; total_lines + 1]; // 1-indexed
    let mut line_of = Vec::with_capacity(chars.len() + 1);
    {
        let mut line = 1usize;
        for &c in &chars {
            line_of.push(line);
            if c == '\n' {
                line += 1;
            }
        }
        line_of.push(line);
    }
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == '#' && chars.get(i + 1) == Some(&'[') {
            // Read the balanced attribute.
            let attr_start = i;
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < chars.len() {
                match chars[j] {
                    '[' => depth += 1,
                    ']' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let attr: String = chars[attr_start..=j.min(chars.len() - 1)]
                .iter()
                .filter(|c| !c.is_whitespace())
                .collect();
            if attr.contains("cfg(test)") || attr.contains("cfg(all(test") {
                // Span: from the attribute to the end of the next item.
                let mut k = j + 1;
                let mut brace_depth = 0usize;
                let mut entered = false;
                while k < chars.len() {
                    match chars[k] {
                        '{' => {
                            brace_depth += 1;
                            entered = true;
                        }
                        '}' => {
                            brace_depth = brace_depth.saturating_sub(1);
                            if entered && brace_depth == 0 {
                                break;
                            }
                        }
                        ';' if !entered => break,
                        _ => {}
                    }
                    k += 1;
                }
                let (from, to) = (line_of[attr_start], line_of[k.min(chars.len() - 1)]);
                for l in from..=to {
                    if l < is_test.len() {
                        is_test[l] = true;
                    }
                }
                i = k + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    is_test
}

/// True when the occurrence of `tok` at `idx` is a real token: for
/// identifier-leading patterns (`panic!(`, `println!(`) the preceding
/// char must not extend an identifier (so `eprintln!` never matches the
/// embedded `println!`). Patterns leading with `.` (method calls) are
/// preceded by a receiver by construction and always match.
fn token_match(text: &str, idx: usize, tok: &str) -> bool {
    if idx == 0 || tok.starts_with('.') {
        return true;
    }
    let prev = text[..idx].chars().next_back().unwrap_or(' ');
    !(prev.is_alphanumeric() || prev == '_')
}

fn find_tokens(line: &str, tok: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = line[from..].find(tok) {
        let idx = from + pos;
        if token_match(line, idx, tok) {
            out.push(idx);
        }
        from = idx + tok.len();
    }
    out
}

/// Scan masked full-text for `pub fn` signatures returning
/// `Result<_, String>`. Returns `(line, fn_name)` pairs.
fn stringly_pub_fns(masked: &str) -> Vec<(usize, String)> {
    let chars: Vec<char> = masked.chars().collect();
    let mut line_of = Vec::with_capacity(chars.len() + 1);
    {
        let mut line = 1usize;
        for &c in &chars {
            line_of.push(line);
            if c == '\n' {
                line += 1;
            }
        }
        line_of.push(line);
    }
    let mut out = Vec::new();
    let text: String = chars.iter().collect();
    for idx in find_word(&text, "fn") {
        if !is_pub_fn(&text, idx) {
            continue;
        }
        let Some((name, ret)) = fn_return_type(&chars, idx) else {
            continue;
        };
        if returns_stringly_result(&ret) {
            out.push((line_of[idx], name));
        }
    }
    out
}

/// All indices where the standalone word `w` occurs.
fn find_word(text: &str, w: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(w) {
        let idx = from + pos;
        let before_ok = idx == 0 || {
            let prev = text[..idx].chars().next_back().unwrap_or(' ');
            !(prev.is_alphanumeric() || prev == '_')
        };
        let after = text[idx + w.len()..].chars().next().unwrap_or(' ');
        let after_ok = !(after.is_alphanumeric() || after == '_');
        if before_ok && after_ok {
            out.push(idx);
        }
        from = idx + w.len();
    }
    out
}

/// Does the `fn` at byte index `idx` carry a `pub` (any visibility
/// flavor) among its leading modifiers?
fn is_pub_fn(text: &str, idx: usize) -> bool {
    // Look at up to 64 chars before the `fn` and read trailing tokens.
    let start = idx.saturating_sub(64);
    let before = &text[start..idx];
    let mut toks: Vec<&str> = before.split_whitespace().collect();
    while let Some(&last) = toks.last() {
        match last {
            "const" | "async" | "unsafe" => {
                toks.pop();
            }
            _ => break,
        }
    }
    matches!(toks.last(), Some(&t) if t == "pub" || t.starts_with("pub("))
}

/// Parse past the fn name, generics, and parameter list; return the
/// name and the return-type text (empty when the fn returns unit).
fn fn_return_type(chars: &[char], fn_idx: usize) -> Option<(String, String)> {
    let mut i = fn_idx + 2;
    let n = chars.len();
    while i < n && chars[i].is_whitespace() {
        i += 1;
    }
    let name_start = i;
    while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
        i += 1;
    }
    let name: String = chars[name_start..i].iter().collect();
    if name.is_empty() {
        return None;
    }
    while i < n && chars[i].is_whitespace() {
        i += 1;
    }
    // Generics: balance angles, treating `->` inside (e.g. `Fn() -> T`)
    // as not closing.
    if i < n && chars[i] == '<' {
        let mut depth = 1usize;
        i += 1;
        while i < n && depth > 0 {
            match chars[i] {
                '<' => depth += 1,
                '>' if chars[i - 1] != '-' => depth -= 1,
                _ => {}
            }
            i += 1;
        }
        while i < n && chars[i].is_whitespace() {
            i += 1;
        }
    }
    // Parameter list.
    if i >= n || chars[i] != '(' {
        return None;
    }
    let mut depth = 1usize;
    i += 1;
    while i < n && depth > 0 {
        match chars[i] {
            '(' => depth += 1,
            ')' => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    while i < n && chars[i].is_whitespace() {
        i += 1;
    }
    // Return type?
    if i + 1 >= n || chars[i] != '-' || chars[i + 1] != '>' {
        return Some((name, String::new()));
    }
    i += 2;
    let ret_start = i;
    let mut angle = 0usize;
    let mut paren = 0usize;
    while i < n {
        match chars[i] {
            '<' => angle += 1,
            '>' if chars[i - 1] != '-' => angle = angle.saturating_sub(1),
            '(' => paren += 1,
            ')' => paren = paren.saturating_sub(1),
            '{' | ';' if angle == 0 && paren == 0 => break,
            'w' if angle == 0
                && paren == 0
                && chars[i..].starts_with(&['w', 'h', 'e', 'r', 'e'])
                && chars.get(i + 5).is_none_or(|c| c.is_whitespace()) =>
            {
                break
            }
            _ => {}
        }
        i += 1;
    }
    let ret: String = chars[ret_start..i].iter().collect();
    Some((name, ret))
}

/// Is `ret` (a return-type string) `Result<_, String>` at top level?
fn returns_stringly_result(ret: &str) -> bool {
    let t: String = ret.chars().filter(|c| !c.is_whitespace()).collect();
    let body = ["Result<", "std::result::Result<", "core::result::Result<"]
        .iter()
        .find_map(|p| t.strip_prefix(p));
    let Some(body) = body else { return false };
    let Some(body) = body.strip_suffix('>') else {
        return false;
    };
    // Top-level comma split.
    let mut depth = 0usize;
    let chars: Vec<char> = body.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                let err: String = chars[i + 1..].iter().collect();
                let err = err.trim_matches(',').to_string();
                return err == "String" || err.ends_with("::String");
            }
            _ => {}
        }
    }
    false
}

/// Lint one file. `rel_path` is workspace-relative with forward
/// slashes; `src` is the file contents.
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let kind = classify(rel_path);
    let masked: Masked = mask(src);
    let lines: Vec<&str> = masked.code.lines().collect();
    let is_test = test_span_lines(&masked.code);
    let line_is_test =
        |l: usize| kind == FileKind::TestLike || is_test.get(l).copied().unwrap_or(false);
    let line_has_code = |l: usize| {
        lines
            .get(l - 1)
            .map(|s| !s.trim().is_empty())
            .unwrap_or(false)
    };

    let mut findings: Vec<Finding> = Vec::new();
    // line -> allowed lint names.
    let mut allows: Vec<(usize, Allow)> = Vec::new();
    for Comment { line, text } in &masked.comments {
        match parse_allow(text) {
            None => {}
            Some(Ok(allow)) => {
                // Same line if it has code; otherwise the next code line.
                let mut target = *line;
                if !line_has_code(target) {
                    let mut l = target + 1;
                    while l <= lines.len() && !line_has_code(l) {
                        l += 1;
                    }
                    target = l;
                }
                allows.push((target, allow));
            }
            Some(Err(msg)) => findings.push(Finding {
                file: rel_path.to_string(),
                line: *line,
                lint: "malformed-allow",
                message: format!("annotation does not parse: {msg}"),
            }),
        }
    }
    let allowed = |line: usize, lint: &str| {
        allows
            .iter()
            .any(|(l, a)| *l == line && (a.lint == lint || a.lint == "malformed-allow"))
    };

    struct Pattern {
        lint: &'static str,
        token: &'static str,
        message: &'static str,
    }
    let mut patterns: Vec<Pattern> = Vec::new();
    if kind == FileKind::Lib && is_hot_path(rel_path) {
        for (token, message) in [
            (
                ".unwrap()",
                "`.unwrap()` in serve-path code — return a typed error, or \
use cqd2_cq::sync::lock_or_poison for mutex poisoning",
            ),
            (
                ".expect(",
                "`.expect(...)` in serve-path code — return a typed error, or \
annotate a provably-unreachable case with an allow(..., reason = ...)",
            ),
            (
                "panic!(",
                "`panic!` in serve-path code — return a typed error",
            ),
            (
                "unreachable!(",
                "`unreachable!` in serve-path code — make the invariant a typed error",
            ),
        ] {
            patterns.push(Pattern {
                lint: "panic-in-hot-path",
                token,
                message,
            });
        }
    }
    if kind == FileKind::Lib {
        for token in ["println!(", "eprintln!(", "print!(", "eprint!("] {
            patterns.push(Pattern {
                lint: "print-in-lib",
                token,
                message: "direct stdout/stderr write in library code — use the typed \
error channel or the metrics facilities",
            });
        }
    }
    if kind != FileKind::TestLike {
        for token in ["todo!(", "unimplemented!(", "dbg!("] {
            patterns.push(Pattern {
                lint: "todo-markers",
                token,
                message: "leftover development marker — finish the branch or return a \
typed error",
            });
        }
        patterns.push(Pattern {
            lint: "unscoped-spawn",
            token: "thread::spawn",
            message: "detached thread — use std::thread::scope so the thread provably \
joins, or annotate a daemon-lifetime thread with an allow(..., reason = ...)",
        });
    }

    for (l0, line) in lines.iter().enumerate() {
        let lineno = l0 + 1;
        if line_is_test(lineno) {
            continue;
        }
        for p in &patterns {
            for _ in find_tokens(line, p.token) {
                if allowed(lineno, p.lint) {
                    continue;
                }
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: lineno,
                    lint: p.lint,
                    message: format!("{} — {}", p.token.trim_end_matches('('), p.message),
                });
            }
        }
    }

    if kind == FileKind::Lib {
        for (lineno, name) in stringly_pub_fns(&masked.code) {
            if line_is_test(lineno) || allowed(lineno, "stringly-error") {
                continue;
            }
            findings.push(Finding {
                file: rel_path.to_string(),
                line: lineno,
                lint: "stringly-error",
                message: format!(
                    "`pub fn {name}` returns Result<_, String> — define a typed error \
enum implementing std::error::Error"
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_parses_and_rejects() {
        let ok = parse_allow("// cqd2-lint: allow(panic-in-hot-path, reason = \"seeded above\")");
        assert_eq!(
            ok,
            Some(Ok(Allow {
                lint: "panic-in-hot-path".to_string(),
                reason: "seeded above".to_string(),
            }))
        );
        assert!(matches!(
            parse_allow("// cqd2-lint: allow(no-such-lint, reason = \"x\")"),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_allow("// cqd2-lint: allow(todo-markers)"),
            Some(Err(_))
        ));
        assert_eq!(parse_allow("// plain comment"), None);
        // Doc comments are documentation, never annotations.
        assert_eq!(
            parse_allow("/// // cqd2-lint: allow(todo-markers, reason = \"docs\")"),
            None
        );
        // Reasons may contain parentheses — the quotes delimit.
        let with_parens = parse_allow(
            "// cqd2-lint: allow(panic-in-hot-path, reason = \"order.len() bounds it\")",
        );
        assert!(matches!(with_parens, Some(Ok(_))));
    }

    #[test]
    fn cfg_test_spans_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        let f = scan_source("crates/engine/src/engine.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn hot_path_panics_flagged_and_suppressed() {
        let src = "fn f(x: Option<u8>) {\n    x.unwrap();\n}\n";
        let f = scan_source("crates/engine/src/engine.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "panic-in-hot-path");
        assert_eq!(f[0].line, 2);
        // Same file outside the hot path: no finding.
        assert!(scan_source("crates/decomp/src/verify.rs", src).is_empty());
        // Suppressed by an annotation on the preceding line.
        let src_ok = "fn f(x: Option<u8>) {\n    // cqd2-lint: allow(panic-in-hot-path, reason = \"seeded\")\n    x.unwrap();\n}\n";
        assert!(scan_source("crates/engine/src/engine.rs", src_ok).is_empty());
    }

    #[test]
    fn hot_path_is_the_engine_directory_minus_cold_exclusions() {
        // The engine crate is hot by directory: a brand-new module is
        // covered without touching the lint.
        assert!(is_hot_path("crates/engine/src/delta.rs"));
        assert!(is_hot_path("crates/engine/src/some_future_module.rs"));
        assert!(is_hot_path("crates/engine/src/server/mod.rs"));
        // Planning-/parse-time modules are explicitly cold.
        assert!(!is_hot_path("crates/engine/src/planner.rs"));
        assert!(!is_hot_path("crates/engine/src/verify.rs"));
        assert!(!is_hot_path("crates/engine/src/textio.rs"));
        // Kernel files in other crates stay on the explicit list.
        assert!(is_hot_path("crates/cq/src/delta.rs"));
        assert!(is_hot_path("crates/cq/src/eval.rs"));
        assert!(is_hot_path("crates/cq/src/database.rs"));
        assert!(is_hot_path("crates/cq/src/stats.rs"));
        assert!(!is_hot_path("crates/cq/src/relation.rs"));
        assert!(!is_hot_path("crates/cq/src/generate.rs"));
    }

    #[test]
    fn stringly_error_detection() {
        let src = "pub fn f(x: u8) -> Result<Vec<u8>, String> { Err(String::new()) }\n";
        let f = scan_source("crates/decomp/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "stringly-error");
        // Typed error: fine. Private stringly fn: fine.
        assert!(scan_source(
            "crates/decomp/src/x.rs",
            "pub fn f() -> Result<u8, MyError> { Ok(0) }\nfn g() -> Result<u8, String> { Ok(0) }\n"
        )
        .is_empty());
        // Multi-line signature with a generic param.
        let multi = "pub fn h<T: Clone>(\n    x: T,\n) -> Result<(T, usize), String> {\n    Ok((x, 0))\n}\n";
        let f = scan_source("crates/decomp/src/x.rs", multi);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn print_and_todo_and_spawn() {
        let src =
            "fn f() {\n    println!(\"x\");\n    todo!();\n    std::thread::spawn(|| {});\n}\n";
        let f = scan_source("crates/cq/src/lib.rs", src);
        let lints: Vec<&str> = f.iter().map(|x| x.lint).collect();
        assert!(lints.contains(&"print-in-lib"), "{f:?}");
        assert!(lints.contains(&"todo-markers"));
        assert!(lints.contains(&"unscoped-spawn"));
        // Bin context: printing fine, spawn/todo still flagged.
        let f = scan_source("crates/core/src/bin/tool.rs", src);
        let lints: Vec<&str> = f.iter().map(|x| x.lint).collect();
        assert!(!lints.contains(&"print-in-lib"));
        assert!(lints.contains(&"todo-markers"));
        assert!(lints.contains(&"unscoped-spawn"));
        // Test context: nothing.
        assert!(scan_source("crates/cq/tests/x.rs", src).is_empty());
        // Scoped spawn is fine.
        assert!(scan_source(
            "crates/cq/src/lib.rs",
            "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n"
        )
        .is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip() {
        let src = "fn f() -> &'static str {\n    // explains .unwrap() usage\n    \"call .expect( or panic!( freely\"\n}\n";
        assert!(scan_source("crates/engine/src/engine.rs", src).is_empty());
    }

    #[test]
    fn malformed_allow_is_a_finding() {
        let src = "fn f() {}\n// cqd2-lint: allow(panic-in-hot-path)\nfn g() {}\n";
        let f = scan_source("crates/cq/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "malformed-allow");
        assert_eq!(f[0].line, 2);
    }
}
