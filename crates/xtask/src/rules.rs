//! The lint rules and their per-module scoping, and the one suppression
//! mechanism.
//!
//! Every rule emits `file:line`-anchored [`Diagnostic`]s without looking
//! at suppressions. An inline `// xtask: allow(<rule>) <reason>` comment
//! on an individually audited site suppresses a finding; [`Allows`]
//! applies those comments once, after every rule has run, and reports
//! each one that suppressed nothing as `stale-allow`.

use crate::lexer::{Token, TokenKind};
use std::collections::BTreeMap;

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule name (the one inline annotations name).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The BCP/analyze hot path: panics and raw indexing are forbidden here —
/// state access flows through the audited `varmap` boundary instead.
const HOT_PATH_MODULES: &[&str] = &[
    "crates/sat-solver/src/solver.rs",
    "crates/sat-solver/src/clause_db.rs",
    "crates/sat-solver/src/heap.rs",
    "crates/sat-solver/src/varmap.rs",
];

/// Crates on the deterministic solving path: iterating a `HashMap` or
/// `HashSet` here would make runs irreproducible.
const SOLVER_CRATES: &[&str] = &[
    "crates/sat-solver/",
    "crates/cnf/",
    "crates/sat-gen/",
    "crates/sat-graph/",
    "crates/logic-circuit/",
];

/// Keywords that may directly precede `[` without it being an index
/// expression (`for l in [a, b]`, `return [x]`, ...).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "in", "return", "break", "continue", "else", "match", "mut", "ref", "move", "as", "if",
    "while", "loop", "yield",
];

/// The one module allowed to re-raise caught panics: it owns crash
/// isolation (`run_isolated`, see its module docs).
const UNWIND_MODULE: &str = "crates/sat-solver/src/resilience.rs";

fn is_hot_path(path: &str) -> bool {
    HOT_PATH_MODULES.contains(&path)
}

fn is_solver_crate_src(path: &str) -> bool {
    SOLVER_CRATES.iter().any(|c| path.starts_with(c)) && path.contains("/src/")
}

/// Library sources: everything under `src/` except binaries.
fn is_lib_source(path: &str) -> bool {
    path.contains("/src/") && !path.contains("/src/bin/") && !path.ends_with("/main.rs")
}

/// Runs every per-file rule in scope for `path` over its test-stripped
/// tokens, appending the findings to `out` unsuppressed.
pub fn lint_file(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if is_hot_path(path) {
        no_panic(path, tokens, out);
        no_index(path, tokens, out);
        no_hard_assert(path, tokens, out);
    }
    if is_solver_crate_src(path) {
        no_hash_iter(path, tokens, out);
    }
    if path.contains("/src/") {
        atomic_ordering(path, tokens, out);
        no_float_eq(path, tokens, out);
    }
    if path != UNWIND_MODULE {
        no_unwind_escape(path, tokens, out);
    }
    if is_lib_source(path) {
        pub_docs(path, tokens, out);
    }
    if path.ends_with("/src/lib.rs") {
        unsafe_forbidden(path, tokens, out);
    }
}

/// One inline allow comment and whether it has suppressed anything yet.
struct Allow {
    line: u32,
    rule: String,
    used: bool,
}

/// The workspace's inline `// xtask: allow(<rule>) <reason>` comments,
/// by file. An allow covers a finding of its rule on its own line or on
/// the line below.
#[derive(Default)]
pub struct Allows {
    by_file: BTreeMap<String, Vec<Allow>>,
}

impl Allows {
    /// Records one file's `(line, rule)` annotations.
    pub fn insert(&mut self, path: &str, allows: Vec<(u32, String)>) {
        let entries = allows
            .into_iter()
            .map(|(line, rule)| Allow {
                line,
                rule,
                used: false,
            })
            .collect();
        self.by_file.insert(path.to_string(), entries);
    }

    /// Whether an allow for `rule` covers `path:line`. Every covering
    /// allow counts as used.
    pub fn covers(&mut self, path: &str, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for a in self.by_file.get_mut(path).into_iter().flatten() {
            if a.rule == rule && (a.line == line || a.line + 1 == line) {
                a.used = true;
                hit = true;
            }
        }
        hit
    }

    /// The one suppression pass: drops every finding an allow covers,
    /// then reports each allow that suppressed nothing, here or in an
    /// earlier [`Allows::covers`] query, as a `stale-allow` finding at
    /// its own line. A `stale-allow` finding cannot itself be allowed.
    pub fn apply(mut self, diags: &mut Vec<Diagnostic>) {
        diags.retain(|d| !self.covers(&d.path, d.rule, d.line));
        for (path, allows) in self.by_file {
            for a in allows.iter().filter(|a| !a.used) {
                let message = format!(
                    "`// xtask: allow({})` suppresses no finding; remove it",
                    a.rule
                );
                diag(diags, "stale-allow", &path, a.line, message);
            }
        }
    }
}

fn diag(
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    path: &str,
    line: u32,
    message: impl Into<String>,
) {
    out.push(Diagnostic {
        rule,
        path: path.to_string(),
        line,
        message: message.into(),
    });
}

/// `no-panic`: no `unwrap()`, `expect(...)`, `panic!`, `unreachable!`,
/// `todo!`, or `unimplemented!` in hot-path modules. BCP and conflict
/// analysis run millions of times; a reachable panic there is a latent
/// crash, and an unreachable one belongs in a `debug_assert!`.
fn no_panic(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |s: &str| tokens.get(i + 1).is_some_and(|n| n.is_punct(s));
        let prev_is_dot = i > 0 && tokens[i - 1].is_punct(".");
        match t.text.as_str() {
            "unwrap" | "expect" if prev_is_dot && next_is("(") => diag(
                out,
                "no-panic",
                path,
                t.line,
                format!(
                    "`.{}()` in a hot-path module; restructure to handle the None/Err case \
                     or use a `debug_assert!`-audited accessor",
                    t.text
                ),
            ),
            "panic" | "unreachable" | "todo" | "unimplemented" if next_is("!") => diag(
                out,
                "no-panic",
                path,
                t.line,
                format!(
                    "`{}!` in a hot-path module; make the state unrepresentable or \
                     downgrade to `debug_assert!`",
                    t.text
                ),
            ),
            _ => {}
        }
    }
}

/// `no-index`: no raw slice/array indexing in hot-path modules. Indexed
/// state lives behind the `varmap` audited boundary (`VarMap`, `LitMap`,
/// `at()`), which pairs each access with a `debug_assert!` bounds check.
fn no_index(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_punct("[") || i == 0 {
            continue;
        }
        let prev = &tokens[i - 1];
        let indexable = match prev.kind {
            TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
            TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
            _ => false,
        };
        if indexable {
            diag(
                out,
                "no-index",
                path,
                t.line,
                "raw slice indexing in a hot-path module; use the audited `varmap` \
                 accessors (`VarMap`/`LitMap`/`at()`) or annotate the audited site",
            );
        }
    }
}

/// `no-hard-assert`: hot-path modules must use `debug_assert!` so release
/// builds keep full propagation speed; a hard `assert!` there is either a
/// documented API contract (annotate it) or a mistake.
fn no_hard_assert(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "assert" | "assert_eq" | "assert_ne")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            diag(
                out,
                "no-hard-assert",
                path,
                t.line,
                format!(
                    "`{}!` in a hot-path module; use `debug_assert!` instead",
                    t.text
                ),
            );
        }
    }
}

/// `atomic-ordering`: no `Ordering::Relaxed` in any source file. A flag
/// or slot that publishes one thread's writes to another (a stop or
/// ready flag, a claimed slot, anything a consumer reads to observe
/// another thread's writes) needs a real happens-before edge (Release
/// store / Acquire load), and a relaxed operation on one is a liveness or
/// soundness bug that tests will rarely catch. Relaxed is only defensible
/// for standalone counters, each annotated inline with the reason.
fn atomic_ordering(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("Relaxed")
            && i >= 2
            && tokens[i - 1].is_punct("::")
            && tokens[i - 2].is_ident("Ordering")
        {
            diag(
                out,
                "atomic-ordering",
                path,
                t.line,
                "`Ordering::Relaxed`; publication atomics need Release/Acquire — \
                 if this is a pure statistics counter, annotate the site with \
                 `// xtask: allow(atomic-ordering) <why>`",
            );
        }
    }
}

/// `no-hash-iter`: iterating a `HashMap`/`HashSet` in a solver crate
/// introduces platform- and run-dependent ordering; iterate a sorted or
/// dense structure instead. Point lookups are fine.
fn no_hash_iter(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    // Pass 1: names bound to hash containers, via `name: HashMap<...>`
    // (fields, params, typed lets) and `let [mut] name = ... HashMap ... ;`.
    let mut hash_names: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            // Walk back over a path prefix (`std::collections::`) and
            // reference sigils to find `name :`.
            let mut j = i;
            while j >= 2 && tokens[j - 1].is_punct("::") && tokens[j - 2].kind == TokenKind::Ident {
                j -= 2;
            }
            while j >= 1 && (tokens[j - 1].is_punct("&") || tokens[j - 1].is_ident("mut")) {
                j -= 1;
            }
            if j >= 2 && tokens[j - 1].is_punct(":") && tokens[j - 2].kind == TokenKind::Ident {
                hash_names.push(tokens[j - 2].text.clone());
            }
        }
        if t.is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = tokens.get(j).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            // Untyped binding: scan the initializer up to `;` for a hash
            // container constructor. (Typed bindings hit the `name :` case.)
            if tokens.get(j + 1).is_some_and(|t| t.is_punct("=")) {
                let mut k = j + 2;
                while k < tokens.len() && !tokens[k].is_punct(";") {
                    if tokens[k].is_ident("HashMap") || tokens[k].is_ident("HashSet") {
                        hash_names.push(name.text.clone());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    // Pass 2: iteration over those names.
    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "retain",
        "into_iter",
        "into_keys",
        "into_values",
    ];
    for (i, t) in tokens.iter().enumerate() {
        // `name.iter()` / `self.name.keys()` ...
        if t.kind == TokenKind::Ident
            && hash_names.iter().any(|n| n == &t.text)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("."))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct("("))
        {
            if let Some(m) = tokens.get(i + 2) {
                if m.kind == TokenKind::Ident && ITER_METHODS.contains(&m.text.as_str()) {
                    diag(
                        out,
                        "no-hash-iter",
                        path,
                        m.line,
                        format!(
                            "`.{}()` on hash container `{}`: iteration order is \
                             nondeterministic; collect and sort, or use a dense/ordered map",
                            m.text, t.text
                        ),
                    );
                }
            }
        }
        // `for pat in [&[mut]] name { ... }`
        if t.is_ident("for") {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < tokens.len() {
                let u = &tokens[j];
                if u.is_punct("(") || u.is_punct("[") {
                    depth += 1;
                } else if u.is_punct(")") || u.is_punct("]") {
                    depth -= 1;
                } else if depth == 0 && u.is_ident("in") {
                    break;
                } else if depth == 0 && (u.is_punct("{") || u.is_punct(";")) {
                    j = tokens.len(); // not a for-loop header after all
                }
                j += 1;
            }
            let mut k = j + 1;
            while tokens
                .get(k)
                .is_some_and(|t| t.is_punct("&") || t.is_ident("mut"))
            {
                k += 1;
            }
            // The iterated expression may be a dotted path (`self.seen`);
            // the final segment names the container.
            let mut last: Option<&Token> = None;
            while let Some(tok) = tokens.get(k) {
                if tok.kind != TokenKind::Ident {
                    break;
                }
                last = Some(tok);
                if tokens.get(k + 1).is_some_and(|t| t.is_punct("."))
                    && tokens
                        .get(k + 2)
                        .is_some_and(|t| t.kind == TokenKind::Ident)
                {
                    k += 2;
                } else {
                    k += 1;
                    break;
                }
            }
            if let (Some(name), Some(after)) = (last, tokens.get(k)) {
                if hash_names.iter().any(|n| n == &name.text) && after.is_punct("{") {
                    diag(
                        out,
                        "no-hash-iter",
                        path,
                        name.line,
                        format!(
                            "`for` over hash container `{}`: iteration order is \
                             nondeterministic; collect and sort, or use a dense/ordered map",
                            name.text
                        ),
                    );
                }
            }
        }
    }
}

/// `no-unwind-escape`: `resume_unwind` and `process::abort` are confined
/// to `crates/sat-solver/src/resilience.rs`, the module that owns the
/// crash-isolation policy. Anywhere else, a re-raised panic tears through
/// a `run_isolated` boundary (an `rsatd` session, pipeline inference)
/// with a payload the isolation layer never rendered, and an abort skips
/// every cleanup and degraded mode outright. Catch crashes with
/// `run_isolated` and degrade (quarantine the session, fall back to the
/// heuristic), or annotate an individually audited site with
/// `// xtask: allow(no-unwind-escape) <why>`.
fn no_unwind_escape(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next_is_call = tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
        if !next_is_call {
            continue;
        }
        match t.text.as_str() {
            "resume_unwind" => diag(
                out,
                "no-unwind-escape",
                path,
                t.line,
                "`resume_unwind` outside the resilience module; catch the panic with \
                 `sat_solver::run_isolated` and degrade instead (or annotate an \
                 audited site)",
            ),
            "abort"
                if i >= 2 && tokens[i - 1].is_punct("::") && tokens[i - 2].is_ident("process") =>
            {
                diag(
                    out,
                    "no-unwind-escape",
                    path,
                    t.line,
                    "`process::abort` outside the resilience module; aborts skip every \
                     degraded mode — return an error or propagate a panic instead",
                );
            }
            _ => {}
        }
    }
}

/// `no-float-eq`: comparing against a float literal with `==`/`!=` is
/// almost always a rounding bug; compare with a tolerance or restructure.
fn no_float_eq(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let prev_float = i > 0 && tokens[i - 1].kind == TokenKind::Float;
        let next_float = match tokens.get(i + 1) {
            Some(n) if n.kind == TokenKind::Float => true,
            Some(n) if n.is_punct("-") => tokens
                .get(i + 2)
                .is_some_and(|m| m.kind == TokenKind::Float),
            _ => false,
        };
        if prev_float || next_float {
            diag(
                out,
                "no-float-eq",
                path,
                t.line,
                format!(
                    "float literal compared with `{}`; use an epsilon or an integer \
                     representation, or annotate an intended exact compare with \
                     `// xtask: allow(no-float-eq) <why>`",
                    t.text
                ),
            );
        }
    }
}

/// Item keywords that can follow `pub` and require a doc comment.
const DOCUMENTED_ITEMS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "union",
];

/// `pub-docs`: every `pub` item (and named `pub` field) in library sources
/// carries a doc comment. `pub(crate)` and `pub use` re-exports are exempt.
fn pub_docs(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("pub") {
            continue;
        }
        let Some(next) = tokens.get(i + 1) else {
            continue;
        };
        if next.is_punct("(") {
            continue; // pub(crate) / pub(super)
        }
        // What is being declared?
        let (item_kind, name_idx) =
            if next.kind == TokenKind::Ident && DOCUMENTED_ITEMS.contains(&next.text.as_str()) {
                (next.text.as_str(), i + 2)
            } else if next.is_ident("unsafe") || next.is_ident("async") || next.is_ident("extern") {
                ("fn", i + 3)
            } else if next.is_ident("use") {
                continue; // re-export; docs inherited from the target
            } else if next.kind == TokenKind::Ident
                && tokens.get(i + 2).is_some_and(|t| t.is_punct(":"))
            {
                ("field", i + 1)
            } else {
                continue; // tuple-struct field or something exotic
            };
        // An out-of-line module (`pub mod name;`) carries its docs as `//!`
        // inside its own file.
        if item_kind == "mod" && tokens.get(i + 3).is_some_and(|t| t.is_punct(";")) {
            continue;
        }
        // Walk back over attributes; a doc comment (or #[doc]) must precede.
        let mut j = i;
        let mut documented = false;
        while j > 0 {
            let prev = &tokens[j - 1];
            if prev.kind == TokenKind::DocComment {
                documented = true;
                break;
            }
            if prev.is_punct("]") {
                // Skip the attribute backwards; treat #[doc...] as docs.
                let mut depth = 1usize;
                let mut k = j - 1;
                let mut has_doc_ident = false;
                while k > 0 && depth > 0 {
                    k -= 1;
                    if tokens[k].is_punct("]") {
                        depth += 1;
                    } else if tokens[k].is_punct("[") {
                        depth -= 1;
                    } else if tokens[k].is_ident("doc") {
                        has_doc_ident = true;
                    }
                }
                if k > 0 && tokens[k - 1].is_punct("#") {
                    k -= 1;
                }
                if has_doc_ident {
                    documented = true;
                    break;
                }
                j = k;
                continue;
            }
            break;
        }
        if !documented {
            let name = tokens
                .get(name_idx)
                .map(|t| t.text.clone())
                .unwrap_or_default();
            diag(
                out,
                "pub-docs",
                path,
                t.line,
                format!("public {item_kind} `{name}` lacks a doc comment"),
            );
        }
    }
}

/// `unsafe-forbidden`: every library crate keeps `#![forbid(unsafe_code)]`
/// at its root, so the no-unsafe guarantee can't silently erode.
fn unsafe_forbidden(path: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    let has = tokens.windows(4).any(|w| {
        w[0].is_ident("forbid")
            && w[1].is_punct("(")
            && w[2].is_ident("unsafe_code")
            && w[3].is_punct(")")
    });
    if !has {
        diag(
            out,
            "unsafe-forbidden",
            path,
            1,
            "library crate root is missing `#![forbid(unsafe_code)]`",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_items};

    const HOT: &str = "crates/sat-solver/src/solver.rs";
    const SOLVER: &str = "crates/cnf/src/parse.rs";
    const LIB: &str = "crates/telemetry/src/record.rs";

    /// Lints one file and applies its inline allows, as the driver does.
    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let mut diags = Vec::new();
        lint_file(path, &strip_test_items(&lexed.tokens), &mut diags);
        let mut allows = Allows::default();
        allows.insert(path, lexed.allows);
        allows.apply(&mut diags);
        diags
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn no_panic_catches_unwrap_expect_panic() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    let b = x.expect(\"msg\");\n    panic!(\"boom\");\n}";
        let d = run(HOT, src);
        assert_eq!(rules(&d), vec!["no-panic", "no-panic", "no-panic"]);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[2].line, 4);
    }

    #[test]
    fn no_panic_ignores_unwrap_or_and_tests_and_other_files() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u32>.unwrap(); }\n}";
        assert!(run(HOT, src).is_empty());
        let elsewhere = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(run("crates/bench/src/report.rs", elsewhere).is_empty());
    }

    #[test]
    fn no_index_catches_indexing_but_not_literals_or_types() {
        let src = "fn f(xs: &[u32], i: usize) -> u32 {\n    let a: [u8; 4] = [0; 4];\n    for x in [1u32, 2] { let _ = x; }\n    let v = vec![1];\n    xs[i]\n}";
        let d = run(HOT, src);
        assert_eq!(rules(&d), vec!["no-index"]);
        assert_eq!(d[0].line, 5);
    }

    #[test]
    fn no_index_respects_inline_allow() {
        let src = "fn f(xs: &[u32]) -> u32 {\n    xs[0] // xtask: allow(no-index) audited\n}";
        assert!(run(HOT, src).is_empty());
    }

    #[test]
    fn no_hard_assert_wants_debug_assert() {
        let src = "fn f(x: u32) {\n    assert!(x > 0);\n    debug_assert!(x > 0);\n    assert_eq!(x, 1);\n}";
        let d = run(HOT, src);
        assert_eq!(rules(&d), vec!["no-hard-assert", "no-hard-assert"]);
    }

    #[test]
    fn no_hash_iter_catches_iteration_not_lookup() {
        let src = "use std::collections::HashMap;\nfn f() {\n    let mut m: HashMap<u32, u32> = HashMap::new();\n    m.insert(1, 2);\n    let _ = m.get(&1);\n    for (k, v) in &m { let _ = (k, v); }\n    let _: Vec<_> = m.keys().collect();\n}";
        let d = run(SOLVER, src);
        assert_eq!(rules(&d), vec!["no-hash-iter", "no-hash-iter"]);
        assert_eq!(d[0].line, 6); // the for-loop
        assert_eq!(d[1].line, 7); // .keys()
    }

    #[test]
    fn no_hash_iter_tracks_untyped_let_and_fields() {
        let src = "use std::collections::HashSet;\nstruct S { seen: HashSet<u32> }\nimpl S {\n    fn f(&self) {\n        for v in &self.seen { let _ = v; }\n    }\n}\nfn g() {\n    let s = HashSet::from([1u32]);\n    let _ = s.iter().count();\n}";
        let d = run(SOLVER, src);
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn atomic_ordering_flags_relaxed_in_concurrency_modules() {
        let src = "use std::sync::atomic::{AtomicBool, Ordering};\nfn f(stop: &AtomicBool) {\n    stop.store(true, Ordering::Relaxed);\n    let _ = stop.load(Ordering::Acquire);\n    stop.store(false, std::sync::atomic::Ordering::Relaxed);\n}";
        let d = run("crates/rsatd/src/daemon.rs", src);
        assert_eq!(rules(&d), vec!["atomic-ordering", "atomic-ordering"]);
        assert_eq!(d[0].line, 3);
        assert_eq!(d[1].line, 5); // fully qualified path is caught too
    }

    #[test]
    fn atomic_ordering_respects_inline_allow_and_scope() {
        let allowed = "fn f(n: &std::sync::atomic::AtomicU64) {\n    n.fetch_add(1, Ordering::Relaxed); // xtask: allow(atomic-ordering) statistics counter\n}";
        assert!(run("crates/rsatd/src/daemon.rs", allowed).is_empty());
        // Every source file is in scope, binaries included; integration
        // tests outside `src/` are not.
        let relaxed =
            "fn f(n: &std::sync::atomic::AtomicU64) { n.fetch_add(1, Ordering::Relaxed); }";
        assert_eq!(
            rules(&run("crates/bench/src/report.rs", relaxed)),
            vec!["atomic-ordering"]
        );
        assert_eq!(
            rules(&run("crates/rsatd/src/bin/rsatd.rs", relaxed)),
            vec!["atomic-ordering"]
        );
        assert!(run("crates/rsatd/tests/observability.rs", relaxed).is_empty());
        // Test modules are stripped before linting.
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn t(s: &std::sync::atomic::AtomicBool) { s.store(true, Ordering::Relaxed); }\n}";
        assert!(run("crates/rsatd/src/daemon.rs", in_tests).is_empty());
    }

    #[test]
    fn no_unwind_escape_confines_reraise_to_the_resilience_module() {
        let src = "fn f(p: Box<dyn std::any::Any + Send>) {\n    std::panic::resume_unwind(p);\n}\nfn g() {\n    std::process::abort();\n}";
        let d = run("crates/core/src/select.rs", src);
        assert_eq!(rules(&d), vec!["no-unwind-escape", "no-unwind-escape"]);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[1].line, 5);
        // The resilience module itself is exempt.
        assert!(run("crates/sat-solver/src/resilience.rs", src).is_empty());
        // An audited site can be annotated inline.
        let allowed = "fn f(p: Box<dyn std::any::Any + Send>) {\n    std::panic::resume_unwind(p); // xtask: allow(no-unwind-escape) audited\n}";
        assert!(run("crates/core/src/select.rs", allowed).is_empty());
        // `abort` as an ordinary method name is not flagged.
        let method = "fn f(tx: &Transaction) { tx.abort(); }";
        assert!(run("crates/core/src/select.rs", method).is_empty());
    }

    #[test]
    fn no_float_eq_catches_literal_compares() {
        let src = "fn f(x: f64) -> bool {\n    if x == 0.0 { return true; }\n    let _ = x != 1.5;\n    let _ = 2.0 == x;\n    x as u32 == 0\n}";
        let d = run(LIB, src);
        assert_eq!(rules(&d), vec!["no-float-eq", "no-float-eq", "no-float-eq"]);
    }

    #[test]
    fn pub_docs_requires_doc_comments() {
        let src = "/// Documented.\npub fn good() {}\npub fn bad() {}\n#[derive(Debug)]\npub struct Worse { pub field: u32 }\npub(crate) fn internal() {}\npub use std::fmt;";
        let d = run(LIB, src);
        let names: Vec<&str> = d.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(d.len(), 3, "{names:?}");
        assert!(d[0].message.contains("`bad`"));
        assert!(d[1].message.contains("`Worse`"));
        assert!(d[2].message.contains("`field`"));
    }

    #[test]
    fn pub_docs_accepts_attrs_between_doc_and_item() {
        let src = "/// Documented.\n#[derive(Debug, Clone)]\n#[repr(C)]\npub struct Fine { \n    /// Also documented.\n    pub x: u32,\n}";
        assert!(run(LIB, src).is_empty());
    }

    #[test]
    fn unsafe_forbidden_checks_lib_roots() {
        let src = "//! Crate docs.\n#![warn(missing_docs)]\nfn private() {}";
        let d = run("crates/cnf/src/lib.rs", src);
        assert!(rules(&d).contains(&"unsafe-forbidden"));
        let ok = "//! Crate docs.\n#![forbid(unsafe_code)]\nfn private() {}";
        let d = run("crates/cnf/src/lib.rs", ok);
        assert!(!rules(&d).contains(&"unsafe-forbidden"));
    }
}
