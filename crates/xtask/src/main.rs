//! Repository automation tasks. `cargo run -p xtask -- lint` runs the
//! project-specific static checks over the workspace sources — per-file
//! token rules plus the transitive hot-path purity rule over the
//! workspace call graph. See DESIGN.md §9.1 for the rule catalogue and
//! §14 for the call-graph model.

mod callgraph;
mod extract;
mod lexer;
mod rules;

use rules::{Allows, Diagnostic};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("lint");
    match command {
        "lint" => lint(args.iter().any(|a| a == "--json")),
        "callgraph" => callgraph_cmd(&args[1..]),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("xtask: unknown command {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: cargo run -p xtask -- <command>

commands:
  lint [--json]    run the project lint rules over all workspace sources
                   (per-file rules + transitive hot-path purity); --json
                   emits one JSON object per finding
  callgraph --dot FN
                   print the Graphviz subgraph reachable from fns
                   matching FN (exact id, `::`-suffix, or bare name)
";

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Per-file output of the lex/lint/extract stage.
struct FileResult {
    rel: String,
    diags: Vec<Diagnostic>,
    facts: extract::FileFacts,
    allows: Vec<(u32, String)>,
}

/// Lexes, lints, and extracts one file (`rel` is its workspace-relative
/// path).
fn process_file(rel: &str, src: &str) -> FileResult {
    let lexed = lexer::lex(src);
    let tokens = lexer::strip_test_items(&lexed.tokens);
    let mut diags = Vec::new();
    rules::lint_file(rel, &tokens, &mut diags);
    FileResult {
        rel: rel.to_string(),
        diags,
        facts: extract::extract_file(rel, src, &tokens),
        allows: lexed.allows,
    }
}

/// Reads and processes every workspace source, in path order.
fn process_all(root: &Path) -> Result<Vec<FileResult>, String> {
    collect_sources(root)
        .iter()
        .map(|file| {
            let rel = relative(root, file);
            let src =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {rel}: {e}"))?;
            Ok(process_file(&rel, &src))
        })
        .collect()
}

/// Every finding over the processed files, sorted by location: the
/// per-file rules and the purity walk over the assembled call graph,
/// then the one suppression pass, which also reports stale allows.
fn findings(results: Vec<FileResult>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut allows = Allows::default();
    let mut facts = Vec::with_capacity(results.len());
    for r in results {
        diags.extend(r.diags);
        allows.insert(&r.rel, r.allows);
        facts.push(r.facts);
    }
    let graph = callgraph::Graph::build(facts);
    callgraph::hot_path_purity(&graph, &mut allows, &mut diags);
    allows.apply(&mut diags);
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    diags
}

fn lint(json: bool) -> ExitCode {
    let results = match process_all(&workspace_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };
    let diags = findings(results);
    for d in &diags {
        if json {
            println!(
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                json_escape(d.rule),
                json_escape(&d.path),
                d.line,
                json_escape(&d.message)
            );
        } else {
            println!("{d}");
        }
    }
    if diags.is_empty() {
        eprintln!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builds the call graph from the current sources.
fn build_graph(root: &Path) -> Result<callgraph::Graph, String> {
    let results = process_all(root)?;
    Ok(callgraph::Graph::build(
        results.into_iter().map(|r| r.facts).collect(),
    ))
}

fn callgraph_cmd(args: &[String]) -> ExitCode {
    let pattern = match args {
        [flag, fn_name] if flag == "--dot" => fn_name,
        _ => {
            eprintln!("xtask: usage: cargo run -p xtask -- callgraph --dot FN");
            return ExitCode::from(2);
        }
    };
    let root = workspace_root();
    let graph = match build_graph(&root) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };
    match callgraph::dot(&graph, pattern) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::from(2)
        }
    }
}

/// All `.rs` files under `crates/*/src`, workspace-relative order.
/// `vendor/` (third-party shims) and `target/` are out of scope, as are
/// integration-test and bench directories: the rules govern shipped code.
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        walk(&dir.join("src"), &mut files);
    }
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn relative(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The suppression pass counts an allow as used by whichever check
    /// honors it — a per-file rule, the purity walk's `no-index` stand-in
    /// for `hot-path-purity`, or the walk's `hot-path-call` edge pruning
    /// — and reports only the allow that suppressed nothing.
    #[test]
    fn only_allows_that_suppress_nothing_are_stale() {
        let solver = "struct Solver;\n\
                      impl Solver {\n    fn propagate(&mut self) -> Option<u32> {\n        \
                      helper(&[1]);\n        \
                      cold_path(self); // xtask: allow(hot-path-call) audited cold branch\n        \
                      None\n    }\n\
                      fn analyze(&mut self) {}\n    fn lit_redundant(&mut self) -> bool { false }\n}\n\
                      fn cold_path(_s: &mut Solver) { let mut v = Vec::new(); v.push(1); }";
        let util = "pub(crate) fn helper(xs: &[u32]) -> u32 {\n    \
                    xs[0] // xtask: allow(no-index) callers pass a non-empty slice\n}\n\
                    // xtask: allow(no-float-eq) exact zero is the sentinel\n\
                    pub(crate) fn is_zero(x: f64) -> bool { x == 0.0 }\n\
                    // xtask: allow(no-panic) nothing here panics\n\
                    pub(crate) fn clean() {}";
        let varmap = "fn at() {}\nstruct VarMap;\nimpl VarMap { fn get(&self) {} fn get_mut(&mut self) {} }\n\
                      struct LitMap;\nimpl LitMap { fn get_mut(&mut self) {} }";
        let diags = findings(vec![
            process_file("crates/sat-solver/src/solver.rs", solver),
            process_file("crates/sat-solver/src/util.rs", util),
            process_file("crates/sat-solver/src/varmap.rs", varmap),
        ]);
        let found: Vec<String> = diags
            .iter()
            .map(|d| format!("{}:{}: [{}]", d.path, d.line, d.rule))
            .collect();
        assert_eq!(
            found,
            vec!["crates/sat-solver/src/util.rs:6: [stale-allow]"],
            "{diags:?}"
        );
        assert!(diags[0].message.contains("allow(no-panic)"), "{diags:?}");
    }
}
