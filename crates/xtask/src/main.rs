//! Repository automation tasks. `cargo run -p xtask -- lint` runs the
//! project-specific static checks over the workspace sources — per-file
//! token rules plus the interprocedural call-graph rules (transitive
//! hot-path purity, lock-order). See DESIGN.md for the rule catalogue and
//! §14 for the call-graph model.

mod callgraph;
mod extract;
mod lexer;
mod lockorder;
mod rules;

use rules::Diagnostic;
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
                   (per-file rules + transitive hot-path purity +
                   lock-order); --json emits one JSON object per finding
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

/// Per-file output of the parallel lex/lint/extract stage.
struct FileResult {
    rel: String,
    diags: Vec<Diagnostic>,
    facts: extract::FileFacts,
    allows: Vec<(u32, String)>,
}

/// Lexes, lints, and extracts one file (runs on a worker thread).
fn process_file(root: &Path, file: &Path) -> Result<FileResult, String> {
    let rel = relative(root, file);
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {rel}: {e}"))?;
    let lexed = lexer::lex(&src);
    let tokens = lexer::strip_test_items(&lexed.tokens);
    let mut diags = Vec::new();
    rules::lint_lexed(&rel, &lexed, &tokens, &mut diags);
    let facts = extract::extract_file(&rel, &src, tokens);
    Ok(FileResult {
        rel,
        diags,
        facts,
        allows: lexed.allows,
    })
}

/// Runs the per-file stage across all sources with scoped threads. The
/// file list is split into contiguous chunks (one per worker), and the
/// chunk results are concatenated in spawn order, so the output is
/// deterministic regardless of scheduling.
fn process_all(root: &Path, files: &[PathBuf]) -> Result<Vec<FileResult>, String> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8);
    if workers == 1 || files.len() < 2 {
        return files.iter().map(|f| process_file(root, f)).collect();
    }
    let chunk = files.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = files
            .chunks(chunk)
            .map(|slice| s.spawn(move || slice.iter().map(|f| process_file(root, f)).collect()))
            .collect();
        let mut out = Vec::with_capacity(files.len());
        for h in handles {
            let chunk_results: Vec<Result<FileResult, String>> = h
                .join()
                .map_err(|_| "lint worker thread panicked".to_string())?;
            for r in chunk_results {
                out.push(r?);
            }
        }
        Ok(out)
    })
}

fn lint(json: bool) -> ExitCode {
    let root = workspace_root();
    let mut diags: Vec<Diagnostic> = Vec::new();

    let results = match process_all(&root, &collect_sources(&root)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };
    let mut allow_map = callgraph::AllowMap::new();
    let mut facts = Vec::with_capacity(results.len());
    for r in results {
        diags.extend(r.diags);
        if !r.allows.is_empty() {
            allow_map.insert(r.rel.clone(), r.allows);
        }
        facts.push(r.facts);
    }

    // Interprocedural rules over the assembled call graph.
    let graph = callgraph::Graph::build(facts);
    callgraph::hot_path_purity(&graph, &allow_map, &mut diags);
    lockorder::lock_analysis(&graph, &allow_map, &mut diags);

    // File-level allowlist. Entries pointing at files that no longer
    // exist are hard errors (a dead suppression hides nothing today but
    // will silently re-arm if the path comes back), distinct from stale
    // entries whose file exists but whose diagnostic is gone.
    let allow_path = root.join("crates/xtask/lint.allow");
    let (stale, dead) = match std::fs::read_to_string(&allow_path) {
        Ok(text) => match rules::parse_allowlist(&text) {
            Ok(entries) => {
                let (live, dead): (Vec<_>, Vec<_>) = entries
                    .into_iter()
                    .partition(|e| root.join(&e.path).exists());
                (rules::apply_allowlist(&mut diags, &live), dead)
            }
            Err(e) => {
                eprintln!("xtask: {e}");
                return ExitCode::from(2);
            }
        },
        Err(_) => (Vec::new(), Vec::new()), // no allowlist file
    };

    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let println_or_json = |d: &Diagnostic| {
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
    };
    for d in &diags {
        println_or_json(d);
    }
    for e in &dead {
        let msg = format!(
            "dead entry `{} {}{}`: the file does not exist; remove the entry",
            e.rule,
            e.path,
            e.line.map(|l| format!(":{l}")).unwrap_or_default()
        );
        println_or_json(&Diagnostic {
            rule: "dead-allow",
            path: "crates/xtask/lint.allow".to_string(),
            line: 1,
            message: msg,
        });
    }
    for e in &stale {
        let msg = format!(
            "stale entry `{} {}{}` matches nothing; remove it",
            e.rule,
            e.path,
            e.line.map(|l| format!(":{l}")).unwrap_or_default()
        );
        println_or_json(&Diagnostic {
            rule: "stale-allow",
            path: "crates/xtask/lint.allow".to_string(),
            line: 1,
            message: msg,
        });
    }
    let total = diags.len() + stale.len() + dead.len();
    if total == 0 {
        eprintln!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask lint: {} violation(s), {} stale / {} dead allowlist entr(ies)",
            diags.len(),
            stale.len(),
            dead.len()
        );
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

/// Builds the call graph from the current sources (no lint rules).
fn build_graph(root: &Path) -> Result<callgraph::Graph, String> {
    let results = process_all(root, &collect_sources(root))?;
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
