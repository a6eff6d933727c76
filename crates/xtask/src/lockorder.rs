//! Lock-order and lock-panic analysis over the workspace call graph.
//!
//! From each fn's token stream we recover every `Mutex` acquisition site
//! and the *guard scope* it creates (DESIGN.md §14):
//!
//! * a `let`-bound guard (`let g = m.lock()…;`) is live from the end of
//!   its `let` statement to the close of the enclosing block, truncated
//!   at an explicit `drop(g)`;
//! * a temporary guard (`m.lock().unwrap().push(x);`) is live for the
//!   rest of its statement — the poisoning-recovery chain immediately
//!   after `.lock()` (`.unwrap()`, `.unwrap_or_else(…)`, `.ok()`) runs
//!   on the `LockResult` *before* the guard exists and is skipped;
//! * a guard-returning fn (`fn lock_stripe(…) -> Option<MutexGuard<…>>`)
//!   propagates its acquisition to every caller, where the call site is
//!   treated exactly like a direct `.lock()`.
//!
//! Lock identity is `Type.field` (`Inner.sessions` in `rsatd`'s daemon) —
//! element granularity inside a collection of mutexes (a lock-striped
//! `Pool.stripes`) is deliberately collapsed, so acquiring a second
//! stripe while holding one shows up as a self-edge that must be
//! justified (ordered indices) or restructured. Statics are
//! `module::NAME`.
//!
//! Two rules fire on top of the per-fn scopes plus the call graph's
//! transitive closure (all build configurations — a deadlock behind a
//! feature flag is still a deadlock):
//!
//! * `lock-order` — a held-while-acquiring edge `A → B` that is part of
//!   a cycle (including the self-edge double-acquire case);
//! * `lock-panic` — a panic-capable or IO (blocking) effect, or a call
//!   that can transitively reach one, while a guard is held. Raw
//!   indexing is *not* flagged here: the workspace's audited-indexing
//!   discipline (`no-index` + debug bound audits) covers it, and
//!   treating every slice access as panic-capable would drown the rule.

use crate::callgraph::{allowed, short_id, AllowMap, Graph};
use crate::extract::{CallTarget, EffectKind, Receiver};
use crate::lexer::Token;
use crate::rules::Diagnostic;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Return-type tokens that mark a fn as guard-returning.
const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// Methods chained directly onto `.lock()` that operate on the
/// `LockResult` (poison recovery), not on the live guard.
const RECOVERY_METHODS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err", "ok"];

/// One acquisition site inside a fn body.
struct Acq {
    /// Lock identity (`Type.field` or `module::STATIC`).
    lock: String,
    /// Token index of the acquiring call name.
    tok: usize,
    /// Source line.
    line: u32,
    /// Guard liveness as a token range in the file stream.
    scope: (usize, usize),
}

/// Per-fn scan state reused across the two acquisition passes.
struct ScanCtx {
    node: usize,
    /// `let` statements: (binding name, `=` tok, `;` tok).
    lets: Vec<(String, usize, usize)>,
    /// Local alias → lock base (`stripe` → `Pool.stripes`).
    aliases: HashMap<String, String>,
    /// Brace pairs inside the body, for enclosing-block lookup.
    braces: Vec<(usize, usize)>,
    body: (usize, usize),
}

/// Entry point: analyzes every fn with a body, emits `lock-order` and
/// `lock-panic` diagnostics (inline-allow aware).
pub fn lock_analysis(g: &Graph, allows: &AllowMap, diags: &mut Vec<Diagnostic>) {
    // Pass A: per-fn direct `.lock()` acquisitions and guard-returning
    // fns' propagated lock.
    let mut ctxs: Vec<ScanCtx> = Vec::new();
    let mut acqs: Vec<Vec<Acq>> = (0..g.nodes.len()).map(|_| Vec::new()).collect();
    let mut returned: HashMap<usize, String> = HashMap::new();
    for (idx, slot) in acqs.iter_mut().enumerate() {
        if let Some(ctx) = scan_ctx(g, idx) {
            let direct = direct_acqs(g, &ctx);
            if g.nodes[idx]
                .item
                .ret
                .iter()
                .any(|t| GUARD_TYPES.contains(&t.as_str()))
            {
                if let Some(first) = direct.iter().min_by_key(|a| a.tok) {
                    returned.insert(idx, first.lock.clone());
                }
            }
            *slot = direct;
            ctxs.push(ctx);
        }
    }
    // Pass B: calls to guard-returning fns are acquisitions in the
    // caller, with the same scope inference.
    for ctx in &ctxs {
        let node = &g.nodes[ctx.node];
        let Some(ff) = g.file_tokens(&node.item.path) else {
            continue;
        };
        let seen: BTreeSet<usize> = acqs[ctx.node].iter().map(|a| a.tok).collect();
        let mut extra = Vec::new();
        for e in &node.edges {
            if seen.contains(&e.tok) || extra.iter().any(|a: &Acq| a.tok == e.tok) {
                continue;
            }
            if let Some(lock) = returned.get(&e.to) {
                extra.push(Acq {
                    lock: lock.clone(),
                    tok: e.tok,
                    line: e.line,
                    scope: guard_scope(&ff.tokens, ctx, e.tok),
                });
            }
        }
        acqs[ctx.node].extend(extra);
    }
    // Transitive closures over the full call graph: which locks a fn can
    // acquire, and whether it can panic or block on IO.
    let t_acquires = fixpoint_locks(g, &acqs);
    let panics = fixpoint_panics(g);

    let mut out: BTreeSet<(String, u32, &'static str, String)> = BTreeSet::new();
    // (lock A, lock B) → witness (path, line, fn id).
    let mut held: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    for ctx in &ctxs {
        let node = &g.nodes[ctx.node];
        let path = &node.item.path;
        for a in &acqs[ctx.node] {
            let (s, e) = a.scope;
            // Inner direct acquisitions while `a` is held.
            for b in &acqs[ctx.node] {
                if b.tok > s && b.tok < e {
                    held.entry((a.lock.clone(), b.lock.clone())).or_insert((
                        path.clone(),
                        b.line,
                        node.item.id.clone(),
                    ));
                }
            }
            // Calls made while `a` is held.
            for edge in &node.edges {
                if edge.tok <= s || edge.tok >= e {
                    continue;
                }
                for l in t_acquires.get(&edge.to).into_iter().flatten() {
                    held.entry((a.lock.clone(), l.clone())).or_insert((
                        path.clone(),
                        edge.line,
                        node.item.id.clone(),
                    ));
                }
                if let Some(site) = panics.get(&edge.to) {
                    if !allowed(allows, path, "lock-panic", edge.line) {
                        out.insert((
                            path.clone(),
                            edge.line,
                            "lock-panic",
                            format!(
                                "call to `{}` while holding `{}` can reach {}; shrink the \
                                 critical section (drop the guard first) or annotate with \
                                 `// xtask: allow(lock-panic) <why>`",
                                short_id(&g.nodes[edge.to].item.id),
                                a.lock,
                                site
                            ),
                        ));
                    }
                }
            }
            // Panic/IO effects of this fn inside the guard scope.
            for ef in &node.item.effects {
                if ef.tok <= s || ef.tok >= e {
                    continue;
                }
                if !matches!(ef.kind, EffectKind::Panic | EffectKind::Io) {
                    continue;
                }
                if allowed(allows, path, "lock-panic", ef.line) {
                    continue;
                }
                out.insert((
                    path.clone(),
                    ef.line,
                    "lock-panic",
                    format!(
                        "{} while holding `{}`; a panic here poisons the lock (and IO \
                         blocks everyone waiting on it) — drop the guard first or \
                         annotate with `// xtask: allow(lock-panic) <why>`",
                        ef.what, a.lock
                    ),
                ));
            }
        }
    }
    // Cycle detection on the held-while-acquiring lock graph.
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (a, b) in held.keys() {
        adj.entry(a).or_default().push(b);
    }
    let reaches = |from: &String, to: &String| -> bool {
        let mut stack = vec![from];
        let mut seen: BTreeSet<&String> = BTreeSet::new();
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if seen.insert(x) {
                if let Some(next) = adj.get(x) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    for ((a, b), (path, line, fn_id)) in &held {
        if allowed(allows, path, "lock-order", *line) {
            continue;
        }
        if a == b {
            out.insert((
                path.clone(),
                *line,
                "lock-order",
                format!(
                    "`{}` acquired in `{}` while a guard for it is already held \
                     (double-acquire / stripe self-edge); if the two acquisitions are \
                     provably distinct and ordered, annotate with \
                     `// xtask: allow(lock-order) <why>`",
                    a,
                    short_id(fn_id)
                ),
            ));
        } else if reaches(b, a) {
            let other = held
                .iter()
                .find(|((x, _), _)| x == b)
                .map(|(_, (p, l, _))| format!("{p}:{l}"))
                .unwrap_or_else(|| "elsewhere".to_string());
            out.insert((
                path.clone(),
                *line,
                "lock-order",
                format!(
                    "lock-order cycle: `{}` is acquired here while `{}` is held (in \
                     `{}`), but the reverse order exists (see {}); pick one global \
                     order or annotate with `// xtask: allow(lock-order) <why>`",
                    b,
                    a,
                    short_id(fn_id),
                    other
                ),
            ));
        }
    }
    for (path, line, rule, message) in out {
        diags.push(Diagnostic {
            rule,
            path,
            line,
            message,
        });
    }
}

/// Builds the per-fn scan state: `let` statements, lock aliases, brace
/// pairs.
fn scan_ctx(g: &Graph, idx: usize) -> Option<ScanCtx> {
    let node = &g.nodes[idx];
    let (open, close) = node.item.body?;
    let ff = g.file_tokens(&node.item.path)?;
    let toks = &ff.tokens;
    let mut braces = Vec::new();
    let mut stack = Vec::new();
    for (k, t) in toks.iter().enumerate().take(close + 1).skip(open) {
        if t.is_punct("{") {
            stack.push(k);
        } else if t.is_punct("}") {
            if let Some(o) = stack.pop() {
                braces.push((o, k));
            }
        }
    }
    let mut ctx = ScanCtx {
        node: idx,
        lets: Vec::new(),
        aliases: HashMap::new(),
        braces,
        body: (open, close),
    };
    let self_base = node
        .item
        .self_type
        .clone()
        .unwrap_or_else(|| node.item.module.clone());
    let mut k = open + 1;
    while k < close {
        if !toks[k].is_ident("let") || toks[k - 1].is_ident("if") || toks[k - 1].is_ident("while") {
            k += 1;
            continue;
        }
        // Find `=` then `;` at delimiter depth 0 (handles let-else).
        let mut depth = 0i32;
        let mut eq = None;
        let mut semi = None;
        let mut colon = None;
        let mut m = k + 1;
        while m < close {
            let t = &toks[m];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
            } else if depth == 0 && t.is_punct(":") && eq.is_none() && colon.is_none() {
                colon = Some(m);
            } else if depth == 0 && t.is_punct("=") && eq.is_none() {
                eq = Some(m);
            } else if depth == 0 && t.is_punct(";") {
                semi = Some(m);
                break;
            }
            m += 1;
        }
        let (Some(eq), Some(semi)) = (eq, semi) else {
            k += 1;
            continue;
        };
        // Binding name: last lowercase ident in the pattern (skips
        // `mut`, `ref`, and `Ok`/`Some` constructors).
        let pat_end = colon.unwrap_or(eq).min(eq);
        let name = toks[k + 1..pat_end]
            .iter()
            .rfind(|t| {
                t.is_ident_kind()
                    && !t.is_ident("mut")
                    && !t.is_ident("ref")
                    && t.text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase() || c == '_')
            })
            .map(|t| t.text.clone());
        if let Some(name) = name {
            // Alias: an initializer reading `self.field…` or a lock
            // static binds the name to that lock base.
            if let Some(base) = init_lock_base(g, &self_base, toks, eq + 1, semi) {
                ctx.aliases.insert(name.clone(), base);
            }
            ctx.lets.push((name, eq, semi));
        }
        k = semi + 1;
    }
    Some(ctx)
}

/// Lock base named by an initializer token range: `self.f1.f2…` resolved
/// through struct field types, or a known lock static.
fn init_lock_base(
    g: &Graph,
    self_base: &str,
    toks: &[Token],
    start: usize,
    end: usize,
) -> Option<String> {
    let mut m = start;
    while m < end {
        let t = &toks[m];
        if t.is_ident("self") && m + 2 < end && toks[m + 1].is_punct(".") {
            let mut fields = Vec::new();
            let mut p = m + 2;
            while p < end && toks[p].is_ident_kind() {
                // Stop at a method call segment (`.get(…)`).
                if p + 1 < end && toks[p + 1].is_punct("(") {
                    break;
                }
                fields.push(toks[p].text.clone());
                if p + 2 < end && toks[p + 1].is_punct(".") {
                    p += 2;
                } else {
                    break;
                }
            }
            if !fields.is_empty() {
                return Some(field_lock_id(g, self_base, &fields));
            }
        }
        if t.is_ident_kind() {
            if let Some(module) = g.lock_statics.get(&t.text) {
                return Some(format!("{module}::{}", t.text));
            }
        }
        m += 1;
    }
    None
}

/// `Type.field` lock id for a field chain, walking intermediate field
/// types where the struct definitions are known.
fn field_lock_id(g: &Graph, start: &str, fields: &[String]) -> String {
    let last = fields.last().map(String::as_str).unwrap_or("");
    match g.owner_of_field(start, fields) {
        Some(owner) => format!("{owner}.{last}"),
        None => format!("{start}.{}", fields.join(".")),
    }
}

/// Direct `.lock()` acquisitions of one fn, with their guard scopes.
fn direct_acqs(g: &Graph, ctx: &ScanCtx) -> Vec<Acq> {
    let node = &g.nodes[ctx.node];
    let Some(ff) = g.file_tokens(&node.item.path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for ef in &node.item.effects {
        if ef.kind != EffectKind::Lock {
            continue;
        }
        let recv = node.item.calls.iter().find_map(|c| match &c.target {
            CallTarget::Method { name, receiver } if c.tok == ef.tok && name == "lock" => {
                Some(receiver.clone())
            }
            _ => None,
        });
        let lock = match recv {
            Some(r) => receiver_lock_id(g, ctx, &r, ef.line),
            None => format!("{}.<expr>:{}", node.item.module, ef.line),
        };
        out.push(Acq {
            lock,
            tok: ef.tok,
            line: ef.line,
            scope: guard_scope(&ff.tokens, ctx, ef.tok),
        });
    }
    out
}

/// Lock identity for an acquisition receiver.
fn receiver_lock_id(g: &Graph, ctx: &ScanCtx, recv: &Receiver, line: u32) -> String {
    let item = &g.nodes[ctx.node].item;
    let self_base = item
        .self_type
        .clone()
        .unwrap_or_else(|| item.module.clone());
    match recv {
        Receiver::SelfChain(fields) if !fields.is_empty() => field_lock_id(g, &self_base, fields),
        Receiver::SelfChain(_) => self_base,
        Receiver::VarChain(chain) => {
            let head = &chain[0];
            if let Some(a) = ctx.aliases.get(head) {
                return a.clone();
            }
            if let Some(module) = g.lock_statics.get(head) {
                return format!("{module}::{head}");
            }
            if let Some((_, ty)) = item.params.iter().find(|(p, _)| p == head) {
                if let Some(base) = Graph::base_type_name(ty) {
                    if chain.len() > 1 {
                        return field_lock_id(g, &base, &chain[1..]);
                    }
                    return base;
                }
            }
            format!("{}.{}", item.module, chain.join("."))
        }
        Receiver::Call(inner) => call_lock_base(g, ctx, inner)
            .unwrap_or_else(|| format!("{}.<call>:{line}", item.module)),
        Receiver::Opaque => format!("{}.<opaque>:{line}", item.module),
    }
}

/// Lock base of a call expression used as a lock receiver
/// (`collector().lock()`, `self.pool.handle().lock()`).
fn call_lock_base(g: &Graph, ctx: &ScanCtx, target: &CallTarget) -> Option<String> {
    let item = &g.nodes[ctx.node].item;
    match target {
        CallTarget::Path(segs) => {
            let name = segs.last()?;
            let id = format!("{}::{name}", item.module);
            if let Some(idx) = g.by_id(&id) {
                return Some(g.nodes[idx].item.id.clone());
            }
            // Any unique workspace free fn with the name: its id is a
            // stable identity for the lock it hands out.
            Some(format!("fn:{name}"))
        }
        CallTarget::Method { receiver, .. } => match receiver {
            Receiver::SelfChain(fields) if !fields.is_empty() => {
                let base = item
                    .self_type
                    .clone()
                    .unwrap_or_else(|| item.module.clone());
                Some(field_lock_id(g, &base, fields))
            }
            Receiver::VarChain(chain) => {
                let head = &chain[0];
                if let Some(a) = ctx.aliases.get(head) {
                    return Some(a.clone());
                }
                g.lock_statics
                    .get(head)
                    .map(|module| format!("{module}::{head}"))
            }
            _ => None,
        },
        CallTarget::MacroUse(_) => None,
    }
}

/// Guard scope for an acquisition at `tok`: `let`-bound (statement end →
/// enclosing block close, truncated at `drop(name)`) or temporary (after
/// the recovery chain → statement end; an `{` at depth 0 — the `if let`
/// body — extends through its block).
fn guard_scope(toks: &[Token], ctx: &ScanCtx, tok: usize) -> (usize, usize) {
    let (_, body_close) = ctx.body;
    for (name, eq, semi) in &ctx.lets {
        if tok > *eq && tok < *semi {
            let close = enclosing_close(&ctx.braces, *semi).unwrap_or(body_close);
            let mut end = close;
            // `drop(name)` inside the scope ends it early.
            let mut m = semi + 1;
            while m + 3 <= close {
                if toks[m].is_ident("drop")
                    && toks[m + 1].is_punct("(")
                    && toks[m + 2].is_ident(name)
                    && toks[m + 3].is_punct(")")
                {
                    end = m;
                    break;
                }
                m += 1;
            }
            return (*semi, end);
        }
    }
    // Temporary guard: start after the call's arguments and any poison
    // recovery chained straight onto `.lock()`.
    let mut p = tok + 1;
    if p < toks.len() && toks[p].is_punct("(") {
        p = match_open(toks, p, body_close, "(", ")");
    }
    loop {
        if p + 2 < toks.len()
            && toks[p + 1].is_punct(".")
            && toks[p + 2].is_ident_kind()
            && RECOVERY_METHODS.contains(&toks[p + 2].text.as_str())
            && p + 3 < toks.len()
            && toks[p + 3].is_punct("(")
        {
            p = match_open(toks, p + 3, body_close, "(", ")");
        } else {
            break;
        }
    }
    let start = p;
    let mut depth = 0i32;
    let mut m = p + 1;
    while m < body_close {
        let t = &toks[m];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            if depth == 0 {
                return (start, m); // approximation: argument-position
                                   // temporary ends with its call
            }
            depth -= 1;
        } else if t.is_punct("{") && depth == 0 {
            return (start, match_open(toks, m, body_close, "{", "}"));
        } else if t.is_punct(";") && depth == 0 {
            return (start, m);
        }
        m += 1;
    }
    (start, body_close)
}

/// Index of the token closing the delimiter opened at `open`.
fn match_open(toks: &[Token], open: usize, limit: usize, o: &str, c: &str) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i <= limit && i < toks.len() {
        if toks[i].is_punct(o) {
            depth += 1;
        } else if toks[i].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    limit
}

/// Innermost brace pair containing `tok`.
fn enclosing_close(braces: &[(usize, usize)], tok: usize) -> Option<usize> {
    braces
        .iter()
        .filter(|(o, c)| *o < tok && tok < *c)
        .min_by_key(|(o, c)| c - o)
        .map(|(_, c)| *c)
}

/// Transitive lock acquisitions per fn (fixpoint over all edges).
fn fixpoint_locks(g: &Graph, acqs: &[Vec<Acq>]) -> HashMap<usize, BTreeSet<String>> {
    let mut sets: HashMap<usize, BTreeSet<String>> = HashMap::new();
    for (idx, list) in acqs.iter().enumerate() {
        if !list.is_empty() {
            sets.insert(idx, list.iter().map(|a| a.lock.clone()).collect());
        }
    }
    loop {
        let mut changed = false;
        for idx in 0..g.nodes.len() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for e in &g.nodes[idx].edges {
                if let Some(s) = sets.get(&e.to) {
                    add.extend(s.iter().cloned());
                }
            }
            if add.is_empty() {
                continue;
            }
            let cur = sets.entry(idx).or_default();
            let before = cur.len();
            cur.extend(add);
            changed |= cur.len() != before;
        }
        if !changed {
            return sets;
        }
    }
}

/// Transitive panic/IO capability per fn: maps fn index to a stable
/// description of one witness site.
fn fixpoint_panics(g: &Graph) -> HashMap<usize, String> {
    let mut sites: HashMap<usize, String> = HashMap::new();
    for (idx, n) in g.nodes.iter().enumerate() {
        if let Some(ef) = n
            .item
            .effects
            .iter()
            .find(|e| matches!(e.kind, EffectKind::Panic | EffectKind::Io))
        {
            sites.insert(idx, format!("{} at {}:{}", ef.what, n.item.path, ef.line));
        }
    }
    loop {
        let mut changed = false;
        for idx in 0..g.nodes.len() {
            if sites.contains_key(&idx) {
                continue;
            }
            let inherited = g.nodes[idx]
                .edges
                .iter()
                .find_map(|e| sites.get(&e.to).cloned());
            if let Some(s) = inherited {
                sites.insert(idx, s);
                changed = true;
            }
        }
        if !changed {
            return sites;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_file;
    use crate::lexer::{lex, strip_test_items};

    fn graph(files: &[(&str, &str)]) -> Graph {
        Graph::build(
            files
                .iter()
                .map(|(p, s)| {
                    let lexed = lex(s);
                    extract_file(p, s, strip_test_items(&lexed.tokens))
                })
                .collect(),
        )
    }

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        lock_analysis(&graph(files), &AllowMap::new(), &mut diags);
        diags
    }

    /// The acceptance-criteria regression: inverted acquisition order
    /// across two fns is a cycle.
    #[test]
    fn inverted_lock_order_is_a_cycle() {
        let src = "static ALPHA: Mutex<u32> = Mutex::new(0);\n\
                   static BETA: Mutex<u32> = Mutex::new(0);\n\
                   fn ab() {\n    let a = ALPHA.lock().unwrap();\n    let b = BETA.lock().unwrap();\n    drop(b); drop(a);\n}\n\
                   fn ba() {\n    let b = BETA.lock().unwrap();\n    let a = ALPHA.lock().unwrap();\n    drop(a); drop(b);\n}";
        let diags = run(&[("crates/core/src/lib.rs", src)]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "lock-order" && d.message.contains("cycle")),
            "{diags:?}"
        );
        // Consistent order in both fns: no cycle.
        let ok = "static ALPHA: Mutex<u32> = Mutex::new(0);\n\
                  static BETA: Mutex<u32> = Mutex::new(0);\n\
                  fn ab() {\n    let a = ALPHA.lock().unwrap();\n    let b = BETA.lock().unwrap();\n    drop(b); drop(a);\n}\n\
                  fn ab2() {\n    let a = ALPHA.lock().unwrap();\n    let b = BETA.lock().unwrap();\n    drop(b); drop(a);\n}";
        let diags = run(&[("crates/core/src/lib.rs", ok)]);
        assert!(diags.iter().all(|d| d.rule != "lock-order"), "{diags:?}");
    }

    /// Stripe-style double acquire through a guard-returning helper:
    /// element granularity collapses to one lock id, so holding one
    /// stripe while taking another is a self-edge.
    #[test]
    fn stripe_self_edge_through_guard_returning_fn() {
        let src = "pub struct Pool { stripes: Vec<Mutex<u32>> }\n\
                   impl Pool {\n\
                   fn lock_stripe(&self, i: usize) -> Option<MutexGuard<'_, u32>> {\n\
                       let s = self.stripes.get(i)?;\n        s.lock().ok()\n    }\n\
                   fn exchange(&self) {\n\
                       let g = self.lock_stripe(0);\n        let h = self.lock_stripe(1);\n\
                       drop(h); drop(g);\n    }\n}";
        let diags = run(&[("crates/core/src/pool.rs", src)]);
        assert!(
            diags.iter().any(|d| d.rule == "lock-order"
                && d.message.contains("Pool.stripes")
                && d.message.contains("already held")),
            "{diags:?}"
        );
    }

    #[test]
    fn panic_under_held_guard_is_flagged_and_drop_clears_it() {
        let bad = "static M: Mutex<u32> = Mutex::new(0);\n\
                   fn f(o: Option<u32>) -> u32 {\n    let g = M.lock().unwrap();\n    let v = o.unwrap();\n    drop(g); v\n}";
        let diags = run(&[("crates/core/src/lib.rs", bad)]);
        assert!(
            diags.iter().any(|d| d.rule == "lock-panic" && d.line == 4),
            "{diags:?}"
        );
        // Poison recovery on the LockResult itself is not "under the
        // guard", and dropping the guard before the panic-capable call
        // clears the diagnostic.
        let ok = "static M: Mutex<u32> = Mutex::new(0);\n\
                  fn f(o: Option<u32>) -> u32 {\n    let g = M.lock().unwrap();\n    drop(g);\n    o.unwrap()\n}";
        let diags = run(&[("crates/core/src/lib.rs", ok)]);
        assert!(diags.iter().all(|d| d.rule != "lock-panic"), "{diags:?}");
    }

    #[test]
    fn transitive_panic_through_a_callee_is_flagged() {
        let src = "static M: Mutex<u32> = Mutex::new(0);\n\
                   fn helper(o: Option<u32>) -> u32 { o.unwrap() }\n\
                   fn f(o: Option<u32>) -> u32 {\n    let g = M.lock().unwrap();\n    let v = helper(o);\n    drop(g); v\n}";
        let diags = run(&[("crates/core/src/lib.rs", src)]);
        assert!(
            diags.iter().any(|d| d.rule == "lock-panic"
                && d.line == 5
                && d.message.contains("core::helper")),
            "{diags:?}"
        );
    }

    #[test]
    fn temporary_guard_recovery_chain_is_not_under_the_guard() {
        // The whole statement is `.lock().unwrap_or_else(recover).add(x)`
        // — only `.add(` runs under the guard, and it is alloc-class, so
        // nothing fires.
        let src = "pub struct Log { steps: Vec<u32> }\n\
                   impl Log { fn add(&mut self, x: u32) { self.steps.push(x) } }\n\
                   pub struct Ex { proof: Mutex<Log> }\n\
                   impl Ex {\n    fn on_learn(&self, x: u32) {\n\
                       self.proof.lock().unwrap_or_else(recover).add(x);\n    }\n}\n\
                   fn recover(e: u32) -> u32 { e }";
        let diags = run(&[("crates/core/src/lib.rs", src)]);
        assert!(diags.iter().all(|d| d.rule != "lock-panic"), "{diags:?}");
    }

    #[test]
    fn inline_allow_suppresses_lock_rules() {
        let src = "static ALPHA: Mutex<u32> = Mutex::new(0);\n\
                   static BETA: Mutex<u32> = Mutex::new(0);\n\
                   fn ab() {\n    let a = ALPHA.lock().unwrap();\n    let b = BETA.lock().unwrap();\n    drop(b); drop(a);\n}\n\
                   fn ba() {\n    let b = BETA.lock().unwrap();\n    let a = ALPHA.lock().unwrap();\n    drop(a); drop(b);\n}";
        let g = graph(&[("crates/core/src/lib.rs", src)]);
        let mut allows = AllowMap::new();
        // The cycle is witnessed on both inner-acquisition lines (5, 9).
        allows.insert(
            "crates/core/src/lib.rs".to_string(),
            vec![(5, "lock-order".to_string()), (9, "lock-order".to_string())],
        );
        let mut diags = Vec::new();
        lock_analysis(&g, &allows, &mut diags);
        assert!(diags.iter().all(|d| d.rule != "lock-order"), "{diags:?}");
    }
}
