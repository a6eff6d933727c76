//! Workspace call-graph assembly and the transitive hot-path purity rule.
//!
//! The graph is built from the per-file facts the extractor produces.
//! Call-site resolution is deliberately conservative (DESIGN.md §14):
//!
//! * typed resolution — `self` methods, `self.field` chains (via struct
//!   field types), `Type::method` paths, call-result chaining through a
//!   callee's return type, and params with known workspace types — yields
//!   precise edges;
//! * `dyn Trait` fields dispatch to every workspace `impl` of the trait
//!   (plus the trait's default methods); when no impl is known, the site
//!   becomes an explicit `dynamic-call` diagnostic instead of a silent
//!   gap, as does a call through an fn-typed parameter;
//! * untyped receivers fall back to *every* workspace method with that
//!   name — except for ubiquitous `std` method names
//!   ([`COMMON_STD_METHODS`]), where a by-name edge would be noise; the
//!   caller's own effect scan still catches `.push(`-class effects at
//!   such sites, so nothing panic- or alloc-shaped is lost.
//!
//! Call sites under `#[cfg(feature = "…")]` keep their gate: the purity
//! walk skips them, because they are compiled out of default builds (the
//! guarantee the rule protects is the *default-build* hot path).

use crate::extract::{CallSite, CallTarget, EffectKind, FileFacts, FnItem, Receiver, StructInfo};
use crate::rules::Diagnostic;
use std::collections::{HashMap, HashSet, VecDeque};

/// Transitive purity roots: BCP, conflict analysis, recursive clause
/// minimization, and the audited watch-list/assignment accessors.
/// (`LitMap::get`, the literal-indexed value read, is reached from
/// `Solver::propagate`.)
pub const HOT_PATH_ROOTS: &[&str] = &[
    "sat_solver::solver::Solver::propagate",
    "sat_solver::solver::Solver::analyze",
    "sat_solver::solver::Solver::lit_redundant",
    "sat_solver::varmap::at",
    "sat_solver::varmap::VarMap::get",
    "sat_solver::varmap::VarMap::get_mut",
    "sat_solver::varmap::LitMap::get_mut",
];

/// Ubiquitous `std` method names excluded from by-name fallback
/// resolution: an untyped `ws.push(…)` should not edge into every
/// workspace type that happens to define `push`. Typed receivers still
/// resolve these precisely, and the effect scan still flags the site.
const COMMON_STD_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "extend",
    "append",
    "clear",
    "truncate",
    "resize",
    "reserve",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "as_ref",
    "as_mut",
    "as_str",
    "into",
    "from",
    "default",
    "take",
    "replace",
    "swap",
    "split_off",
    "last",
    "first",
    "sort",
    "sort_unstable",
    "dedup",
    "retain",
    "drain",
    "rev",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "filter",
    "collect",
    "count",
    "sum",
    "min",
    "max",
    "abs",
    "sqrt",
    "powi",
    "exp",
    "ln",
    "to_string",
    "to_owned",
    "to_vec",
    "lock",
    "read",
    "write",
    "store",
    "load",
    "send",
    "recv",
    "join",
    "flush",
    "finish",
    "field",
    "key",
    "value",
    "new",
    "add",
    "sub",
    "mul",
    "div",
    "index",
];

/// Generic-ish type wrappers skipped when deriving a base type from type
/// tokens (`Box<dyn T>`, `Option<MutexGuard<'_, Stripe>>`, …).
const TYPE_WRAPPERS: &[&str] = &[
    "Box",
    "Arc",
    "Rc",
    "Option",
    "Result",
    "Vec",
    "VecDeque",
    "RefCell",
    "Cell",
    "Mutex",
    "RwLock",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "OnceLock",
];

/// How an edge was resolved (DESIGN.md §14 edge kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Free-fn or `Type::method` path call.
    Direct,
    /// Typed method resolution.
    Method,
    /// `dyn Trait` dispatch (one edge per workspace impl).
    Dispatch,
    /// Untyped receiver resolved by method name only.
    ByName,
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// Call-site line in the caller's file.
    pub line: u32,
    /// Call-site token index.
    pub tok: usize,
    /// Feature gate on the call site, if any.
    pub cfg: Option<String>,
    /// Resolution kind.
    pub kind: EdgeKind,
}

/// An unresolvable dynamic call site (trait object with no known impl,
/// or a call through an fn-typed parameter).
#[derive(Debug, Clone)]
pub struct DynSite {
    /// Site line.
    pub line: u32,
    /// Compact descriptor (`param:each`, `dyn:Sink::emit`).
    pub desc: String,
    /// Feature gate on the site, if any.
    pub cfg: Option<String>,
}

/// One fn node: the extracted item plus resolved edges.
#[derive(Debug)]
pub struct FnNode {
    /// The (merged) extracted item.
    pub item: FnItem,
    /// Resolved outgoing edges.
    pub edges: Vec<Edge>,
    /// Unresolvable dynamic call sites.
    pub dynamics: Vec<DynSite>,
    /// Calls into workspace `macro_rules!` macros: (macro id, line, cfg).
    pub macro_calls: Vec<(String, u32, Option<String>)>,
    /// Number of cfg variants merged into this node.
    pub variants: u32,
}

/// The assembled workspace call graph.
pub struct Graph {
    /// Per-file facts (token streams for the lock-order body rescan).
    pub files: Vec<FileFacts>,
    /// Fn nodes.
    pub nodes: Vec<FnNode>,
    /// Workspace macro ids (macro-opaque items), sorted.
    pub macros: Vec<String>,
    by_id: HashMap<String, usize>,
    by_name: HashMap<String, Vec<usize>>,
    by_type: HashMap<(String, String), usize>,
    trait_impls: HashMap<String, Vec<String>>,
    structs: HashMap<String, Vec<StructInfo>>,
    /// Lock-typed statics by name → module.
    pub lock_statics: HashMap<String, String>,
}

impl Graph {
    /// Node index for an exact id.
    pub fn by_id(&self, id: &str) -> Option<usize> {
        self.by_id.get(id).copied()
    }

    /// Token stream for a file path.
    pub fn file_tokens(&self, path: &str) -> Option<&FileFacts> {
        self.files.iter().find(|f| f.path == path)
    }

    /// Builds the graph: merges cfg variants, indexes, resolves calls.
    pub fn build(files: Vec<FileFacts>) -> Graph {
        let mut g = Graph {
            files,
            nodes: Vec::new(),
            macros: Vec::new(),
            by_id: HashMap::new(),
            by_name: HashMap::new(),
            by_type: HashMap::new(),
            trait_impls: HashMap::new(),
            structs: HashMap::new(),
            lock_statics: HashMap::new(),
        };
        // Pass 1: nodes (merging same-id variants) and indexes.
        for fi in 0..g.files.len() {
            for f in g.files[fi].fns.clone() {
                match g.by_id.get(&f.id) {
                    Some(&idx) => {
                        let n = &mut g.nodes[idx];
                        n.variants += 1;
                        // A variant that is compiled by default makes the
                        // merged node default-compiled.
                        if f.cfg_feature.is_none() {
                            n.item.cfg_feature = None;
                        }
                        n.item.calls.extend(f.calls);
                        n.item.effects.extend(f.effects);
                    }
                    None => {
                        let idx = g.nodes.len();
                        g.by_id.insert(f.id.clone(), idx);
                        g.by_name.entry(f.name.clone()).or_default().push(idx);
                        if let Some(t) = &f.self_type {
                            g.by_type.entry((t.clone(), f.name.clone())).or_insert(idx);
                        }
                        g.nodes.push(FnNode {
                            item: f,
                            edges: Vec::new(),
                            dynamics: Vec::new(),
                            macro_calls: Vec::new(),
                            variants: 1,
                        });
                    }
                }
            }
            for s in g.files[fi].structs.clone() {
                g.structs.entry(s.name.clone()).or_default().push(s);
            }
            for st in &g.files[fi].statics {
                if st.is_lock {
                    g.lock_statics.insert(st.name.clone(), st.module.clone());
                }
            }
            for m in &g.files[fi].macros {
                g.macros.push(m.clone());
            }
        }
        g.macros.sort();
        g.macros.dedup();
        for n in &g.nodes {
            if let (Some(tr), Some(ty), false) =
                (&n.item.trait_name, &n.item.self_type, n.item.is_trait_decl)
            {
                let v = g.trait_impls.entry(tr.clone()).or_default();
                if !v.contains(ty) {
                    v.push(ty.clone());
                }
            }
        }
        for v in g.trait_impls.values_mut() {
            v.sort();
        }
        // Pass 2: resolve call sites into edges.
        for idx in 0..g.nodes.len() {
            let calls = g.nodes[idx].item.calls.clone();
            for c in &calls {
                g.resolve_call(idx, c);
            }
        }
        g
    }

    fn resolve_call(&mut self, caller: usize, c: &CallSite) {
        match &c.target {
            CallTarget::MacroUse(name) => {
                let matches: Vec<String> = self
                    .macros
                    .iter()
                    .filter(|m| m.rsplit("::").next() == Some(name.as_str()))
                    .cloned()
                    .collect();
                for m in matches {
                    self.nodes[caller]
                        .macro_calls
                        .push((m, c.line, c.cfg_feature.clone()));
                }
            }
            CallTarget::Path(segs) => {
                let targets = self.resolve_path(caller, segs);
                match targets {
                    Resolved::Edges(t, kind) => self.add_edges(caller, c, &t, kind),
                    Resolved::Dynamic(desc) => self.nodes[caller].dynamics.push(DynSite {
                        line: c.line,
                        desc,
                        cfg: c.cfg_feature.clone(),
                    }),
                    Resolved::External => {}
                }
            }
            CallTarget::Method { name, receiver } => {
                match self.resolve_method(caller, name, receiver) {
                    Resolved::Edges(t, kind) => self.add_edges(caller, c, &t, kind),
                    Resolved::Dynamic(desc) => self.nodes[caller].dynamics.push(DynSite {
                        line: c.line,
                        desc,
                        cfg: c.cfg_feature.clone(),
                    }),
                    Resolved::External => {}
                }
            }
        }
    }

    fn add_edges(&mut self, caller: usize, c: &CallSite, targets: &[usize], kind: EdgeKind) {
        for &to in targets {
            self.nodes[caller].edges.push(Edge {
                to,
                line: c.line,
                tok: c.tok,
                cfg: c.cfg_feature.clone(),
                kind,
            });
        }
    }

    fn resolve_path(&self, caller: usize, segs: &[String]) -> Resolved {
        let mut segs: Vec<&str> = segs.iter().map(String::as_str).collect();
        while segs
            .first()
            .is_some_and(|s| matches!(*s, "crate" | "self" | "super") && segs.len() > 1)
        {
            segs.remove(0);
        }
        let Some(&name) = segs.last() else {
            return Resolved::External;
        };
        let item = &self.nodes[caller].item;
        if segs.len() == 1 {
            // Fn-typed parameter → dynamic call.
            if item.params.iter().any(|(p, _)| p == name) {
                return Resolved::Dynamic(format!("param:{name}"));
            }
            // Nested (shadowing) fn of this fn.
            if let Some(&idx) = self.by_id.get(&format!("{}::{name}", item.id)) {
                return Resolved::Edges(vec![idx], EdgeKind::Direct);
            }
            // Same-module free fn.
            if let Some(&idx) = self.by_id.get(&format!("{}::{name}", item.module)) {
                return Resolved::Edges(vec![idx], EdgeKind::Direct);
            }
            // Any workspace free fn with that name (imports are invisible
            // at token level; over-approximate).
            let frees: Vec<usize> = self
                .by_name
                .get(name)
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|&i| self.nodes[i].item.self_type.is_none())
                        .collect()
                })
                .unwrap_or_default();
            if !frees.is_empty() {
                return Resolved::Edges(frees, EdgeKind::Direct);
            }
            return Resolved::External;
        }
        let qualifier = segs[segs.len() - 2];
        if qualifier == "Self" {
            if let Some(t) = &item.self_type {
                if let Some(&idx) = self.by_type.get(&(t.clone(), name.to_string())) {
                    return Resolved::Edges(vec![idx], EdgeKind::Direct);
                }
            }
        }
        if let Some(&idx) = self.by_type.get(&(qualifier.to_string(), name.to_string())) {
            return Resolved::Edges(vec![idx], EdgeKind::Direct);
        }
        // Module-path suffix match (`cnf::dimacs::parse_dimacs`).
        let joined = segs.join("::");
        let hits: Vec<usize> = self
            .by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&i| {
                        let id = &self.nodes[i].item.id;
                        id == &joined || id.ends_with(&format!("::{joined}"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        if !hits.is_empty() {
            return Resolved::Edges(hits, EdgeKind::Direct);
        }
        Resolved::External
    }

    fn resolve_method(&self, caller: usize, name: &str, receiver: &Receiver) -> Resolved {
        let item = &self.nodes[caller].item;
        match receiver {
            Receiver::SelfChain(fields) if fields.is_empty() => {
                if let Some(t) = item.self_type.clone() {
                    if item.is_trait_decl {
                        return self.dispatch_trait(&t, name);
                    }
                    if let Some(&idx) = self.by_type.get(&(t, name.to_string())) {
                        return Resolved::Edges(vec![idx], EdgeKind::Method);
                    }
                    // Default method of the trait this impl implements.
                    if let Some(tr) = item.trait_name.clone() {
                        if let Some(&idx) = self.by_type.get(&(tr, name.to_string())) {
                            return Resolved::Edges(vec![idx], EdgeKind::Method);
                        }
                    }
                }
                self.fallback(caller, name)
            }
            Receiver::SelfChain(fields) => {
                let Some(start) = item.self_type.clone() else {
                    return self.fallback(caller, name);
                };
                self.resolve_typed_chain(caller, &start, fields, name)
            }
            Receiver::VarChain(chain) => {
                // A parameter with a known workspace type acts like `self`.
                let head = &chain[0];
                if let Some((_, ty)) = item.params.iter().find(|(p, _)| p == head) {
                    match base_type(ty) {
                        BaseType::Dyn(tr) if chain.len() == 1 => {
                            return match self.dispatch_trait(&tr, name) {
                                Resolved::External => {
                                    Resolved::Dynamic(format!("dyn:{tr}::{name}"))
                                }
                                r => r,
                            };
                        }
                        BaseType::Concrete(b) => {
                            return self.resolve_typed_chain(caller, &b, &chain[1..], name);
                        }
                        _ => {}
                    }
                }
                self.fallback(caller, name)
            }
            Receiver::Call(inner) => {
                // `<lock-field>.lock().m(…)` (possibly behind a poison-
                // recovery method): resolve `m` on the type *inside* the
                // lock, so guarded calls stay typed instead of falling
                // back by name.
                if let Some(content) = self.guard_content_type(caller, inner) {
                    if let Some(&idx) = self.by_type.get(&(content.clone(), name.to_string())) {
                        return Resolved::Edges(vec![idx], EdgeKind::Method);
                    }
                    if self.structs.contains_key(&content) {
                        return Resolved::External;
                    }
                }
                // Resolve the inner call; a unique target with a concrete
                // return type lets the chain stay typed.
                let inner_targets = match inner.as_ref() {
                    CallTarget::Path(segs) => self.resolve_path(caller, segs),
                    CallTarget::Method {
                        name: n,
                        receiver: r,
                    } => self.resolve_method(caller, n, r),
                    CallTarget::MacroUse(_) => Resolved::External,
                };
                if let Resolved::Edges(t, _) = inner_targets {
                    if let Some(&first) = t.first() {
                        match base_type(&self.nodes[first].item.ret) {
                            BaseType::Concrete(b) => {
                                if let Some(&idx) = self.by_type.get(&(b, name.to_string())) {
                                    return Resolved::Edges(vec![idx], EdgeKind::Method);
                                }
                                return Resolved::External;
                            }
                            BaseType::Generic => return Resolved::External,
                            _ => {}
                        }
                    }
                }
                self.fallback(caller, name)
            }
            Receiver::Opaque => self.fallback(caller, name),
        }
    }

    /// Walks `start.f1.f2.…` through struct field types, then resolves
    /// `name` on the final type.
    fn resolve_typed_chain(
        &self,
        caller: usize,
        start: &str,
        fields: &[String],
        name: &str,
    ) -> Resolved {
        let crate_of = |m: &str| m.split("::").next().unwrap_or("").to_string();
        let caller_crate = crate_of(&self.nodes[caller].item.module);
        let mut cur = start.to_string();
        for (pos, f) in fields.iter().enumerate() {
            let Some(defs) = self.structs.get(&cur) else {
                return self.fallback(caller, name);
            };
            let def = defs
                .iter()
                .find(|d| crate_of(&d.module) == caller_crate)
                .or_else(|| defs.first());
            let Some(field) = def.and_then(|d| d.fields.iter().find(|x| &x.name == f)) else {
                return self.fallback(caller, name);
            };
            match base_type(&field.tokens) {
                BaseType::Dyn(tr) if pos + 1 == fields.len() => {
                    return match self.dispatch_trait(&tr, name) {
                        Resolved::External => Resolved::Dynamic(format!("dyn:{tr}::{name}")),
                        r => r,
                    };
                }
                BaseType::Concrete(b) => cur = b,
                _ => return self.fallback(caller, name),
            }
        }
        if let Some(&idx) = self.by_type.get(&(cur.clone(), name.to_string())) {
            return Resolved::Edges(vec![idx], EdgeKind::Method);
        }
        // Known workspace type without this method: it is a std method on
        // a field of that type (`Vec`-wrapped etc.) — external.
        if self.structs.contains_key(&cur) {
            return Resolved::External;
        }
        self.fallback(caller, name)
    }

    /// For a `<chain>.lock()/.read()/.write()` receiver — possibly behind
    /// a poison-recovery method — the type *inside* the lock, provided
    /// the chain really ends at a `Mutex`/`RwLock` field.
    fn guard_content_type(&self, caller: usize, target: &CallTarget) -> Option<String> {
        let CallTarget::Method { name, receiver } = target else {
            return None;
        };
        match name.as_str() {
            "unwrap" | "expect" | "unwrap_or_else" => match receiver {
                Receiver::Call(inner) => self.guard_content_type(caller, inner),
                _ => None,
            },
            "lock" | "read" | "write" => {
                let item = &self.nodes[caller].item;
                let (start, fields): (String, &[String]) = match receiver {
                    Receiver::SelfChain(fields) if !fields.is_empty() => {
                        (item.self_type.clone()?, fields.as_slice())
                    }
                    Receiver::VarChain(chain) if chain.len() > 1 => {
                        let (_, ty) = item.params.iter().find(|(p, _)| p == &chain[0])?;
                        (Self::base_type_name(ty)?, &chain[1..])
                    }
                    _ => return None,
                };
                let owner = if fields.len() == 1 {
                    start
                } else {
                    self.chain_type(caller, &start, &fields[..fields.len() - 1])?
                };
                let defs = self.structs.get(&owner)?;
                let last = fields.last()?;
                let field = defs
                    .iter()
                    .find_map(|d| d.fields.iter().find(|x| &x.name == last))?;
                if !field.tokens.iter().any(|t| t == "Mutex" || t == "RwLock") {
                    return None;
                }
                Self::base_type_name(&field.tokens)
            }
            _ => None,
        }
    }

    /// Walks `start.f1…fn` through struct field types and returns the
    /// final concrete type, preferring same-crate struct definitions on
    /// name collisions.
    fn chain_type(&self, caller: usize, start: &str, fields: &[String]) -> Option<String> {
        let crate_of = |m: &str| m.split("::").next().unwrap_or("").to_string();
        let caller_crate = crate_of(&self.nodes[caller].item.module);
        let mut cur = start.to_string();
        for f in fields {
            let defs = self.structs.get(&cur)?;
            let def = defs
                .iter()
                .find(|d| crate_of(&d.module) == caller_crate)
                .or_else(|| defs.first());
            let field = def.and_then(|d| d.fields.iter().find(|x| &x.name == f))?;
            match base_type(&field.tokens) {
                BaseType::Concrete(b) => cur = b,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// All impls of `tr` providing `name`, plus the trait's own default.
    fn dispatch_trait(&self, tr: &str, name: &str) -> Resolved {
        let mut targets = Vec::new();
        if let Some(types) = self.trait_impls.get(tr) {
            for t in types {
                if let Some(&idx) = self.by_type.get(&(t.clone(), name.to_string())) {
                    targets.push(idx);
                }
            }
        }
        if let Some(&idx) = self.by_type.get(&(tr.to_string(), name.to_string())) {
            // Trait-decl node: a signature-only decl has no body and acts
            // as a harmless sink; a default method carries its real body.
            targets.push(idx);
        }
        if targets.is_empty() {
            Resolved::External
        } else {
            Resolved::Edges(targets, EdgeKind::Dispatch)
        }
    }

    /// Walks `start.f1…fn` through struct field types and returns the
    /// type owning the *last* field — the lock-identity base used by the
    /// lock-order analysis (`Pool.stripes`, not `Exchange.pool.stripes`).
    pub fn owner_of_field(&self, start: &str, fields: &[String]) -> Option<String> {
        let mut cur = start.to_string();
        for f in &fields[..fields.len().checked_sub(1)?] {
            let defs = self.structs.get(&cur)?;
            let field = defs
                .iter()
                .find_map(|d| d.fields.iter().find(|x| &x.name == f))?;
            match base_type(&field.tokens) {
                BaseType::Concrete(b) => cur = b,
                _ => return None,
            }
        }
        self.structs.get(&cur)?;
        Some(cur)
    }

    /// Base type name for a token-level type (wrappers and generics
    /// stripped), shared with the lock-order analysis.
    pub fn base_type_name(tokens: &[String]) -> Option<String> {
        match base_type(tokens) {
            BaseType::Concrete(b) => Some(b),
            _ => None,
        }
    }

    /// Untyped-receiver fallback: all same-named workspace methods,
    /// unless the name is a ubiquitous std method. When the caller's own
    /// crate defines candidates, cross-crate ones are dropped — an
    /// untyped `c.lit(0)` inside `sat-solver` means one of *its* `lit`
    /// methods, not every crate's.
    fn fallback(&self, caller: usize, name: &str) -> Resolved {
        if COMMON_STD_METHODS.contains(&name) {
            return Resolved::External;
        }
        let crate_of = |m: &str| m.split("::").next().unwrap_or("").to_string();
        let caller_crate = crate_of(&self.nodes[caller].item.module);
        let hits: Vec<usize> = self
            .by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&i| self.nodes[i].item.self_type.is_some())
                    .collect()
            })
            .unwrap_or_default();
        let local: Vec<usize> = hits
            .iter()
            .copied()
            .filter(|&i| crate_of(&self.nodes[i].item.module) == caller_crate)
            .collect();
        let hits = if local.is_empty() { hits } else { local };
        if hits.is_empty() {
            Resolved::External
        } else {
            Resolved::Edges(hits, EdgeKind::ByName)
        }
    }
}

enum Resolved {
    Edges(Vec<usize>, EdgeKind),
    Dynamic(String),
    External,
}

enum BaseType {
    Concrete(String),
    Dyn(String),
    Generic,
    Unknown,
}

/// Derives the base type from type tokens: skip wrappers and path
/// qualifiers, detect `dyn Trait`, treat single-capital idents as
/// generics.
fn base_type(tokens: &[String]) -> BaseType {
    let mut iter = tokens.iter().peekable();
    while let Some(t) = iter.next() {
        if t == "dyn" {
            if let Some(tr) = iter.next() {
                return BaseType::Dyn(tr.clone());
            }
            return BaseType::Unknown;
        }
        let first_upper = t.chars().next().is_some_and(|c| c.is_ascii_uppercase());
        if !first_upper {
            continue; // module segment, primitive, `mut`, lifetime-ish
        }
        if TYPE_WRAPPERS.contains(&t.as_str()) {
            continue;
        }
        if t.len() <= 2
            && t.chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
        {
            return BaseType::Generic;
        }
        return BaseType::Concrete(t.clone());
    }
    BaseType::Unknown
}

// ---------------------------------------------------------------------------
// Transitive hot-path purity.
// ---------------------------------------------------------------------------

/// Inline-allow annotations per file: `(line, rule)` pairs, with the
/// same same-line-or-line-above semantics as `Lexed::is_allowed`.
pub type AllowMap = HashMap<String, Vec<(u32, String)>>;

/// Whether `rule` at `path:line` carries an inline allow.
pub fn allowed(allows: &AllowMap, path: &str, rule: &str, line: u32) -> bool {
    allows.get(path).is_some_and(|v| {
        v.iter()
            .any(|(l, r)| (*l == line || l + 1 == line) && r == rule)
    })
}

/// The transitive hot-path purity walk: BFS from [`HOT_PATH_ROOTS`] over
/// default-build edges; every effect in a reachable fn is a
/// `hot-path-purity` diagnostic (with the call chain), every
/// unresolvable call a `dynamic-call` diagnostic.
///
/// Suppression levers, from narrow to broad:
/// * `// xtask: allow(hot-path-purity) <why>` on the effect line — an
///   individually audited effect (amortized growth, debug-audited index);
/// * `// xtask: allow(no-index)` / `allow(no-panic)` — an already
///   audited per-file site also satisfies the transitive rule;
/// * `// xtask: allow(hot-path-call) <why>` on a call line — prunes the
///   edge itself (for `Option`-gated cold branches the walk cannot see).
pub fn hot_path_purity(g: &Graph, allows: &AllowMap, diags: &mut Vec<Diagnostic>) {
    let mut roots = Vec::new();
    for r in HOT_PATH_ROOTS {
        match g.by_id(r) {
            Some(idx) => roots.push(idx),
            None => diags.push(Diagnostic {
                rule: "hot-path-purity",
                path: "crates/sat-solver/src/solver.rs".to_string(),
                line: 1,
                message: format!(
                    "hot-path root `{r}` not found in the call graph; if the fn was \
                     renamed, update HOT_PATH_ROOTS in crates/xtask/src/callgraph.rs"
                ),
            }),
        }
    }
    // BFS with parent links for chain reconstruction.
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut seen: HashSet<usize> = roots.iter().copied().collect();
    let mut queue: VecDeque<usize> = roots.iter().copied().collect();
    while let Some(idx) = queue.pop_front() {
        let node = &g.nodes[idx];
        for e in &node.edges {
            if e.cfg.is_some() {
                continue; // compiled out of default builds
            }
            if allowed(allows, &node.item.path, "hot-path-call", e.line) {
                continue; // audited cold edge
            }
            let callee = &g.nodes[e.to];
            if callee.item.cfg_feature.is_some() {
                continue;
            }
            if seen.insert(e.to) {
                parent.insert(e.to, idx);
                queue.push_back(e.to);
            }
        }
    }
    let chain = |mut idx: usize| -> String {
        let mut parts = vec![short_id(&g.nodes[idx].item.id)];
        let mut hops = 0;
        while let Some(&p) = parent.get(&idx) {
            parts.push(short_id(&g.nodes[p].item.id));
            idx = p;
            hops += 1;
            if hops >= 6 {
                parts.push("…".to_string());
                break;
            }
        }
        parts.reverse();
        parts.join(" → ")
    };
    let mut order: Vec<usize> = seen.iter().copied().collect();
    order.sort();
    for idx in order {
        let node = &g.nodes[idx];
        let path = &node.item.path;
        for ef in &node.item.effects {
            if ef.what.ends_with("[cfg-gated]") {
                continue;
            }
            let equivalent = match ef.kind {
                EffectKind::Index => Some("no-index"),
                EffectKind::Panic => Some("no-panic"),
                _ => None,
            };
            if allowed(allows, path, "hot-path-purity", ef.line)
                || equivalent.is_some_and(|r| allowed(allows, path, r, ef.line))
            {
                continue;
            }
            diags.push(Diagnostic {
                rule: "hot-path-purity",
                path: path.clone(),
                line: ef.line,
                message: format!(
                    "{} ({}) is reachable from the solver hot path ({}); keep the hot \
                     path pure, or annotate the audited site with \
                     `// xtask: allow(hot-path-purity) <why>`",
                    ef.what,
                    ef.kind.name(),
                    chain(idx)
                ),
            });
        }
        for d in &node.dynamics {
            if d.cfg.is_some() || allowed(allows, path, "dynamic-call", d.line) {
                continue;
            }
            diags.push(Diagnostic {
                rule: "dynamic-call",
                path: path.clone(),
                line: d.line,
                message: format!(
                    "unresolvable dynamic call ({}) on the solver hot path ({}); purity \
                     cannot be proven through it — audit the possible targets and \
                     annotate with `// xtask: allow(dynamic-call) <targets>`",
                    d.desc,
                    chain(idx)
                ),
            });
        }
        for (m, line, cfg) in &node.macro_calls {
            if cfg.is_some() || allowed(allows, path, "hot-path-purity", *line) {
                continue;
            }
            diags.push(Diagnostic {
                rule: "hot-path-purity",
                path: path.clone(),
                line: *line,
                message: format!(
                    "expansion of macro-opaque `{}` on the solver hot path ({}); the \
                     macro body is not analyzed — audit it and annotate with \
                     `// xtask: allow(hot-path-purity) <why>`",
                    short_id(m),
                    chain(idx)
                ),
            });
        }
    }
}

/// Last two id segments, for readable chains (`Solver::propagate`).
pub fn short_id(id: &str) -> String {
    let parts: Vec<&str> = id.rsplit("::").take(2).collect();
    parts.into_iter().rev().collect::<Vec<_>>().join("::")
}

// ---------------------------------------------------------------------------
// `cargo xtask callgraph --dot FN`.
// ---------------------------------------------------------------------------

/// Renders the subgraph reachable from fns matching `pattern` (exact id,
/// id suffix, or bare name) as Graphviz DOT. Feature-gated edges are
/// dashed and labeled with their gate.
pub fn dot(g: &Graph, pattern: &str) -> Result<String, String> {
    let mut roots: Vec<usize> = (0..g.nodes.len())
        .filter(|&i| {
            let id = &g.nodes[i].item.id;
            id == pattern
                || id.ends_with(&format!("::{pattern}"))
                || g.nodes[i].item.name == pattern
        })
        .collect();
    if roots.is_empty() {
        let near: Vec<&str> = g
            .nodes
            .iter()
            .filter(|n| n.item.id.contains(pattern))
            .take(8)
            .map(|n| n.item.id.as_str())
            .collect();
        return Err(if near.is_empty() {
            format!("no fn matches `{pattern}`")
        } else {
            format!("no fn matches `{pattern}`; close ids: {}", near.join(", "))
        });
    }
    roots.sort();
    let mut seen: HashSet<usize> = roots.iter().copied().collect();
    let mut queue: VecDeque<usize> = roots.iter().copied().collect();
    let mut edges: Vec<(usize, usize, Option<String>, EdgeKind)> = Vec::new();
    while let Some(idx) = queue.pop_front() {
        for e in &g.nodes[idx].edges {
            edges.push((idx, e.to, e.cfg.clone(), e.kind));
            if seen.insert(e.to) {
                queue.push_back(e.to);
            }
        }
    }
    let mut out = String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box];\n");
    let mut order: Vec<usize> = seen.iter().copied().collect();
    order.sort();
    for idx in order {
        let n = &g.nodes[idx];
        let mut kinds: Vec<&str> = n
            .item
            .effects
            .iter()
            .filter(|e| !e.what.ends_with("[cfg-gated]"))
            .map(|e| e.kind.name())
            .collect();
        kinds.sort();
        kinds.dedup();
        let label = if kinds.is_empty() {
            short_id(&n.item.id)
        } else {
            format!("{}\\n[{}]", short_id(&n.item.id), kinds.join("+"))
        };
        let style = if roots.contains(&idx) {
            ", style=filled, fillcolor=lightyellow"
        } else {
            ""
        };
        out.push_str(&format!(
            "  \"{}\" [label=\"{}\", tooltip=\"{}:{}\"{}];\n",
            n.item.id, label, n.item.path, n.item.line, style
        ));
    }
    edges.sort_by_key(|e| (e.0, e.1));
    edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1 && a.2 == b.2);
    for (from, to, cfg, kind) in edges {
        // Dotted = heuristic by-name edge, blue = dyn dispatch, dashed =
        // feature-gated — the triage cues for reading a `--dot` graph.
        let mut attrs: Vec<String> = Vec::new();
        match kind {
            EdgeKind::ByName => attrs.push("style=dotted, color=gray40".to_string()),
            EdgeKind::Dispatch => attrs.push("color=blue".to_string()),
            EdgeKind::Direct | EdgeKind::Method => {}
        }
        if let Some(f) = cfg {
            attrs.push(format!("style=dashed, label=\"cfg({f})\""));
        }
        let attrs = if attrs.is_empty() {
            String::new()
        } else {
            format!(" [{}]", attrs.join(", "))
        };
        out.push_str(&format!(
            "  \"{}\" -> \"{}\"{};\n",
            g.nodes[from].item.id, g.nodes[to].item.id, attrs
        ));
    }
    out.push_str("}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_file;
    use crate::lexer::{lex, strip_test_items};

    fn facts(path: &str, src: &str) -> FileFacts {
        let lexed = lex(src);
        let tokens = strip_test_items(&lexed.tokens);
        extract_file(path, src, tokens)
    }

    fn graph(files: &[(&str, &str)]) -> Graph {
        Graph::build(files.iter().map(|(p, s)| facts(p, s)).collect())
    }

    fn purity_diags(g: &Graph) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        hot_path_purity(g, &AllowMap::new(), &mut diags);
        diags
    }

    /// The acceptance-criteria regression: an allocating helper two call
    /// hops away from `propagate`, in another file, is caught with its
    /// chain spelled out.
    #[test]
    fn allocating_helper_two_hops_from_propagate_is_caught() {
        let solver = "pub struct Solver { scratch: Scratch }\n\
                      impl Solver {\n    fn propagate(&mut self) -> Option<u32> {\n        helper_a(self);\n        None\n    }\n\
                      fn analyze(&mut self) {}\n    fn lit_redundant(&mut self) -> bool { false }\n}";
        let util = "pub(crate) fn helper_a(s: &mut Solver) { helper_b(s) }\n\
                    fn helper_b(s: &mut Solver) {\n    s.scratch.grow();\n}\n\
                    pub struct Scratch { xs: Vec<u32> }\n\
                    impl Scratch {\n    fn grow(&mut self) {\n        self.xs.push(1);\n    }\n}";
        let varmap = "pub(crate) fn at() {}\n\
                      pub struct VarMap;\nimpl VarMap { pub fn get(&self) {} pub fn get_mut(&mut self) {} }\n\
                      pub struct LitMap;\nimpl LitMap { pub fn get_mut(&mut self) {} }";
        let g = graph(&[
            ("crates/sat-solver/src/solver.rs", solver),
            ("crates/sat-solver/src/util.rs", util),
            ("crates/sat-solver/src/varmap.rs", varmap),
        ]);
        let diags = purity_diags(&g);
        let alloc: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == "hot-path-purity" && d.message.contains("push"))
            .collect();
        assert_eq!(alloc.len(), 1, "{diags:?}");
        assert_eq!(alloc[0].path, "crates/sat-solver/src/util.rs");
        assert!(
            alloc[0].message.contains("Solver::propagate")
                && alloc[0].message.contains("util::helper_a")
                && alloc[0].message.contains("Scratch::grow"),
            "chain missing: {}",
            alloc[0].message
        );
    }

    #[test]
    fn cfg_gated_call_sites_and_fns_are_not_walked() {
        let solver = "pub struct Solver;\n\
                      impl Solver {\n    fn propagate(&mut self) -> Option<u32> {\n        #[cfg(feature = \"checks\")]\n        traced(self);\n        None\n    }\n\
                      fn analyze(&mut self) {}\n    fn lit_redundant(&mut self) -> bool { false }\n}\n\
                      #[cfg(feature = \"checks\")]\nfn traced(_s: &mut Solver) { let v = vec![1]; drop(v); }";
        let varmap = "pub(crate) fn at() {}\n\
                      pub struct VarMap;\nimpl VarMap { pub fn get(&self) {} pub fn get_mut(&mut self) {} }\n\
                      pub struct LitMap;\nimpl LitMap { pub fn get_mut(&mut self) {} }";
        let g = graph(&[
            ("crates/sat-solver/src/solver.rs", solver),
            ("crates/sat-solver/src/varmap.rs", varmap),
        ]);
        let diags = purity_diags(&g);
        assert!(
            diags.iter().all(|d| !d.message.contains("vec!")),
            "{diags:?}"
        );
    }

    #[test]
    fn dynamic_calls_on_hot_path_must_be_reported() {
        let solver = "pub struct Solver { policy: Box<dyn Policy> }\n\
                      impl Solver {\n    fn propagate(&mut self) -> Option<u32> {\n        self.policy.score(1);\n        None\n    }\n\
                      fn analyze(&mut self) {}\n    fn lit_redundant(&mut self) -> bool { false }\n}";
        let varmap = "pub(crate) fn at() {}\n\
                      pub struct VarMap;\nimpl VarMap { pub fn get(&self) {} pub fn get_mut(&mut self) {} }\n\
                      pub struct LitMap;\nimpl LitMap { pub fn get_mut(&mut self) {} }";
        // No workspace impl of Policy exists → dynamic-call diagnostic.
        let g = graph(&[
            ("crates/sat-solver/src/solver.rs", solver),
            ("crates/sat-solver/src/varmap.rs", varmap),
        ]);
        let diags = purity_diags(&g);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "dynamic-call" && d.message.contains("dyn:Policy::score")),
            "{diags:?}"
        );
        // With an impl in the workspace, the same site dispatches to it
        // instead, and the impl's effects surface transitively.
        let imp = "pub struct Greedy;\n\
                   impl Policy for Greedy {\n    fn score(&mut self, x: u32) -> u32 { let mut v = Vec::new(); v.push(x); x }\n}";
        let g2 = graph(&[
            ("crates/sat-solver/src/solver.rs", solver),
            ("crates/sat-solver/src/policy.rs", imp),
            ("crates/sat-solver/src/varmap.rs", varmap),
        ]);
        let diags2 = purity_diags(&g2);
        assert!(
            diags2.iter().all(|d| d.rule != "dynamic-call"),
            "{diags2:?}"
        );
        assert!(
            diags2
                .iter()
                .any(|d| d.rule == "hot-path-purity" && d.path.ends_with("policy.rs")),
            "{diags2:?}"
        );
    }

    #[test]
    fn inline_allows_prune_effects_and_edges() {
        let solver = "pub struct Solver;\n\
                      impl Solver {\n    fn propagate(&mut self) -> Option<u32> {\n        cold_path(self);\n        None\n    }\n\
                      fn analyze(&mut self) {}\n    fn lit_redundant(&mut self) -> bool { false }\n}\n\
                      fn cold_path(_s: &mut Solver) { let mut v = Vec::new(); v.push(1); }";
        let varmap = "pub(crate) fn at() {}\n\
                      pub struct VarMap;\nimpl VarMap { pub fn get(&self) {} pub fn get_mut(&mut self) {} }\n\
                      pub struct LitMap;\nimpl LitMap { pub fn get_mut(&mut self) {} }";
        let g = graph(&[
            ("crates/sat-solver/src/solver.rs", solver),
            ("crates/sat-solver/src/varmap.rs", varmap),
        ]);
        assert!(purity_diags(&g).iter().any(|d| d.rule == "hot-path-purity"));
        // An edge-pruning allow on the call line silences the whole
        // subtree.
        let mut allows = AllowMap::new();
        allows.insert(
            "crates/sat-solver/src/solver.rs".to_string(),
            vec![(4, "hot-path-call".to_string())],
        );
        let mut diags = Vec::new();
        hot_path_purity(&g, &allows, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dot_prints_reachable_subgraph() {
        let src = "pub struct S;\nimpl S { fn a(&self) { self.b() } fn b(&self) { helper() } }\nfn helper() {}\nfn unrelated() {}";
        let g = graph(&[("crates/core/src/lib.rs", src)]);
        let out = dot(&g, "S::a").expect("root found");
        assert!(out.contains("\"core::S::a\" -> \"core::S::b\""), "{out}");
        assert!(out.contains("core::helper"), "{out}");
        assert!(!out.contains("unrelated"), "{out}");
        assert!(dot(&g, "nope").is_err());
    }
}
