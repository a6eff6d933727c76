//! Recursive-descent item extraction over the lexed token stream.
//!
//! This is the front half of the interprocedural analysis layer: it walks
//! a file's tokens (test items already stripped) and produces, per `fn`
//! item, the facts the call-graph rules need — module path, `impl` owner,
//! `#[cfg]` attributes, every call site with its receiver
//! shape, every effect site (panic / raw index / allocation / lock / IO),
//! and parameter names and types. Closure bodies are attributed to their
//! enclosing `fn`; `macro_rules!` bodies are skipped and recorded as
//! explicit `macro-opaque` items rather than silently ignored.
//!
//! The extractor is token-level, not a real parser: it never fails, it
//! only degrades — an expression shape it does not recognize becomes an
//! `Opaque` receiver, which the resolution layer in `callgraph` treats
//! conservatively. See DESIGN.md §14 for the model.

use crate::lexer::{Token, TokenKind};

/// Effect categories the transitive purity rule tracks. Ordered so the
/// serialized facts are stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EffectKind {
    /// `Vec::push`-class growth: `.push(` / `.insert(` / `.collect(` /
    /// `vec!` / `format!` / `with_capacity` / `Box::new` / ...
    Alloc,
    /// Raw slice/array indexing (`xs[i]`), same shape test as `no-index`.
    Index,
    /// Console or filesystem IO.
    Io,
    /// A `Mutex`/`RwLock` acquisition (`.lock(`).
    Lock,
    /// `panic!`-family macros, hard asserts, `.unwrap()` / `.expect(`.
    Panic,
}

impl EffectKind {
    /// Stable lowercase name used in facts and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            EffectKind::Alloc => "alloc",
            EffectKind::Index => "index",
            EffectKind::Io => "io",
            EffectKind::Lock => "lock",
            EffectKind::Panic => "panic",
        }
    }
}

/// One effect occurrence inside a fn body.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// Category.
    pub kind: EffectKind,
    /// 1-based source line.
    pub line: u32,
    /// Index of the triggering token in the file's token stream.
    pub tok: usize,
    /// Short rendering of the trigger (`.push(`, `vec!`, `xs[...]`).
    pub what: String,
}

/// The receiver shape of a method call, as far back as the token stream
/// lets us walk.
#[derive(Debug, Clone)]
pub enum Receiver {
    /// `self.m(...)` (empty) or `self.a.b.m(...)` (the field chain).
    SelfChain(Vec<String>),
    /// `x.m(...)` / `x.f.m(...)` — head is a local, param, or static.
    VarChain(Vec<String>),
    /// `f(...).m(...)` — chained off another call's result.
    Call(Box<CallTarget>),
    /// Anything else (`xs[i].m()`, parenthesized expressions, ...).
    Opaque,
}

/// What a call site syntactically targets.
#[derive(Debug, Clone)]
pub enum CallTarget {
    /// `foo(...)` or `a::b::foo(...)` — the path segments.
    Path(Vec<String>),
    /// `recv.name(...)`.
    Method {
        /// Method name.
        name: String,
        /// Receiver shape.
        receiver: Receiver,
    },
    /// `name!(...)` — resolved against workspace `macro_rules!` defs.
    MacroUse(String),
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Syntactic target.
    pub target: CallTarget,
    /// 1-based source line.
    pub line: u32,
    /// Index of the callee-name token in the file's token stream.
    pub tok: usize,
    /// `Some(feature)` when the site sits under a statement- or
    /// item-level `#[cfg(feature = "...")]` gate (and is therefore
    /// compiled out of default builds). `cfg(not(...))` does not gate.
    pub cfg_feature: Option<String>,
}

/// One extracted `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Fully qualified id, e.g. `sat_solver::solver::Solver::propagate`.
    pub id: String,
    /// Bare name.
    pub name: String,
    /// `impl` (or `trait`) owner type name, if any.
    pub self_type: Option<String>,
    /// For `impl Trait for Type` methods, the trait name.
    pub trait_name: Option<String>,
    /// Whether this fn is declared inside a `trait { }` block (a
    /// signature or a default method).
    pub is_trait_decl: bool,
    /// Workspace-relative file path.
    pub path: String,
    /// Module id the fn lives in (for nested fns, the enclosing fn id).
    pub module: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Item-level `#[cfg(feature = "...")]` gate, if any.
    pub cfg_feature: Option<String>,
    /// Parameter `(name, type-identifier tokens)` pairs, `self` omitted.
    pub params: Vec<(String, Vec<String>)>,
    /// Identifier tokens of the return type, in order.
    pub ret: Vec<String>,
    /// Token range of the body including braces, if the fn has one.
    pub body: Option<(usize, usize)>,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Effect sites in body order.
    pub effects: Vec<EffectSite>,
}

/// One struct field: name plus the identifier/keyword tokens of its type
/// (`dyn` is kept so trait-object fields are recognizable).
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Field name.
    pub name: String,
    /// Type tokens (identifiers and the `dyn` keyword).
    pub tokens: Vec<String>,
}

/// One `struct` with named fields.
#[derive(Debug, Clone)]
pub struct StructInfo {
    /// Type name.
    pub name: String,
    /// Module id the struct is defined in.
    pub module: String,
    /// Named fields.
    pub fields: Vec<FieldInfo>,
}

/// A `static` or `const` item (lock-order analysis cares about the
/// `Mutex`-typed ones).
#[derive(Debug, Clone)]
pub struct StaticInfo {
    /// Item name.
    pub name: String,
    /// Module id.
    pub module: String,
    /// Whether the type mentions `Mutex`/`RwLock`/`OnceLock`.
    pub is_lock: bool,
}

/// Everything extracted from one source file.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub path: String,
    /// The stripped token stream all `tok` indices refer to.
    pub tokens: Vec<Token>,
    /// Extracted fns (including nested ones).
    pub fns: Vec<FnItem>,
    /// Structs with named fields.
    pub structs: Vec<StructInfo>,
    /// Statics and consts.
    pub statics: Vec<StaticInfo>,
    /// Ids of `macro_rules!` definitions (macro-opaque items).
    pub macros: Vec<String>,
}

/// Maps a workspace-relative path to a module id:
/// `crates/sat-solver/src/bin/rsat.rs` → `sat_solver::bin::rsat`.
pub fn module_id(path: &str) -> String {
    let rest = path.strip_prefix("crates/").unwrap_or(path);
    let (cr, tail) = rest.split_once('/').unwrap_or((rest, ""));
    let cr = cr.replace('-', "_");
    let tail = tail.strip_prefix("src/").unwrap_or(tail);
    let tail = tail.strip_suffix(".rs").unwrap_or(tail);
    let tail = tail.strip_suffix("/mod").unwrap_or(tail);
    if tail.is_empty() || tail == "lib" {
        cr
    } else {
        format!("{cr}::{}", tail.replace('/', "::"))
    }
}

/// Extracts all items from one file. `tokens` must already be
/// test-stripped; `src` is consulted only to recover `#[cfg]` feature
/// names (the lexer normalizes string literals).
pub fn extract_file(path: &str, src: &str, tokens: Vec<Token>) -> FileFacts {
    let lines: Vec<&str> = src.lines().collect();
    let module = module_id(path);
    let mut facts = FileFacts {
        path: path.to_string(),
        ..Default::default()
    };
    {
        let mut cx = Cx {
            toks: &tokens,
            lines: &lines,
            out: &mut facts,
        };
        cx.items(0, tokens.len(), &module, None);
    }
    facts.tokens = tokens;
    facts
}

/// Attributes accumulated in front of an item or statement.
#[derive(Debug, Default, Clone)]
struct Attrs {
    cfg_feature: Option<String>,
}

#[derive(Debug, Clone)]
struct Owner {
    type_name: String,
    trait_name: Option<String>,
    is_trait_decl: bool,
}

struct Cx<'a> {
    toks: &'a [Token],
    lines: &'a [&'a str],
    out: &'a mut FileFacts,
}

/// Keywords that can syntactically precede `(` without being a call.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "mut", "ref", "let",
    "else", "break", "continue", "await", "where", "unsafe", "dyn", "impl", "fn", "use", "pub",
    "box", "yield", "static", "const", "crate", "super",
];

/// Mirror of the `no-index` shape test: identifiers directly before `[`
/// that do not make it an index expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "in", "return", "break", "continue", "else", "match", "mut", "ref", "move", "as", "if",
    "while", "loop", "yield",
];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const IO_MACROS: &[&str] = &["print", "println", "eprint", "eprintln", "dbg"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const ALLOC_METHODS: &[&str] = &[
    "push",
    "insert",
    "extend",
    "extend_from_slice",
    "append",
    "reserve",
    "reserve_exact",
    "resize",
    "split_off",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
];
const IO_METHODS: &[&str] = &[
    "flush",
    "write_all",
    "write_fmt",
    "read_to_string",
    "read_to_end",
    "read_line",
    "sync_all",
];

impl<'a> Cx<'a> {
    fn t(&self, i: usize) -> Option<&Token> {
        self.toks.get(i)
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.t(i).is_some_and(|t| t.is_ident(s))
    }

    fn is_punct(&self, i: usize, s: &str) -> bool {
        self.t(i).is_some_and(|t| t.is_punct(s))
    }

    /// Parses an attribute starting at `#`; returns the index one past
    /// its closing `]` plus what the rules care about. Inner attributes
    /// (`#![...]`) are parsed but reported as `outer == false`.
    fn parse_attr(&self, i: usize) -> (usize, Attrs, bool) {
        let mut j = i + 1;
        let outer = !self.is_punct(j, "!");
        if !outer {
            j += 1;
        }
        if !self.is_punct(j, "[") {
            return (i + 1, Attrs::default(), outer);
        }
        let start_line = self.toks[i].line;
        let mut depth = 0usize;
        let mut saw_cfg = false;
        let mut saw_not = false;
        let mut saw_feature = false;
        while j < self.toks.len() {
            let t = &self.toks[j];
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokenKind::Ident {
                match t.text.as_str() {
                    "cfg" | "cfg_attr" => saw_cfg = true,
                    "not" => saw_not = true,
                    "feature"
                        if self.is_punct(j + 1, "=")
                            && self.t(j + 2).is_some_and(|n| n.kind == TokenKind::Str) =>
                    {
                        saw_feature = true;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let end = j.min(self.toks.len().saturating_sub(1));
        let end_line = self.toks.get(end).map(|t| t.line).unwrap_or(start_line);
        let mut attrs = Attrs { cfg_feature: None };
        // `cfg(not(feature = "x"))` is compiled in *default* builds, so it
        // does not gate the item out of the default-build call graph.
        if saw_cfg && saw_feature && !saw_not {
            attrs.cfg_feature = feature_name(self.lines, start_line, end_line);
        }
        (j + 1, attrs, outer)
    }

    /// Index one past the matching `}` for the `{` at `open`.
    fn close_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < self.toks.len() {
            if self.toks[i].is_punct("{") {
                depth += 1;
            } else if self.toks[i].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.toks.len().saturating_sub(1)
    }

    /// Index one past the `;` ending the item starting at `i` (depth
    /// aware for initializers containing `;`-free nesting).
    fn skip_to_semi(&self, mut i: usize, end: usize) -> usize {
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut brace = 0i32;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct("(") {
                paren += 1;
            } else if t.is_punct(")") {
                paren -= 1;
            } else if t.is_punct("[") {
                bracket += 1;
            } else if t.is_punct("]") {
                bracket -= 1;
            } else if t.is_punct("{") {
                brace += 1;
            } else if t.is_punct("}") {
                brace -= 1;
            } else if t.is_punct(";") && paren == 0 && bracket == 0 && brace == 0 {
                return i + 1;
            }
            i += 1;
        }
        end
    }

    /// Skips a generics list starting at `<`; returns the index one past
    /// the matching `>`. `>>` closes two levels.
    fn skip_angles(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct("<") || t.is_punct("<<") {
                depth += if t.text == "<<" { 2 } else { 1 };
            } else if t.is_punct(">") || t.is_punct(">>") {
                depth -= if t.text == ">>" { 2 } else { 1 };
                if depth <= 0 {
                    return i + 1;
                }
            } else if t.is_punct("(") || t.is_punct("{") || t.is_punct(";") {
                // Bail out: not a generics list after all.
                return i;
            }
            i += 1;
        }
        end
    }

    /// Walks items in `[i, end)`, attributing them to `module` (and
    /// `owner` inside `impl`/`trait` blocks).
    fn items(&mut self, mut i: usize, end: usize, module: &str, owner: Option<&Owner>) {
        let mut attrs = Attrs::default();
        while i < end {
            let Some(t) = self.t(i) else { break };
            if t.kind == TokenKind::DocComment {
                i += 1;
                continue;
            }
            if t.is_punct("#") {
                let (j, a, outer) = self.parse_attr(i);
                if outer && a.cfg_feature.is_some() {
                    attrs.cfg_feature = a.cfg_feature;
                }
                i = j;
                continue;
            }
            if t.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            match t.text.as_str() {
                // Qualifiers: keep accumulated attrs and continue.
                "pub" => {
                    i += 1;
                    if self.is_punct(i, "(") {
                        let mut depth = 0i32;
                        while i < end {
                            if self.is_punct(i, "(") {
                                depth += 1;
                            } else if self.is_punct(i, ")") {
                                depth -= 1;
                                if depth == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            i += 1;
                        }
                    }
                }
                "unsafe" | "async" | "default" => i += 1,
                "extern" => {
                    i += 1;
                    if self.t(i).is_some_and(|t| t.kind == TokenKind::Str) {
                        i += 1;
                    }
                }
                "const" if self.is_ident(i + 1, "fn") => i += 1,
                "mod" => {
                    let name = self
                        .t(i + 1)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    if self.is_punct(i + 2, "{") {
                        let close = self.close_brace(i + 2);
                        let sub = format!("{module}::{name}");
                        self.items(i + 3, close, &sub, None);
                        i = close + 1;
                    } else {
                        i = self.skip_to_semi(i, end);
                    }
                    attrs = Attrs::default();
                }
                "impl" => {
                    i = self.parse_impl(i, end, module, &attrs);
                    attrs = Attrs::default();
                }
                "trait" => {
                    i = self.parse_trait(i, end, module, &attrs);
                    attrs = Attrs::default();
                }
                "fn" => {
                    i = self.parse_fn(i, end, module, owner, &attrs);
                    attrs = Attrs::default();
                }
                "struct" => {
                    i = self.parse_struct(i, end, module);
                    attrs = Attrs::default();
                }
                "enum" | "union" => {
                    let mut j = i + 2;
                    if self.is_punct(j, "<") {
                        j = self.skip_angles(j, end);
                    }
                    while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                        j += 1;
                    }
                    i = if self.is_punct(j, "{") {
                        self.close_brace(j) + 1
                    } else {
                        j + 1
                    };
                    attrs = Attrs::default();
                }
                "macro_rules" => {
                    i = self.parse_macro_rules(i, end, module);
                    attrs = Attrs::default();
                }
                "static" | "const" => {
                    i = self.parse_static(i, end, module);
                    attrs = Attrs::default();
                }
                "use" | "type" => {
                    i = self.skip_to_semi(i, end);
                    attrs = Attrs::default();
                }
                _ => i += 1,
            }
        }
    }

    /// `impl[<...>] [Trait for] Type[<...>] { ... }`.
    fn parse_impl(&mut self, i: usize, end: usize, module: &str, attrs: &Attrs) -> usize {
        let mut j = i + 1;
        if self.is_punct(j, "<") {
            j = self.skip_angles(j, end);
        }
        let header_start = j;
        let mut for_at = None;
        let mut angle = 0i32;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct("<") || t.is_punct("<<") {
                angle += if t.text == "<<" { 2 } else { 1 };
            } else if t.is_punct(">") || t.is_punct(">>") {
                angle -= if t.text == ">>" { 2 } else { 1 };
            } else if angle <= 0 && t.is_ident("for") {
                for_at = Some(j);
            } else if angle <= 0 && (t.is_punct("{") || t.is_punct(";")) {
                break;
            }
            j += 1;
        }
        if !self.is_punct(j, "{") {
            return j + 1;
        }
        let type_start = for_at.map(|f| f + 1).unwrap_or(header_start);
        let type_name = self.path_last_ident(type_start, j);
        let trait_name = for_at.and_then(|f| self.path_last_ident(header_start, f));
        let close = self.close_brace(j);
        let owner = Owner {
            type_name: type_name.unwrap_or_default(),
            trait_name,
            is_trait_decl: false,
        };
        // Item-level cfg on the impl block gates everything inside it; we
        // approximate by letting the contained fns inherit it through the
        // recursion (passed via a synthetic leading attribute).
        self.items_with_inherited_cfg(j + 1, close, module, Some(&owner), attrs);
        close + 1
    }

    /// `trait Name[: Bounds] { ... }` — fns inside are trait decls.
    fn parse_trait(&mut self, i: usize, end: usize, module: &str, attrs: &Attrs) -> usize {
        let name = self
            .t(i + 1)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let mut j = i + 2;
        if self.is_punct(j, "<") {
            j = self.skip_angles(j, end);
        }
        while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
            j += 1;
        }
        if !self.is_punct(j, "{") {
            return j + 1;
        }
        let close = self.close_brace(j);
        let owner = Owner {
            type_name: name.clone(),
            trait_name: Some(name),
            is_trait_decl: true,
        };
        self.items_with_inherited_cfg(j + 1, close, module, Some(&owner), attrs);
        close + 1
    }

    /// Recurse into a block whose items inherit the block's cfg gate.
    fn items_with_inherited_cfg(
        &mut self,
        start: usize,
        end: usize,
        module: &str,
        owner: Option<&Owner>,
        attrs: &Attrs,
    ) {
        let before = self.out.fns.len();
        self.items(start, end, module, owner);
        if attrs.cfg_feature.is_some() {
            for f in &mut self.out.fns[before..] {
                if f.cfg_feature.is_none() {
                    f.cfg_feature = attrs.cfg_feature.clone();
                }
            }
        }
    }

    /// Last identifier of the leading path in `[start, end)`, skipping
    /// `&`, `mut`, `dyn` sigils: `fmt::Display` → `Display`.
    fn path_last_ident(&self, mut start: usize, end: usize) -> Option<String> {
        while start < end
            && (self.is_punct(start, "&")
                || self.is_ident(start, "mut")
                || self.is_ident(start, "dyn")
                || self.t(start).is_some_and(|t| t.kind == TokenKind::Lifetime))
        {
            start += 1;
        }
        let mut last = None;
        let mut i = start;
        while i < end {
            let t = self.t(i)?;
            if t.kind == TokenKind::Ident {
                last = Some(t.text.clone());
                if self.is_punct(i + 1, "::") {
                    i += 2;
                    continue;
                }
            }
            break;
        }
        last
    }

    /// `struct Name { field: Type, ... }` (tuple and unit structs are
    /// skipped — resolution only needs named fields).
    fn parse_struct(&mut self, i: usize, end: usize, module: &str) -> usize {
        let Some(name) = self
            .t(i + 1)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
        else {
            return i + 1;
        };
        let mut j = i + 2;
        if self.is_punct(j, "<") {
            j = self.skip_angles(j, end);
        }
        while j < end && !self.is_punct(j, "{") && !self.is_punct(j, "(") && !self.is_punct(j, ";")
        {
            j += 1;
        }
        if self.is_punct(j, "(") || self.is_punct(j, ";") {
            return self.skip_to_semi(j, end);
        }
        if !self.is_punct(j, "{") {
            return j + 1;
        }
        let close = self.close_brace(j);
        let mut fields = Vec::new();
        let mut k = j + 1;
        while k < close {
            let t = &self.toks[k];
            if t.kind == TokenKind::DocComment {
                k += 1;
                continue;
            }
            if t.is_punct("#") {
                let (n, _, _) = self.parse_attr(k);
                k = n;
                continue;
            }
            if t.is_ident("pub") {
                k += 1;
                if self.is_punct(k, "(") {
                    while k < close && !self.is_punct(k, ")") {
                        k += 1;
                    }
                    k += 1;
                }
                continue;
            }
            if t.kind == TokenKind::Ident && self.is_punct(k + 1, ":") {
                let fname = t.text.clone();
                // Type runs to the `,` at depth 0 or the closing `}`.
                let mut depth = 0i32;
                let mut toks = Vec::new();
                let mut m = k + 2;
                while m < close {
                    let u = &self.toks[m];
                    if u.is_punct("<") || u.is_punct("(") || u.is_punct("[") {
                        depth += 1;
                    } else if u.is_punct("<<") {
                        depth += 2;
                    } else if u.is_punct(">") || u.is_punct(")") || u.is_punct("]") {
                        depth -= 1;
                    } else if u.is_punct(">>") {
                        depth -= 2;
                    } else if u.is_punct(",") && depth <= 0 {
                        break;
                    }
                    if u.kind == TokenKind::Ident {
                        toks.push(u.text.clone());
                    }
                    m += 1;
                }
                fields.push(FieldInfo {
                    name: fname,
                    tokens: toks,
                });
                k = m + 1;
                continue;
            }
            k += 1;
        }
        self.out.structs.push(StructInfo {
            name,
            module: module.to_string(),
            fields,
        });
        close + 1
    }

    /// `macro_rules! name { ... }` → a macro-opaque item.
    fn parse_macro_rules(&mut self, i: usize, end: usize, module: &str) -> usize {
        let name = self
            .t(i + 2)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        self.out.macros.push(format!("{module}::{name}"));
        let mut j = i + 3;
        while j < end && !self.is_punct(j, "{") && !self.is_punct(j, "(") && !self.is_punct(j, "[")
        {
            j += 1;
        }
        if self.is_punct(j, "{") {
            return self.close_brace(j) + 1;
        }
        // `macro_rules! m ( ... );` form: balance the delimiter, then `;`.
        self.skip_to_semi(j, end)
    }

    /// `static NAME: Type = init;` / `const NAME: Type = init;`.
    fn parse_static(&mut self, i: usize, end: usize, module: &str) -> usize {
        let mut j = i + 1;
        if self.is_ident(j, "mut") {
            j += 1;
        }
        let Some(name) = self
            .t(j)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
        else {
            return self.skip_to_semi(i, end);
        };
        let mut is_lock = false;
        if self.is_punct(j + 1, ":") {
            let mut m = j + 2;
            let mut depth = 0i32;
            while m < end {
                let u = &self.toks[m];
                if u.is_punct("<") {
                    depth += 1;
                } else if u.is_punct(">") {
                    depth -= 1;
                } else if u.is_punct(">>") {
                    depth -= 2;
                } else if (u.is_punct("=") || u.is_punct(";")) && depth <= 0 {
                    break;
                } else if u.kind == TokenKind::Ident
                    && matches!(u.text.as_str(), "Mutex" | "RwLock" | "OnceLock")
                {
                    is_lock = true;
                }
                m += 1;
            }
        }
        self.out.statics.push(StaticInfo {
            name,
            module: module.to_string(),
            is_lock,
        });
        self.skip_to_semi(i, end)
    }

    /// `fn name(<params>) [-> Ret] { body }` (or `;` for trait decls).
    /// Returns the index one past the item. Nested fns recurse with the
    /// enclosing fn's id as their module, so a shadowed local fn resolves
    /// ahead of a same-named top-level one.
    fn parse_fn(
        &mut self,
        i: usize,
        end: usize,
        module: &str,
        owner: Option<&Owner>,
        attrs: &Attrs,
    ) -> usize {
        let Some(name_tok) = self.t(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            return i + 1;
        };
        let name = name_tok.text.clone();
        let line = self.toks[i].line;
        let mut j = i + 2;
        if self.is_punct(j, "<") {
            j = self.skip_angles(j, end);
        }
        // Parameters.
        let mut params = Vec::new();
        if self.is_punct(j, "(") {
            let mut depth = 0i32;
            let open = j;
            while j < end {
                let t = &self.toks[j];
                if t.is_punct("(") {
                    depth += 1;
                } else if t.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                // `name :` at paren depth 1, preceded by `(`/`,`/`mut`.
                if depth == 1 && t.kind == TokenKind::Ident && self.is_punct(j + 1, ":") && j > open
                {
                    let prev = &self.toks[j - 1];
                    if prev.is_punct("(") || prev.is_punct(",") || prev.is_ident("mut") {
                        // Type idents up to the `,` at depth 1 / close.
                        let mut tdepth = 0i32;
                        let mut ttoks = Vec::new();
                        let mut m = j + 2;
                        while m < end {
                            let u = &self.toks[m];
                            if u.is_punct("<") || u.is_punct("(") || u.is_punct("[") {
                                tdepth += 1;
                            } else if u.is_punct(">") || u.is_punct("]") {
                                tdepth -= 1;
                            } else if u.is_punct(">>") {
                                tdepth -= 2;
                            } else if u.is_punct(")") {
                                if tdepth == 0 {
                                    break;
                                }
                                tdepth -= 1;
                            } else if u.is_punct(",") && tdepth <= 0 {
                                break;
                            }
                            if u.kind == TokenKind::Ident
                                && !u.is_ident("mut")
                                && !u.is_ident("ref")
                            {
                                ttoks.push(u.text.clone());
                            }
                            m += 1;
                        }
                        params.push((t.text.clone(), ttoks));
                    }
                }
                j += 1;
            }
            j += 1; // past `)`
        }
        // Return type + find body start.
        let mut ret = Vec::new();
        let mut in_where = false;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct("{") || t.is_punct(";") {
                break;
            }
            if t.is_ident("where") {
                in_where = true;
            } else if !in_where && t.kind == TokenKind::Ident {
                ret.push(t.text.clone());
            }
            j += 1;
        }
        let id = match owner {
            Some(o) if !o.type_name.is_empty() => format!("{module}::{}::{name}", o.type_name),
            _ => format!("{module}::{name}"),
        };
        let mut item = FnItem {
            id: id.clone(),
            name,
            self_type: owner.map(|o| o.type_name.clone()).filter(|t| !t.is_empty()),
            trait_name: owner.and_then(|o| o.trait_name.clone()),
            is_trait_decl: owner.is_some_and(|o| o.is_trait_decl),
            path: self.out.path.clone(),
            module: module.to_string(),
            line,
            cfg_feature: attrs.cfg_feature.clone(),
            params,
            ret,
            body: None,
            calls: Vec::new(),
            effects: Vec::new(),
        };
        if self.is_punct(j, ";") {
            self.out.fns.push(item);
            return j + 1;
        }
        if !self.is_punct(j, "{") {
            self.out.fns.push(item);
            return j + 1;
        }
        let close = self.close_brace(j);
        item.body = Some((j, close));
        self.scan_body(j + 1, close, &mut item, owner);
        let next = close + 1;
        self.out.fns.push(item);
        next
    }

    /// Scans a fn body for calls, effects, and nested items. Closure
    /// bodies are plain body tokens here, so they are attributed to the
    /// enclosing fn by construction.
    fn scan_body(&mut self, start: usize, end: usize, item: &mut FnItem, owner: Option<&Owner>) {
        // Statement-level cfg gates: (range start, range end, feature).
        let mut gated: Vec<(usize, usize, String)> = Vec::new();
        let mut k = start;
        while k < end {
            let t = &self.toks[k];
            if t.kind == TokenKind::DocComment {
                k += 1;
                continue;
            }
            if t.is_punct("#") && self.is_punct(k + 1, "[") {
                let (j, a, _) = self.parse_attr(k);
                if let Some(feat) = a.cfg_feature {
                    // The gated statement ends at `;` outside braces or at
                    // the `}` closing its first brace.
                    let mut brace = 0i32;
                    let mut m = j;
                    let mut stmt_end = end;
                    while m < end {
                        let u = &self.toks[m];
                        if u.is_punct("{") {
                            brace += 1;
                        } else if u.is_punct("}") {
                            brace -= 1;
                            if brace == 0 {
                                stmt_end = m;
                                break;
                            }
                        } else if u.is_punct(";") && brace == 0 {
                            stmt_end = m;
                            break;
                        }
                        m += 1;
                    }
                    gated.push((j, stmt_end, feat));
                }
                k = j;
                continue;
            }
            if t.kind == TokenKind::Ident {
                match t.text.as_str() {
                    // Nested fn item: extract separately (its id nests
                    // under this fn), skip its tokens here.
                    "fn" if self.t(k + 1).is_some_and(|n| n.kind == TokenKind::Ident) => {
                        k = self.parse_fn(k, end, &item.id.clone(), None, &Attrs::default());
                        continue;
                    }
                    "macro_rules" if self.is_punct(k + 1, "!") => {
                        k = self.parse_macro_rules(k, end, &item.id.clone());
                        continue;
                    }
                    _ => {}
                }
                let cfg = gated
                    .iter()
                    .find(|(s, e, _)| k >= *s && k <= *e)
                    .map(|(_, _, f)| f.clone());
                // Macro use: `name!(` / `name![` / `name!{`.
                if self.is_punct(k + 1, "!")
                    && (self.is_punct(k + 2, "(")
                        || self.is_punct(k + 2, "[")
                        || self.is_punct(k + 2, "{"))
                {
                    let name = t.text.as_str();
                    let (line, tok) = (t.line, k);
                    if PANIC_MACROS.contains(&name) {
                        self.effect(item, EffectKind::Panic, line, tok, format!("`{name}!`"));
                    } else if ALLOC_MACROS.contains(&name) {
                        self.effect(item, EffectKind::Alloc, line, tok, format!("`{name}!`"));
                    } else if IO_MACROS.contains(&name) {
                        self.effect(item, EffectKind::Io, line, tok, format!("`{name}!`"));
                    }
                    item.calls.push(CallSite {
                        target: CallTarget::MacroUse(t.text.clone()),
                        line,
                        tok: k,
                        cfg_feature: cfg,
                    });
                    k += 2;
                    continue;
                }
                // Call: `name(`.
                if self.is_punct(k + 1, "(") && !CALL_KEYWORDS.contains(&t.text.as_str()) {
                    let (line, tok) = (t.line, k);
                    let target = if k > start && self.toks[k - 1].is_punct(".") {
                        let receiver = self.receiver(k - 1, start);
                        let name = t.text.as_str();
                        if PANIC_METHODS.contains(&name) {
                            self.effect(item, EffectKind::Panic, line, tok, format!("`.{name}(`"));
                        } else if ALLOC_METHODS.contains(&name) {
                            self.effect(item, EffectKind::Alloc, line, tok, format!("`.{name}(`"));
                        } else if IO_METHODS.contains(&name) {
                            self.effect(item, EffectKind::Io, line, tok, format!("`.{name}(`"));
                        } else if name == "lock" {
                            self.effect(item, EffectKind::Lock, line, tok, "`.lock(`".into());
                        }
                        CallTarget::Method {
                            name: t.text.clone(),
                            receiver,
                        }
                    } else if k > start && self.toks[k - 1].is_punct("::") {
                        let segs = self.path_back(k);
                        let last_two: Vec<&str> = segs
                            .iter()
                            .rev()
                            .take(2)
                            .rev()
                            .map(String::as_str)
                            .collect();
                        if segs.last().is_some_and(|s| s == "with_capacity")
                            || last_two == ["Box", "new"]
                        {
                            let what = format!("`{}(`", segs.join("::"));
                            self.effect(item, EffectKind::Alloc, line, tok, what);
                        } else if segs.iter().any(|s| s == "fs")
                            || matches!(last_two.first(), Some(&"File"))
                            || segs.last().is_some_and(|s| {
                                matches!(s.as_str(), "stdout" | "stderr" | "stdin")
                            })
                        {
                            let what = format!("`{}(`", segs.join("::"));
                            self.effect(item, EffectKind::Io, line, tok, what);
                        }
                        CallTarget::Path(segs)
                    } else {
                        if matches!(t.text.as_str(), "stdout" | "stderr" | "stdin") {
                            self.effect(item, EffectKind::Io, line, tok, format!("`{}(`", t.text));
                        }
                        CallTarget::Path(vec![t.text.clone()])
                    };
                    item.calls.push(CallSite {
                        target,
                        line,
                        tok,
                        cfg_feature: cfg,
                    });
                    k += 1;
                    continue;
                }
                k += 1;
                continue;
            }
            // Raw index expression, same shape test as `no-index`.
            if t.is_punct("[") && k > start {
                let prev = &self.toks[k - 1];
                let indexable = match prev.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                    TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
                    _ => false,
                };
                if indexable {
                    let what = format!("`{}[...]`", prev.text);
                    self.effect(item, EffectKind::Index, t.line, k, what);
                }
            }
            k += 1;
        }
        // Re-stamp statement-level gates onto effect sites too.
        for e in &mut item.effects {
            if item.cfg_feature.is_none() {
                if let Some((_, _, _f)) =
                    gated.iter().find(|(s, en, _)| e.tok >= *s && e.tok <= *en)
                {
                    // An effect under a feature gate is not part of the
                    // default build; record it with the gate by demoting
                    // nothing — the purity walk checks gates on the fn and
                    // the call edges, and effect sites inherit via this
                    // marker in `what`.
                    e.what = format!("{} [cfg-gated]", e.what);
                }
            }
        }
        let _ = owner;
    }

    fn effect(&self, item: &mut FnItem, kind: EffectKind, line: u32, tok: usize, what: String) {
        item.effects.push(EffectSite {
            kind,
            line,
            tok,
            what,
        });
    }

    /// Path segments ending with the identifier at `k`, walking back over
    /// `::`-separated segments.
    fn path_back(&self, k: usize) -> Vec<String> {
        let mut segs = vec![self.toks[k].text.clone()];
        let mut p = k;
        while p >= 2 && self.toks[p - 1].is_punct("::") && self.toks[p - 2].kind == TokenKind::Ident
        {
            segs.insert(0, self.toks[p - 2].text.clone());
            p -= 2;
        }
        segs
    }

    /// Receiver shape for the method call whose `.` sits at `dot`.
    fn receiver(&self, dot: usize, start: usize) -> Receiver {
        if dot == 0 || dot <= start {
            return Receiver::Opaque;
        }
        let prev = &self.toks[dot - 1];
        if prev.is_punct(")") {
            // Chained off a call: find the matching `(`, then its callee.
            let mut depth = 0i32;
            let mut q = dot - 1;
            loop {
                let t = &self.toks[q];
                if t.is_punct(")") {
                    depth += 1;
                } else if t.is_punct("(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if q == start || q == 0 {
                    return Receiver::Opaque;
                }
                q -= 1;
            }
            if q == 0 || q <= start {
                return Receiver::Opaque;
            }
            let c = &self.toks[q - 1];
            if c.kind != TokenKind::Ident || CALL_KEYWORDS.contains(&c.text.as_str()) {
                return Receiver::Opaque;
            }
            let target = if q >= 2 && self.toks[q - 2].is_punct(".") {
                CallTarget::Method {
                    name: c.text.clone(),
                    receiver: self.receiver(q - 2, start),
                }
            } else if q >= 2 && self.toks[q - 2].is_punct("::") {
                CallTarget::Path(self.path_back(q - 1))
            } else {
                CallTarget::Path(vec![c.text.clone()])
            };
            return Receiver::Call(Box::new(target));
        }
        if prev.kind == TokenKind::Ident {
            let mut segs = vec![prev.text.clone()];
            let mut q = dot - 1;
            while q >= 2
                && self.toks[q - 1].is_punct(".")
                && self.toks[q - 2].kind == TokenKind::Ident
                && q - 2 >= start
            {
                segs.insert(0, self.toks[q - 2].text.clone());
                q -= 2;
            }
            if segs[0] == "self" {
                segs.remove(0);
                return Receiver::SelfChain(segs);
            }
            if segs[0] == "Self" {
                return Receiver::SelfChain(segs.split_off(1));
            }
            return Receiver::VarChain(segs);
        }
        Receiver::Opaque
    }
}

/// Recovers a `feature = "<name>"` string from the raw source lines
/// spanning an attribute (the lexer blanks string literals).
fn feature_name(lines: &[&str], start_line: u32, end_line: u32) -> Option<String> {
    for l in start_line..=end_line {
        let raw = lines.get(l as usize - 1)?;
        if let Some(p) = raw.find("feature") {
            let after = &raw[p + "feature".len()..];
            let open = after.find('"')?;
            let rest = &after[open + 1..];
            let close = rest.find('"')?;
            return Some(rest[..close].to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_items};

    fn extract(path: &str, src: &str) -> FileFacts {
        let lexed = lex(src);
        let tokens = strip_test_items(&lexed.tokens);
        extract_file(path, src, tokens)
    }

    fn fn_ids(f: &FileFacts) -> Vec<&str> {
        f.fns.iter().map(|x| x.id.as_str()).collect()
    }

    #[test]
    fn module_ids_from_paths() {
        assert_eq!(module_id("crates/sat-solver/src/lib.rs"), "sat_solver");
        assert_eq!(
            module_id("crates/sat-solver/src/solver.rs"),
            "sat_solver::solver"
        );
        assert_eq!(
            module_id("crates/sat-solver/src/bin/rsat.rs"),
            "sat_solver::bin::rsat"
        );
        assert_eq!(module_id("crates/core/src/metrics.rs"), "core::metrics");
    }

    #[test]
    fn extracts_fns_with_impl_owner_and_module_path() {
        let src = "pub struct Solver { db: ClauseDb }\n\
                   impl Solver {\n    pub fn propagate(&mut self) -> Option<u32> { self.db.tick() }\n}\n\
                   fn free_helper() {}\n\
                   mod inner { pub fn nested_mod_fn() {} }";
        let f = extract("crates/sat-solver/src/solver.rs", src);
        assert_eq!(
            fn_ids(&f),
            vec![
                "sat_solver::solver::Solver::propagate",
                "sat_solver::solver::free_helper",
                "sat_solver::solver::inner::nested_mod_fn",
            ]
        );
        let prop = &f.fns[0];
        assert_eq!(prop.self_type.as_deref(), Some("Solver"));
        assert_eq!(prop.ret, vec!["Option", "u32"]);
        assert_eq!(f.structs.len(), 1);
        assert_eq!(f.structs[0].fields[0].name, "db");
        assert_eq!(f.structs[0].fields[0].tokens, vec!["ClauseDb"]);
    }

    #[test]
    fn nested_closures_attribute_to_enclosing_fn() {
        let src = "fn outer(xs: &[u32]) -> u32 {\n\
                   let f = |a: u32| xs.iter().map(|b| helper(a, *b)).sum::<u32>();\n\
                   f(1)\n}";
        let f = extract("crates/core/src/lib.rs", src);
        assert_eq!(fn_ids(&f), vec!["core::outer"]);
        let calls: Vec<String> = f.fns[0]
            .calls
            .iter()
            .filter_map(|c| match &c.target {
                CallTarget::Path(p) => Some(p.join("::")),
                _ => None,
            })
            .collect();
        // `helper` from inside the nested closure lands on `outer`; the
        // call of the closure variable `f` is also a bare path call.
        assert!(calls.contains(&"helper".to_string()), "{calls:?}");
        assert!(calls.contains(&"f".to_string()), "{calls:?}");
    }

    #[test]
    fn same_name_trait_impl_methods_get_distinct_ids() {
        let src = "struct A; struct B;\n\
                   impl std::fmt::Display for A {\n    fn fmt(&self) -> u32 { 1 }\n}\n\
                   impl std::fmt::Display for B {\n    fn fmt(&self) -> u32 { 2 }\n}";
        let f = extract("crates/core/src/lib.rs", src);
        assert_eq!(fn_ids(&f), vec!["core::A::fmt", "core::B::fmt"]);
        assert_eq!(f.fns[0].trait_name.as_deref(), Some("Display"));
        assert!(!f.fns[0].is_trait_decl);
    }

    #[test]
    fn cfg_feature_gated_duplicate_fns_both_extracted() {
        let src = "#[cfg(feature = \"fast\")]\nfn pick() -> u32 { 1 }\n\
                   #[cfg(not(feature = \"fast\"))]\nfn pick() -> u32 { 2 }";
        let f = extract("crates/core/src/lib.rs", src);
        assert_eq!(fn_ids(&f), vec!["core::pick", "core::pick"]);
        assert_eq!(f.fns[0].cfg_feature.as_deref(), Some("fast"));
        // `cfg(not(feature))` is the default-build variant: no gate.
        assert_eq!(f.fns[1].cfg_feature, None);
    }

    #[test]
    fn macro_rules_bodies_are_macro_opaque() {
        let src = "macro_rules! boom {\n    () => { panic!(\"never scanned\") };\n}\n\
                   fn clean() { boom!(); }";
        let f = extract("crates/core/src/lib.rs", src);
        assert_eq!(f.macros, vec!["core::boom"]);
        let clean = &f.fns[0];
        // The macro body's `panic!` must not leak into `clean`'s effects;
        // the use site is recorded as a MacroUse call instead.
        assert!(clean.effects.is_empty(), "{:?}", clean.effects);
        assert!(clean
            .calls
            .iter()
            .any(|c| matches!(&c.target, CallTarget::MacroUse(m) if m == "boom")));
    }

    #[test]
    fn shadowed_local_fns_nest_under_the_enclosing_fn() {
        let src = "fn helper() {}\n\
                   fn outer() {\n    fn helper() { x.push(1); }\n    helper();\n}";
        let f = extract("crates/core/src/lib.rs", src);
        assert_eq!(
            fn_ids(&f),
            vec!["core::helper", "core::outer::helper", "core::outer"]
        );
        // The nested fn's alloc effect belongs to it, not to `outer`.
        assert!(f.fns[1].effects.iter().any(|e| e.kind == EffectKind::Alloc));
        assert!(f.fns[2].effects.is_empty());
    }

    #[test]
    fn effects_panic_index_alloc_lock_io() {
        let src = "fn f(xs: &[u32], m: &std::sync::Mutex<u32>, o: Option<u32>) {\n\
                   let a = xs[0];\n\
                   let b = o.unwrap();\n\
                   let mut v = Vec::with_capacity(4); v.push(a + b);\n\
                   let g = m.lock();\n\
                   println!(\"{:?}\", g);\n}";
        let f = extract("crates/core/src/lib.rs", src);
        let mut kinds: Vec<EffectKind> = f.fns[0].effects.iter().map(|e| e.kind).collect();
        kinds.sort();
        kinds.dedup();
        use EffectKind::*;
        assert_eq!(kinds, vec![Alloc, Index, Io, Lock, Panic]);
    }

    #[test]
    fn receivers_self_chain_var_chain_and_call_chain() {
        let src = "impl S {\n  fn f(&mut self, ws: &mut Vec<u32>) {\n\
                   self.db.bump(1);\n\
                   ws.swap_remove(0);\n\
                   self.db.clause(3).lit(0);\n  }\n}";
        let f = extract("crates/core/src/lib.rs", src);
        let calls = &f.fns[0].calls;
        let m = |n: &str| {
            calls
                .iter()
                .find_map(|c| match &c.target {
                    CallTarget::Method { name, receiver } if name == n => Some(receiver.clone()),
                    _ => None,
                })
                .unwrap()
        };
        assert!(matches!(m("bump"), Receiver::SelfChain(ref v) if v == &["db"]));
        assert!(matches!(m("swap_remove"), Receiver::VarChain(ref v) if v == &["ws"]));
        match m("lit") {
            Receiver::Call(target) => match *target {
                CallTarget::Method { ref name, .. } => assert_eq!(name, "clause"),
                other => panic!("unexpected inner target {other:?}"),
            },
            other => panic!("unexpected receiver {other:?}"),
        }
    }

    #[test]
    fn statement_level_cfg_gates_call_sites() {
        let src = "fn f() {\n\
                   #[cfg(feature = \"checks\")]\n\
                   crate::check::audit(\"x\");\n\
                   crate::check::audit(\"y\");\n}";
        let f = extract("crates/sat-solver/src/solver.rs", src);
        let gates: Vec<Option<&str>> = f.fns[0]
            .calls
            .iter()
            .map(|c| c.cfg_feature.as_deref())
            .collect();
        assert_eq!(gates, vec![Some("checks"), None]);
    }

    #[test]
    fn params_carry_type_idents_and_statics_flag_locks() {
        let src = "static POOL: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n\
                   const N: usize = 4;\n\
                   fn f(s: &mut Solver, n: usize) {}";
        let f = extract("crates/core/src/lib.rs", src);
        assert_eq!(f.statics.len(), 2);
        assert!(f.statics[0].is_lock);
        assert!(!f.statics[1].is_lock);
        assert_eq!(
            f.fns[0].params,
            vec![
                ("s".to_string(), vec!["Solver".to_string()]),
                ("n".to_string(), vec!["usize".to_string()]),
            ]
        );
    }
}
