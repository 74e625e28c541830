//! Workspace call graph with function effect summaries.
//!
//! Built once per `check` run from every parsed file, the graph powers the
//! two interprocedural lints:
//!
//! * **collective-consistency** — each function body is lowered to an
//!   *effect stream* (collective calls, calls to other workspace functions,
//!   loops, branches, returns). Calls are resolved and spliced (memoized,
//!   recursion-safe), and every branch whose condition mentions a rank is
//!   checked: all arms, each extended with the continuation of the
//!   enclosing function (empty for arms that return early), must resolve to
//!   structurally identical collective sequences. This catches divergence
//!   the old syntactic lint could not see — e.g. two helper functions with
//!   different collective footprints selected by a rank test, or an early
//!   `return` on one rank skipping a barrier issued by the others.
//! * **alloc-in-hot-path** — functions carrying the `newton.iter`,
//!   `newton.pcg`, or `interp.eval` telemetry spans are hot roots; the
//!   transitive callee set (BFS over resolved calls) is the static hot set
//!   that must stay allocation-free outside `grid::arena`.

use crate::parse::{FileAst, Node};
use std::collections::{HashMap, HashSet};

/// Telemetry span labels whose enclosing functions root the hot set.
pub const HOT_SPANS: &[&str] = &["newton.iter", "newton.pcg", "interp.eval"];

/// Comm-trait collective operations (method names). `try_`-prefixed
/// variants are recognized automatically; `split` only counts with two
/// arguments (distinguishing it from `str::split`).
const COLLECTIVE_BASE: &[&str] = &[
    "barrier",
    "allreduce",
    "allreduce_usize",
    "broadcast",
    "bcast",
    "allgather",
    "alltoallv",
    "sum_f64",
    "max_f64",
    "min_f64",
];

/// Is a method call `name(...)` with `argc` arguments a collective?
pub fn is_collective(name: &str, argc: usize) -> bool {
    let base = name.strip_prefix("try_").unwrap_or(name);
    if base == "split" {
        return argc == 2;
    }
    COLLECTIVE_BASE.contains(&base)
}

/// A call site recorded in a function summary.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name.
    pub name: String,
    /// `qual::name` qualifier segment, when present.
    pub qual: Option<String>,
    /// True for `.name(...)` method syntax.
    pub method: bool,
    /// Argument count.
    pub argc: usize,
    /// 1-based source line.
    pub line: usize,
}

/// One effect in a function's lowered stream.
#[derive(Debug, Clone)]
pub enum Eff {
    /// A collective operation.
    Coll(String),
    /// A call that may resolve to a workspace function.
    Call {
        /// Called name.
        name: String,
        /// Path qualifier segment.
        qual: Option<String>,
    },
    /// A loop body (executed zero or more times).
    Loop(Vec<Eff>),
    /// A branch: condition metadata plus per-arm streams.
    Alt(AltEff),
    /// An early `return`.
    Ret,
}

/// Branch metadata in an effect stream.
#[derive(Debug, Clone)]
pub struct AltEff {
    /// 1-based line of the `if`/`match`.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Condition text for diagnostics.
    pub cond_text: String,
    /// True when the condition mentions a rank.
    pub rank: bool,
    /// Per-arm effect streams.
    pub arms: Vec<Vec<Eff>>,
}

/// Summary of one function in the workspace.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Repo-relative path of the defining file.
    pub path: String,
    /// Crate name, when under `crates/<name>/`.
    pub crate_name: Option<String>,
    /// Function name.
    pub name: String,
    /// Plain `pub` visibility.
    pub is_pub: bool,
    /// Defined in test code.
    pub in_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Self type of the enclosing `impl` block, if any.
    pub owner: Option<String>,
    /// All call sites in the body.
    pub calls: Vec<CallSite>,
    /// Telemetry span labels opened in the body (`span("...")`).
    pub spans: Vec<String>,
    /// Lowered effect stream.
    pub effs: Vec<Eff>,
}

/// A collective-consistency violation found at graph build time.
#[derive(Debug, Clone)]
pub struct ConsistencyFinding {
    /// Index of the function the divergent branch is in.
    pub fn_idx: usize,
    /// 1-based line of the branch.
    pub line: usize,
    /// 1-based column of the branch.
    pub col: usize,
    /// Human-readable divergence description.
    pub message: String,
}

/// The workspace call graph.
pub struct CallGraph {
    /// All function summaries.
    pub fns: Vec<FnInfo>,
    by_name: HashMap<String, Vec<usize>>,
    /// Struct, enum and trait names declared anywhere in the workspace.
    types: HashSet<String>,
    /// Hot-set membership: fn index → root span label.
    pub hot: HashMap<usize, String>,
    /// All collective-consistency findings, computed at build time.
    pub consistency: Vec<ConsistencyFinding>,
}

/// A resolved effect node (calls spliced, for structural comparison).
#[derive(Debug, Clone)]
enum RNode {
    /// Collective operation by name.
    C(String),
    /// Loop body.
    L(Vec<RNode>),
    /// Branch; per arm: (stream, terminates). `site` is Some for branches
    /// owned by the function under analysis (None once spliced in from a
    /// callee — those are flagged in the callee's own pass).
    A {
        rank: bool,
        site: Option<(usize, usize, String)>,
        arms: Vec<(Vec<RNode>, bool)>,
    },
    /// Unresolvable call that may or may not contain collectives.
    O(String),
}

impl CallGraph {
    /// Builds the graph (and runs the interprocedural analyses) from the
    /// parsed files. `files` pairs each repo-relative path with its AST and
    /// crate name.
    pub fn build(files: &[(String, Option<String>, &FileAst)]) -> CallGraph {
        let mut fns = Vec::new();
        let mut types = HashSet::new();
        for (path, crate_name, ast) in files {
            types.extend(ast.types.iter().cloned());
            for f in &ast.fns {
                let mut calls = Vec::new();
                let mut spans = Vec::new();
                collect_calls(&f.body, &mut calls, &mut spans);
                let effs = lower(&f.body);
                fns.push(FnInfo {
                    path: path.clone(),
                    crate_name: crate_name.clone(),
                    name: f.name.clone(),
                    is_pub: f.is_pub,
                    in_test: f.in_test,
                    line: f.line,
                    owner: f.owner.clone(),
                    calls,
                    spans,
                    effs,
                });
            }
        }
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut g =
            CallGraph { fns, by_name, types, hot: HashMap::new(), consistency: Vec::new() };
        g.compute_hot_set();
        g.check_consistency();
        g
    }

    /// Resolves a call site from function `from` to a unique workspace
    /// function, preferring same-file then same-crate candidates. Ambiguous
    /// common names resolve to `None`.
    pub fn resolve(&self, name: &str, qual: Option<&str>, from: usize) -> Option<usize> {
        if qual.is_some_and(|q| self.is_foreign_type(q)) {
            return None;
        }
        let cands = self.by_name.get(name)?;
        let from_path = &self.fns[from].path;
        let from_crate = &self.fns[from].crate_name;
        // Qualifier filter: `Type::f()` (or `Self::f()`) on a workspace type
        // must come from an `impl` of that type; `mod::f()` from a file
        // path mentioning the qualifier (e.g. `solvers::step` →
        // .../solvers.rs). A qualifier that fails its filter falls through
        // to the unqualified logic.
        let filtered: Vec<usize> = match qual {
            Some(q) if is_type_name(q) => {
                let ty = if q == "Self" { self.fns[from].owner.as_deref() } else { Some(q) };
                cands
                    .iter()
                    .copied()
                    .filter(|&i| ty.is_some() && self.fns[i].owner.as_deref() == ty)
                    .collect()
            }
            Some(q) => {
                let seg = format!("/{q}.rs");
                let segd = format!("/{q}/");
                cands
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.fns[i].path.ends_with(&seg) || self.fns[i].path.contains(&segd)
                    })
                    .collect()
            }
            None => cands.clone(),
        };
        let pool = if filtered.is_empty() { cands.clone() } else { filtered };
        if pool.len() == 1 {
            return Some(pool[0]);
        }
        if pool.len() > 4 {
            return None; // too common a name (`new`, `len`, ...): give up
        }
        let same_file: Vec<usize> =
            pool.iter().copied().filter(|&i| &self.fns[i].path == from_path).collect();
        if same_file.len() == 1 {
            return Some(same_file[0]);
        }
        let same_crate: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&i| self.fns[i].crate_name == *from_crate)
            .collect();
        if same_crate.len() == 1 {
            return Some(same_crate[0]);
        }
        None
    }

    /// Is `q` a type name (not `Self`) that no workspace file declares?
    fn is_foreign_type(&self, q: &str) -> bool {
        is_type_name(q) && q != "Self" && !self.types.contains(q)
    }

    /// Index of the function defined in `path` whose `fn` keyword is on
    /// `line`.
    pub fn fn_at(&self, path: &str, line: usize) -> Option<usize> {
        self.fns.iter().position(|f| f.path == path && f.line == line)
    }

    fn compute_hot_set(&mut self) {
        let mut queue: Vec<usize> = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            for s in &f.spans {
                if HOT_SPANS.contains(&s.as_str()) {
                    self.hot.insert(i, s.clone());
                    queue.push(i);
                    break;
                }
            }
        }
        while let Some(i) = queue.pop() {
            let root = self.hot[&i].clone();
            let calls = self.fns[i].calls.clone();
            for c in &calls {
                if let Some(j) = self.resolve(&c.name, c.qual.as_deref(), i) {
                    if let std::collections::hash_map::Entry::Vacant(e) = self.hot.entry(j) {
                        e.insert(root.clone());
                        queue.push(j);
                    }
                }
            }
        }
    }

    // ---- collective-consistency -------------------------------------

    fn check_consistency(&mut self) {
        // Phase 1: resolve every function's effect stream (memoized).
        let mut memo: Vec<Option<Vec<RNode>>> = vec![None; self.fns.len()];
        for i in 0..memo.len() {
            let mut visiting = HashSet::new();
            self.resolve_stream(i, &mut memo, &mut visiting);
        }
        // Phase 2: per-function site checks.
        let mut findings = Vec::new();
        for (i, m) in memo.iter().enumerate() {
            let stream = m.clone().unwrap_or_default();
            let mut out = Vec::new();
            check_stream(&stream, &[], &mut out);
            for (line, col, cond, detail) in out {
                findings.push(ConsistencyFinding {
                    fn_idx: i,
                    line,
                    col,
                    message: format!(
                        "collective sequence diverges across this rank-dependent branch \
                         (`{cond}`): {detail}"
                    ),
                });
            }
        }
        findings.sort_by_key(|f| (self.fns[f.fn_idx].path.clone(), f.line, f.col));
        self.consistency = findings;
    }

    /// Resolves function `i`'s effect stream, splicing known callees.
    fn resolve_stream(
        &self,
        i: usize,
        memo: &mut Vec<Option<Vec<RNode>>>,
        visiting: &mut HashSet<usize>,
    ) -> Vec<RNode> {
        if let Some(s) = &memo[i] {
            return s.clone();
        }
        if !visiting.insert(i) {
            return Vec::new(); // recursion: assume no collectives in the cycle
        }
        let effs = self.fns[i].effs.clone();
        let stream = self.resolve_effs(&effs, i, memo, visiting, true);
        visiting.remove(&i);
        memo[i] = Some(stream.clone());
        stream
    }

    fn resolve_effs(
        &self,
        effs: &[Eff],
        from: usize,
        memo: &mut Vec<Option<Vec<RNode>>>,
        visiting: &mut HashSet<usize>,
        own: bool,
    ) -> Vec<RNode> {
        let mut out = Vec::new();
        for e in effs {
            match e {
                Eff::Coll(name) => out.push(RNode::C(name.clone())),
                Eff::Call { name, qual } => {
                    match self.resolve(name, qual.as_deref(), from) {
                        Some(j) => {
                            let spliced = self.resolve_stream(j, memo, visiting);
                            // Spliced branch sites belong to the callee:
                            // strip ownership so they are not re-flagged here.
                            out.extend(spliced.into_iter().map(strip_site));
                        }
                        // `Vec::new()`, `String::from(..)`: a type the
                        // workspace does not declare is outside the graph.
                        None if qual.as_deref().is_some_and(|q| self.is_foreign_type(q)) => {}
                        None => {
                            // Unknown call: if the bare name is in the graph
                            // but ambiguous with differing footprints it
                            // could hide collectives — represent opaquely
                            // only when some candidate has collectives.
                            if let Some(cands) = self.by_name.get(name) {
                                let any_coll = cands
                                    .iter()
                                    .any(|&j| effs_have_coll(&self.fns[j].effs));
                                if any_coll {
                                    out.push(RNode::O(name.clone()));
                                }
                            }
                            // Names not in the graph (std, methods on
                            // non-workspace types): assume collective-free.
                        }
                    }
                }
                Eff::Loop(body) => {
                    let b = self.resolve_effs(body, from, memo, visiting, own);
                    out.push(RNode::L(b));
                }
                Eff::Alt(a) => {
                    let arms: Vec<(Vec<RNode>, bool)> = a
                        .arms
                        .iter()
                        .map(|arm| {
                            let r = self.resolve_effs(arm, from, memo, visiting, own);
                            let term = stream_terminates(arm);
                            (r, term)
                        })
                        .collect();
                    out.push(RNode::A {
                        rank: a.rank,
                        site: if own {
                            Some((a.line, a.col, a.cond_text.clone()))
                        } else {
                            None
                        },
                        arms,
                    });
                }
                Eff::Ret => break, // code after a top-level return is dead
            }
        }
        out
    }
}

/// Path segments naming types start upper-case (`Vec`, `Self`); modules
/// are snake_case.
fn is_type_name(q: &str) -> bool {
    q.starts_with(|c: char| c.is_ascii_uppercase())
}

fn strip_site(n: RNode) -> RNode {
    match n {
        RNode::A { rank, arms, .. } => RNode::A {
            rank,
            site: None,
            arms: arms
                .into_iter()
                .map(|(s, t)| (s.into_iter().map(strip_site).collect(), t))
                .collect(),
        },
        RNode::L(b) => RNode::L(b.into_iter().map(strip_site).collect()),
        other => other,
    }
}

/// Does a raw effect stream end in a `return` on every path? (Shallow: a
/// top-level `Ret`, or a trailing Alt all of whose arms terminate.)
fn stream_terminates(effs: &[Eff]) -> bool {
    for e in effs {
        match e {
            Eff::Ret => return true,
            Eff::Alt(a) if !a.arms.is_empty() && a.arms.iter().all(|x| stream_terminates(x)) => {
                return true
            }
            _ => {}
        }
    }
    false
}

fn effs_have_coll(effs: &[Eff]) -> bool {
    effs.iter().any(|e| match e {
        Eff::Coll(_) => true,
        Eff::Loop(b) => effs_have_coll(b),
        Eff::Alt(a) => a.arms.iter().any(|x| effs_have_coll(x)),
        _ => false,
    })
}

fn rnodes_have_coll(s: &[RNode]) -> bool {
    s.iter().any(|n| match n {
        RNode::C(_) => true,
        RNode::O(_) => true,
        RNode::L(b) => rnodes_have_coll(b),
        RNode::A { arms, .. } => arms.iter().any(|(b, _)| rnodes_have_coll(b)),
    })
}

/// Drops collective-free structure from a resolved stream, so comparison is
/// about collective *content*: a loop or branch that issues no collectives
/// (and, for branch arms, does not return early) cannot change the
/// collective sequence, and keeping it would flag rank branches whose arms
/// differ only in local computation shape.
fn normalize(s: &[RNode]) -> Vec<RNode> {
    let mut out = Vec::new();
    for n in s {
        match n {
            RNode::C(x) => out.push(RNode::C(x.clone())),
            RNode::O(x) => out.push(RNode::O(x.clone())),
            RNode::L(b) => {
                let nb = normalize(b);
                if !nb.is_empty() {
                    out.push(RNode::L(nb));
                }
            }
            RNode::A { rank, site, arms } => {
                let narms: Vec<(Vec<RNode>, bool)> =
                    arms.iter().map(|(b, t)| (normalize(b), *t)).collect();
                // An alternation is only observable if some arm issues a
                // collective or terminates the function early.
                if narms.iter().any(|(b, t)| !b.is_empty() || *t) {
                    out.push(RNode::A { rank: *rank, site: site.clone(), arms: narms });
                }
            }
        }
    }
    out
}

fn rnode_eq(a: &RNode, b: &RNode) -> bool {
    match (a, b) {
        (RNode::C(x), RNode::C(y)) => x == y,
        (RNode::O(x), RNode::O(y)) => x == y,
        (RNode::L(x), RNode::L(y)) => rseq_eq(x, y),
        (RNode::A { arms: x, .. }, RNode::A { arms: y, .. }) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|((s1, t1), (s2, t2))| t1 == t2 && rseq_eq(s1, s2))
        }
        _ => false,
    }
}

fn rseq_eq(a: &[RNode], b: &[RNode]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| rnode_eq(x, y))
}

/// Renders a resolved stream as a short human-readable sequence.
fn render_seq(s: &[RNode]) -> String {
    let mut parts = Vec::new();
    for n in s {
        match n {
            RNode::C(name) => parts.push(name.clone()),
            RNode::O(name) => parts.push(format!("{name}?")),
            RNode::L(b) => parts.push(format!("loop[{}]", render_seq(b))),
            RNode::A { arms, .. } => {
                let inner: Vec<String> =
                    arms.iter().map(|(b, _)| render_seq(b)).collect();
                parts.push(format!("({})", inner.join(" | ")));
            }
        }
        if parts.len() >= 8 {
            parts.push("...".to_string());
            break;
        }
    }
    if parts.is_empty() {
        "<none>".to_string()
    } else {
        parts.join(" -> ")
    }
}

/// Walks a resolved stream checking every owned rank-dependent branch:
/// each arm extended with the function continuation (empty when the arm
/// returns early) must yield the same collective sequence.
fn check_stream(
    effs: &[RNode],
    cont: &[RNode],
    out: &mut Vec<(usize, usize, String, String)>,
) {
    for (i, n) in effs.iter().enumerate() {
        match n {
            RNode::A { rank, site, arms } => {
                // Continuation after this branch inside the function.
                let mut rest: Vec<RNode> = effs[i + 1..].to_vec();
                rest.extend_from_slice(cont);
                if *rank {
                    if let Some((line, col, cond)) = site {
                        let fulls: Vec<Vec<RNode>> = arms
                            .iter()
                            .map(|(seq, term)| {
                                let mut v = seq.clone();
                                if !term {
                                    v.extend(rest.iter().cloned());
                                }
                                normalize(&v)
                            })
                            .collect();
                        let diverges = fulls
                            .windows(2)
                            .any(|w| !rseq_eq(&w[0], &w[1]));
                        let any_coll = fulls.iter().any(|s| rnodes_have_coll(s));
                        if diverges && any_coll {
                            let shown: Vec<String> = fulls
                                .iter()
                                .take(3)
                                .map(|s| render_seq(s))
                                .collect();
                            out.push((
                                *line,
                                *col,
                                cond.clone(),
                                format!("per-path sequences [{}]", shown.join("] vs [")),
                            ));
                        }
                    }
                }
                // Recurse into owned arms with their real continuation.
                if site.is_some() {
                    for (seq, term) in arms {
                        let arm_cont: &[RNode] = if *term { &[] } else { &rest };
                        check_stream(seq, arm_cont, out);
                    }
                }
            }
            RNode::L(body) => check_stream(body, &[], out),
            _ => {}
        }
    }
}

/// Collects call sites and telemetry span labels from a lowered body.
fn collect_calls(nodes: &[Node], calls: &mut Vec<CallSite>, spans: &mut Vec<String>) {
    for (i, n) in nodes.iter().enumerate() {
        match n {
            Node::Call(c) => {
                if !c.bang {
                    calls.push(CallSite {
                        name: c.name.clone(),
                        qual: c.qual.clone(),
                        method: c.method,
                        argc: c.argc,
                        line: c.line,
                    });
                }
                if c.name == "span" {
                    // `span("label")`: the label literal follows the call
                    // event in the flattened stream.
                    if let Some(Node::Lit { text, .. }) = nodes.get(i + 1) {
                        let label = text.trim_matches('"');
                        spans.push(label.to_string());
                    }
                }
            }
            Node::Let(l) => collect_calls(&l.init, calls, spans),
            Node::Branch(b) => {
                collect_calls(&b.cond, calls, spans);
                for a in &b.arms {
                    collect_calls(&a.body, calls, spans);
                }
            }
            Node::Loop { body, .. } | Node::Closure { body } | Node::Block(body) => {
                collect_calls(body, calls, spans)
            }
            Node::Return { value, .. } => collect_calls(value, calls, spans),
            _ => {}
        }
    }
}

/// Lowers a parsed body to an effect stream.
pub fn lower(nodes: &[Node]) -> Vec<Eff> {
    let mut out = Vec::new();
    lower_into(nodes, &mut out);
    out
}

fn lower_into(nodes: &[Node], out: &mut Vec<Eff>) {
    for n in nodes {
        match n {
            Node::Call(c) => {
                if c.bang {
                    continue; // macros: no collectives hide in macro calls here
                }
                if c.method && is_collective(&c.name, c.argc) {
                    out.push(Eff::Coll(c.name.clone()));
                } else {
                    out.push(Eff::Call { name: c.name.clone(), qual: c.qual.clone() });
                }
            }
            Node::Let(l) => lower_into(&l.init, out),
            Node::Branch(b) => {
                lower_into(&b.cond, out);
                let arms: Vec<Vec<Eff>> = b.arms.iter().map(|a| lower(&a.body)).collect();
                out.push(Eff::Alt(AltEff {
                    line: b.line,
                    col: b.col,
                    cond_text: b.cond_text.clone(),
                    rank: b.mentions_rank,
                    arms,
                }));
            }
            Node::Loop { body, line: _ } => {
                let b = lower(body);
                out.push(Eff::Loop(b));
            }
            Node::Return { value, .. } => {
                lower_into(value, out);
                out.push(Eff::Ret);
            }
            Node::Closure { body } => {
                // A closure's effects run where it is *called*; almost all
                // closures here are invoked in place (map/fold/run_gang), so
                // inline them — conservative in the right direction for
                // consistency checking.
                lower_into(body, out);
            }
            Node::Block(body) => lower_into(body, out),
            Node::Use { .. } | Node::Lit { .. } | Node::Try { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::scope::SourceFile;
    use std::path::PathBuf;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<(String, Option<String>, FileAst)> = files
            .iter()
            .map(|(path, src)| {
                let sf = SourceFile::parse(&PathBuf::from(path), src);
                let crate_name = sf.class.crate_name.clone();
                (sf.path.clone(), crate_name, parse_file(&sf))
            })
            .collect();
        let refs: Vec<(String, Option<String>, &FileAst)> =
            parsed.iter().map(|(p, c, a)| (p.clone(), c.clone(), a)).collect();
        CallGraph::build(&refs)
    }

    #[test]
    fn rank_divergent_direct_collectives_are_flagged() {
        let g = graph_of(&[(
            "crates/comm/src/a.rs",
            "pub fn entry(c: &C) {\n\
                if c.rank() == 0 {\n\
                    c.barrier();\n\
                } else {\n\
                    c.allreduce(&mut [0.0], Op::Sum);\n\
                }\n\
             }\n",
        )]);
        assert_eq!(g.consistency.len(), 1);
        assert_eq!(g.consistency[0].line, 2);
    }

    #[test]
    fn symmetric_branches_are_clean() {
        let g = graph_of(&[(
            "crates/comm/src/a.rs",
            "pub fn entry(c: &C) {\n\
                if c.rank() == 0 {\n\
                    prepare_root();\n\
                }\n\
                c.barrier();\n\
             }\n\
             fn prepare_root() {}\n",
        )]);
        assert!(g.consistency.is_empty(), "{:?}", g.consistency);
    }

    #[test]
    fn divergence_through_helpers_is_caught_interprocedurally() {
        let g = graph_of(&[(
            "crates/comm/src/a.rs",
            "pub fn entry(c: &C) {\n\
                if c.rank() == 0 {\n\
                    warm(c);\n\
                } else {\n\
                    cold(c);\n\
                }\n\
             }\n\
             fn warm(c: &C) {\n    c.allreduce(&mut [0.0], Op::Sum);\n}\n\
             fn cold(c: &C) {\n    c.barrier();\n}\n",
        )]);
        assert_eq!(g.consistency.len(), 1, "{:?}", g.consistency);
        assert_eq!(g.consistency[0].line, 2);
    }

    #[test]
    fn identical_helpers_through_branches_are_clean() {
        let g = graph_of(&[(
            "crates/comm/src/a.rs",
            "pub fn entry(c: &C) {\n\
                if c.rank() == 0 {\n\
                    warm(c);\n\
                } else {\n\
                    cold(c);\n\
                }\n\
             }\n\
             fn warm(c: &C) {\n    log_warm();\n    c.barrier();\n}\n\
             fn cold(c: &C) {\n    c.barrier();\n}\n",
        )]);
        assert!(g.consistency.is_empty(), "{:?}", g.consistency);
    }

    #[test]
    fn early_return_skipping_a_collective_is_flagged() {
        let g = graph_of(&[(
            "crates/comm/src/a.rs",
            "pub fn entry(c: &C) {\n\
                if c.rank() != 0 {\n\
                    return;\n\
                }\n\
                c.barrier();\n\
             }\n",
        )]);
        assert_eq!(g.consistency.len(), 1, "{:?}", g.consistency);
    }

    #[test]
    fn early_return_with_no_collectives_after_is_clean() {
        let g = graph_of(&[(
            "crates/comm/src/a.rs",
            "pub fn entry(c: &C) -> usize {\n\
                if c.rank() != 0 {\n\
                    return 0;\n\
                }\n\
                local_work()\n\
             }\n",
        )]);
        assert!(g.consistency.is_empty(), "{:?}", g.consistency);
    }

    #[test]
    fn rank_gated_send_without_collectives_is_clean() {
        // p2p sends may legitimately be rank-dependent.
        let g = graph_of(&[(
            "crates/comm/src/a.rs",
            "pub fn entry(c: &C) {\n\
                if c.rank() == 0 {\n\
                    c.send(1, &buf);\n\
                } else {\n\
                    c.recv(0, &mut buf);\n\
                }\n\
                c.barrier();\n\
             }\n",
        )]);
        assert!(g.consistency.is_empty(), "{:?}", g.consistency);
    }

    #[test]
    fn hot_set_follows_calls_from_span_roots() {
        let g = graph_of(&[(
            "crates/optim/src/a.rs",
            "pub fn newton_iter(ws: &mut W) {\n\
                let _g = span(\"newton.iter\");\n\
                step(ws);\n\
             }\n\
             fn step(ws: &mut W) {\n    inner(ws);\n}\n\
             fn inner(_ws: &mut W) {}\n\
             fn unrelated() {}\n",
        )]);
        let hot_names: Vec<&str> = g
            .hot
            .keys()
            .map(|&i| g.fns[i].name.as_str())
            .collect();
        assert!(hot_names.contains(&"newton_iter"));
        assert!(hot_names.contains(&"step"));
        assert!(hot_names.contains(&"inner"));
        assert!(!hot_names.contains(&"unrelated"));
    }

    #[test]
    fn collective_split_is_argc_sensitive() {
        assert!(is_collective("split", 2));
        assert!(!is_collective("split", 1));
        assert!(is_collective("try_barrier", 0));
        assert!(is_collective("allgather", 1));
        assert!(!is_collective("send", 2));
    }
}
