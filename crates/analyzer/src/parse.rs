//! Recursive-descent parser: token stream → per-function ASTs.
//!
//! This is not a full Rust parser — it recovers exactly the structure the
//! dataflow lints need: function items with their bodies lowered to an
//! *event tree*. Each body is a sequence of [`Node`]s in (approximate)
//! evaluation order: call sites, identifier uses, string literals, `?`
//! operators, `let` bindings, branches (`if`/`else`, `match`), loops,
//! returns, and closures. Everything else (operators, literals, types,
//! casts) is structure-free and skipped. On anything it cannot parse the
//! parser degrades gracefully — unknown tokens are consumed without
//! producing events, never panicking — so arbitrary workspace code is safe
//! input.

use crate::lexer::TokenKind;
use crate::scope::SourceFile;

/// A call site event: `name(...)`, `recv.name(...)`, `qual::name(...)`, or
/// `name!(...)` for macros.
#[derive(Debug, Clone, PartialEq)]
pub struct CallNode {
    /// The called name (method, function, or macro name without `!`).
    pub name: String,
    /// True for `.name(...)` method-call syntax.
    pub method: bool,
    /// True for `name!(...)` macro invocations.
    pub bang: bool,
    /// The path segment immediately before `::name` (e.g. `Vec` in
    /// `Vec::with_capacity`), when present.
    pub qual: Option<String>,
    /// The receiver identifier directly before the `.`, for simple
    /// `ident.name(...)` chains.
    pub recv: Option<String>,
    /// Number of top-level arguments.
    pub argc: usize,
    /// 1-based source line of the call name.
    pub line: usize,
    /// 1-based source column of the call name.
    pub col: usize,
}

/// A `let` binding statement.
#[derive(Debug, Clone, PartialEq)]
pub struct LetNode {
    /// The bound name for simple `let x` / `let mut x` patterns.
    pub name: Option<String>,
    /// True for `let _ = ...` (explicit discard).
    pub underscore: bool,
    /// Initializer events, in evaluation order (empty for `let x;`).
    pub init: Vec<Node>,
    /// 1-based line of the `let` keyword.
    pub line: usize,
    /// 1-based column of the `let` keyword.
    pub col: usize,
}

/// One arm of a [`BranchNode`]: a pattern (or `if`/`else` side) plus body.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Pattern text for `match` arms (`"then"` / `"else"` for `if`).
    pub pat: String,
    /// Arm body events.
    pub body: Vec<Node>,
    /// 1-based line the arm starts on.
    pub line: usize,
}

/// An `if`/`else` chain or `match` expression.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchNode {
    /// True for `match`, false for `if`.
    pub is_match: bool,
    /// Condition / scrutinee events, in evaluation order.
    pub cond: Vec<Node>,
    /// Condition text (truncated), for diagnostics.
    pub cond_text: String,
    /// True when the condition mentions an identifier containing `rank`.
    pub mentions_rank: bool,
    /// The branch arms. An `if` without `else` gets an implicit empty arm.
    pub arms: Vec<Arm>,
    /// False when the `if` has no `else` (the implicit arm was added).
    pub has_else: bool,
    /// 1-based line of the `if`/`match` keyword.
    pub line: usize,
    /// 1-based column of the `if`/`match` keyword.
    pub col: usize,
}

/// One event in a lowered function body.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A call site.
    Call(CallNode),
    /// A string-literal operand (kept for `span("...")` detection).
    Lit {
        /// Literal text including quotes.
        text: String,
        /// 1-based source line.
        line: usize,
    },
    /// A plain identifier mention (variable read/write/move).
    Use {
        /// The identifier.
        name: String,
        /// 1-based source line.
        line: usize,
    },
    /// The `?` operator.
    Try {
        /// 1-based source line.
        line: usize,
    },
    /// A `let` binding.
    Let(LetNode),
    /// An `if`/`else` chain or `match`.
    Branch(BranchNode),
    /// A `loop`/`while`/`for` body (condition events folded in front).
    Loop {
        /// Condition + body events (executed per iteration).
        body: Vec<Node>,
        /// 1-based line of the loop keyword.
        line: usize,
    },
    /// A `return` (value events inside).
    Return {
        /// Events of the returned value expression.
        value: Vec<Node>,
        /// 1-based source line.
        line: usize,
    },
    /// A closure literal (body events; executed zero or more times).
    Closure {
        /// Closure body events.
        body: Vec<Node>,
    },
    /// A nested block or struct literal.
    Block(Vec<Node>),
}

/// A parsed function item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// True for plain `pub` visibility (`pub(crate)` etc. count as private).
    pub is_pub: bool,
    /// True when the function lives in test code (`#[cfg(test)]`/`#[test]`
    /// regions or a tests/benches/examples file).
    pub in_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the body's closing brace.
    pub end_line: usize,
    /// Self type of the enclosing `impl` block (`PencilFft` for a method
    /// in `impl<C: Comm> PencilFft<C>`), if any.
    pub owner: Option<String>,
    /// Lowered body events.
    pub body: Vec<Node>,
}

/// All function items of one source file, in source order.
#[derive(Debug, Clone, Default)]
pub struct FileAst {
    /// The functions (nested fns appear as their own entries).
    pub fns: Vec<FnDef>,
    /// Names of the structs, enums and traits the file declares.
    pub types: Vec<String>,
}

impl FileAst {
    /// The innermost function whose body span contains 1-based `line`.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| f.line <= line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.line)
    }
}

/// Parses every function item in `f` (including fns nested in impls, mods,
/// and other fns).
pub fn parse_file(f: &SourceFile) -> FileAst {
    let mut fns = Vec::new();
    let code = &f.code;
    let impls = impl_blocks(f);
    for i in 0..code.len() {
        let tok = &f.tokens[code[i]];
        if !(tok.kind == TokenKind::Ident && tok.text == "fn") {
            continue;
        }
        // `fn` must introduce a named item (not an `fn(...)` pointer type).
        let Some(&name_ti) = code.get(i + 1) else { continue };
        let name_tok = &f.tokens[name_ti];
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        // Find the body `{` (or `;` for a bodyless trait signature) at
        // paren/bracket depth 0.
        let mut j = i + 2;
        let mut depth = 0isize;
        let mut body_start = None;
        while let Some(&ti) = code.get(j) {
            let t = &f.tokens[ti];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        body_start = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(body_start) = body_start else { continue };
        let mut p = Parser { f, i: body_start, last_line: tok.line };
        let body = p.parse_block();
        let end_line = p.last_line;
        fns.push(FnDef {
            name: name_tok.text.clone(),
            is_pub: is_pub_at(f, i),
            in_test: f.is_test_token(code[i]),
            line: tok.line,
            end_line,
            owner: impls
                .iter()
                .filter(|(open, close, _)| *open < i && i < *close)
                .min_by_key(|(open, close, _)| close - open)
                .map(|(_, _, ty)| ty.clone()),
            body,
        });
    }
    let types = (1..code.len())
        .filter(|&i| {
            let kw = &f.tokens[code[i - 1]];
            ["struct", "enum", "trait"].iter().any(|k| kw.is_ident(k))
                && f.tokens[code[i]].kind == TokenKind::Ident
        })
        .map(|i| f.tokens[code[i]].text.clone())
        .collect();
    FileAst { fns, types }
}

/// Every `impl` item of the file as `(open, close, self type)`: the code
/// positions of its body braces and the last identifier of the implemented
/// type's path (`Debug for PencilFft<C>` → `PencilFft`). `impl Trait` in
/// argument or return position is not an item and is skipped.
fn impl_blocks(f: &SourceFile) -> Vec<(usize, usize, String)> {
    let code = &f.code;
    let tok = |k: usize| &f.tokens[code[k]];
    let mut out = Vec::new();
    for i in 0..code.len() {
        let item_start = i == 0 || ["}", ";", "{", "]"].iter().any(|p| tok(i - 1).is_punct(p));
        if !tok(i).is_ident("impl") || !item_start {
            continue;
        }
        // Header: up to the body `{` at angle depth 0; the self type is
        // the last identifier at depth 0 (after `for` when present).
        let (mut j, mut angle, mut ty) = (i + 1, 0isize, None);
        while j < code.len() {
            let t = tok(j);
            match t.text.as_str() {
                "<" if t.kind == TokenKind::Punct => angle += 1,
                ">" if t.kind == TokenKind::Punct => angle -= 1,
                ">>" if t.kind == TokenKind::Punct => angle -= 2,
                "{" | "where" if angle == 0 => break,
                "for" | "dyn" | "mut" => {}
                _ if angle == 0 && t.kind == TokenKind::Ident => ty = Some(t.text.clone()),
                _ => {}
            }
            j += 1;
        }
        while j < code.len() && !tok(j).is_punct("{") {
            j += 1; // over a `where` clause
        }
        let (Some(ty), open) = (ty, j) else { continue };
        let mut depth = 0usize;
        while j < code.len() {
            if tok(j).is_punct("{") {
                depth += 1;
            } else if tok(j).is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        out.push((open, j, ty));
    }
    out
}

/// Is the `fn` keyword at code position `i` preceded by a plain `pub`
/// (allowing `const`/`async`/`unsafe`/`extern "C"` qualifiers between)?
fn is_pub_at(f: &SourceFile, i: usize) -> bool {
    let code = &f.code;
    let mut k = i;
    while k > 0 {
        k -= 1;
        let t = &f.tokens[code[k]];
        let is_qual = (t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern"))
            || t.kind == TokenKind::Str;
        if is_qual {
            continue;
        }
        // `pub(crate)` / `pub(super)`: restricted, not public API.
        return t.kind == TokenKind::Ident && t.text == "pub";
    }
    false
}

/// What stops an expression scan (always at local delimiter depth 0).
#[derive(Clone, Copy, PartialEq)]
enum Stop {
    /// `;` (consumed) or `}` (left in place): statement position.
    Stmt,
    /// `,` or `)` (left in place): call argument.
    Arg,
    /// `{` (left in place): `if`/`while`/`match` condition.
    Brace,
    /// `,` (consumed) or `}` (left in place): match-arm expression body.
    MatchArm,
    /// `)` (left in place): parenthesized group.
    Paren,
    /// `]` (left in place): bracketed group.
    Bracket,
}

struct Parser<'a> {
    f: &'a SourceFile,
    /// Position in `f.code`.
    i: usize,
    /// Line of the most recently consumed token (for body end tracking).
    last_line: usize,
}

impl<'a> Parser<'a> {
    fn tok_at(&self, k: usize) -> Option<&'a crate::lexer::Token> {
        self.f.code.get(k).map(|&ti| &self.f.tokens[ti])
    }

    fn cur(&self) -> Option<&'a crate::lexer::Token> {
        self.tok_at(self.i)
    }

    fn peek(&self, off: usize) -> Option<&'a crate::lexer::Token> {
        self.tok_at(self.i + off)
    }

    fn prev(&self) -> Option<&'a crate::lexer::Token> {
        if self.i == 0 {
            None
        } else {
            self.tok_at(self.i - 1)
        }
    }

    fn bump(&mut self) {
        if let Some(t) = self.cur() {
            self.last_line = t.line;
        }
        self.i += 1;
    }

    fn at_punct(&self, s: &str) -> bool {
        self.cur().map(|t| t.is_punct(s)).unwrap_or(false)
    }

    fn at_ident(&self, s: &str) -> bool {
        self.cur().map(|t| t.is_ident(s)).unwrap_or(false)
    }

    fn eof(&self) -> bool {
        self.i >= self.f.code.len()
    }

    /// Parses a `{ ... }` block; leaves the position after the closing `}`.
    fn parse_block(&mut self) -> Vec<Node> {
        let mut out = Vec::new();
        if !self.at_punct("{") {
            return out;
        }
        self.bump();
        while !self.eof() && !self.at_punct("}") {
            self.parse_stmt(&mut out);
        }
        self.bump(); // `}`
        out
    }

    fn parse_stmt(&mut self, out: &mut Vec<Node>) {
        let Some(tok) = self.cur() else { return };
        if tok.kind == TokenKind::Ident {
            match tok.text.as_str() {
                "let" => {
                    out.push(self.parse_let());
                    return;
                }
                "fn" => {
                    // Nested fn item: its body is parsed as a separate FnDef
                    // by the top-level scan; skip it here.
                    self.skip_item_with_body();
                    return;
                }
                "struct" | "enum" | "trait" | "impl" | "mod" | "use" | "type" | "static"
                | "const" => {
                    self.skip_item_with_body();
                    return;
                }
                "if" => {
                    let n = self.parse_if();
                    out.push(Node::Branch(n));
                    return;
                }
                "match" => {
                    let n = self.parse_match();
                    out.push(Node::Branch(n));
                    return;
                }
                "while" => {
                    let line = tok.line;
                    self.bump();
                    let mut body = Vec::new();
                    self.parse_expr(&mut body, Stop::Brace);
                    let mut block = self.parse_block();
                    body.append(&mut block);
                    out.push(Node::Loop { body, line });
                    return;
                }
                "for" => {
                    let line = tok.line;
                    self.bump();
                    // Skip the pattern up to `in` at depth 0 (no events).
                    self.skip_until_ident("in");
                    let mut body = Vec::new();
                    self.parse_expr(&mut body, Stop::Brace);
                    let mut block = self.parse_block();
                    body.append(&mut block);
                    out.push(Node::Loop { body, line });
                    return;
                }
                "loop" => {
                    let line = tok.line;
                    self.bump();
                    let body = self.parse_block();
                    out.push(Node::Loop { body, line });
                    return;
                }
                "return" => {
                    let line = tok.line;
                    self.bump();
                    let mut value = Vec::new();
                    self.parse_expr(&mut value, Stop::Stmt);
                    out.push(Node::Return { value, line });
                    return;
                }
                "break" | "continue" => {
                    self.bump();
                    self.parse_expr(out, Stop::Stmt);
                    return;
                }
                "unsafe" => {
                    self.bump();
                    if self.at_punct("{") {
                        out.push(Node::Block(self.parse_block()));
                    }
                    return;
                }
                _ => {}
            }
        }
        if self.at_punct("{") {
            out.push(Node::Block(self.parse_block()));
            return;
        }
        if self.at_punct(";") {
            self.bump();
            return;
        }
        self.parse_expr(out, Stop::Stmt);
    }

    /// Skips a non-fn item: to the first `{` at depth 0 then over the
    /// balanced braces, or to a `;` at depth 0, whichever comes first.
    fn skip_item_with_body(&mut self) {
        let mut depth = 0isize;
        while let Some(t) = self.cur() {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" if depth == 0 => {
                        self.bump();
                        return;
                    }
                    "{" if depth == 0 => {
                        self.skip_balanced("{", "}");
                        // `struct S { .. }` has no trailing `;`; `impl` etc.
                        // likewise. A stray `;` is consumed by parse_stmt.
                        return;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Consumes the opening delimiter and skips to just past its match.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        let mut depth = 0isize;
        while let Some(t) = self.cur() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    fn skip_until_ident(&mut self, kw: &str) {
        let mut depth = 0isize;
        while let Some(t) = self.cur() {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    _ => {}
                }
            } else if depth == 0 && t.is_ident(kw) {
                self.bump();
                return;
            }
            self.bump();
        }
    }

    fn parse_let(&mut self) -> Node {
        let (line, col) = self.cur().map(|t| (t.line, t.col)).unwrap_or((0, 0));
        self.bump(); // `let`
        // Pattern: tokens up to `=`, `;`, or `:` at depth 0.
        let mut pat_idents: Vec<String> = Vec::new();
        let mut underscore = false;
        let mut depth = 0isize;
        while let Some(t) = self.cur() {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=" | ";" | ":" if depth == 0 => break,
                    "_" => {}
                    _ => {}
                }
                if t.text == "_" && depth == 0 {
                    underscore = true;
                }
            } else if t.kind == TokenKind::Ident {
                if t.text == "_" {
                    underscore = true;
                } else if !matches!(t.text.as_str(), "mut" | "ref" | "box") {
                    pat_idents.push(t.text.clone());
                }
            }
            self.bump();
        }
        // Optional type annotation: skip to `=` or `;` at depth 0.
        if self.at_punct(":") {
            let mut depth = 0isize;
            while let Some(t) = self.cur() {
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "=" | ";" if depth == 0 => break,
                        _ => {}
                    }
                }
                self.bump();
            }
        }
        let mut init = Vec::new();
        if self.at_punct("=") {
            self.bump();
            self.parse_expr(&mut init, Stop::Stmt);
            // `let ... = expr else { ... };` — the diverging else block.
            if self.at_ident("else") {
                self.bump();
                init.push(Node::Block(self.parse_block()));
                if self.at_punct(";") {
                    self.bump();
                }
            }
        } else if self.at_punct(";") {
            self.bump();
        }
        let name =
            if pat_idents.len() == 1 && !underscore { Some(pat_idents.remove(0)) } else { None };
        Node::Let(LetNode { name, underscore, init, line, col })
    }

    /// Scans ahead (without consuming) to the `{` at depth 0 and returns
    /// `(condition text, mentions_rank)`.
    fn scan_cond_text(&self) -> (String, bool) {
        let mut text = String::new();
        let mut mentions_rank = false;
        let mut depth = 0isize;
        let mut k = self.i;
        while let Some(t) = self.tok_at(k) {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            if t.kind == TokenKind::Ident && t.text.to_lowercase().contains("rank") {
                mentions_rank = true;
            }
            if text.len() < 60 {
                if !text.is_empty() {
                    text.push(' ');
                }
                text.push_str(&t.text);
            }
            k += 1;
        }
        (text, mentions_rank)
    }

    fn parse_if(&mut self) -> BranchNode {
        let (line, col) = self.cur().map(|t| (t.line, t.col)).unwrap_or((0, 0));
        self.bump(); // `if`
        let (cond_text, mentions_rank) = self.scan_cond_text();
        let mut cond = Vec::new();
        self.parse_expr(&mut cond, Stop::Brace);
        let then_line = self.cur().map(|t| t.line).unwrap_or(line);
        let then = self.parse_block();
        let mut arms =
            vec![Arm { pat: "then".to_string(), body: then, line: then_line }];
        let mut has_else = false;
        if self.at_ident("else") {
            has_else = true;
            let else_line = self.cur().map(|t| t.line).unwrap_or(line);
            self.bump();
            if self.at_ident("if") {
                let nested = self.parse_if();
                // `else if`: an implicit-else chain still falls through, so
                // the chain's else-ness propagates from the nested if.
                has_else = nested.has_else;
                arms.push(Arm {
                    pat: "else".to_string(),
                    body: vec![Node::Branch(nested)],
                    line: else_line,
                });
            } else {
                arms.push(Arm { pat: "else".to_string(), body: self.parse_block(), line: else_line });
            }
        }
        if !has_else {
            // Implicit empty else arm: the fall-through path.
            arms.push(Arm { pat: "else".to_string(), body: Vec::new(), line });
        }
        BranchNode { is_match: false, cond, cond_text, mentions_rank, arms, has_else, line, col }
    }

    fn parse_match(&mut self) -> BranchNode {
        let (line, col) = self.cur().map(|t| (t.line, t.col)).unwrap_or((0, 0));
        self.bump(); // `match`
        let (cond_text, mentions_rank) = self.scan_cond_text();
        let mut cond = Vec::new();
        self.parse_expr(&mut cond, Stop::Brace);
        let mut arms = Vec::new();
        if self.at_punct("{") {
            self.bump();
            while !self.eof() && !self.at_punct("}") {
                // Pattern (with optional guard) up to `=>` at depth 0.
                let pat_line = self.cur().map(|t| t.line).unwrap_or(line);
                let mut pat = String::new();
                let mut depth = 0isize;
                while let Some(t) = self.cur() {
                    if t.kind == TokenKind::Punct {
                        match t.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            "=>" if depth == 0 => break,
                            _ => {}
                        }
                    }
                    if pat.len() < 40 {
                        if !pat.is_empty()
                            && !t.is_punct("(")
                            && !t.is_punct(")")
                            && !self.prev().map(|p| p.is_punct("(")).unwrap_or(false)
                        {
                            pat.push(' ');
                        }
                        pat.push_str(&t.text);
                    }
                    self.bump();
                }
                if !self.at_punct("=>") {
                    break; // malformed; bail out of the arm loop
                }
                self.bump(); // `=>`
                let mut body = Vec::new();
                if self.at_punct("{") {
                    body = self.parse_block();
                    if self.at_punct(",") {
                        self.bump();
                    }
                } else {
                    self.parse_expr(&mut body, Stop::MatchArm);
                }
                arms.push(Arm { pat: pat.trim().to_string(), body, line: pat_line });
            }
            self.bump(); // `}`
        }
        BranchNode { is_match: true, cond, cond_text, mentions_rank, arms, has_else: true, line, col }
    }

    /// Can a `|` at the current position start a closure? (Heuristic on the
    /// previous code token.)
    fn closure_position(&self) -> bool {
        match self.prev() {
            None => true,
            Some(p) => {
                p.is_punct("(")
                    || p.is_punct(",")
                    || p.is_punct("=")
                    || p.is_punct("=>")
                    || p.is_punct("{")
                    || p.is_punct(";")
                    || p.is_punct(":")
                    || p.is_punct("&&")
                    || p.is_ident("return")
                    || p.is_ident("move")
                    || p.is_ident("else")
            }
        }
    }

    /// Parses expression events until the `stop` terminator at depth 0.
    fn parse_expr(&mut self, out: &mut Vec<Node>, stop: Stop) {
        while let Some(tok) = self.cur() {
            // Terminators (local depth is always 0: delimiters recurse).
            if tok.kind == TokenKind::Punct {
                match (stop, tok.text.as_str()) {
                    (Stop::Stmt, ";") => {
                        self.bump();
                        return;
                    }
                    (Stop::Stmt, "}")
                    | (Stop::Arg, ",")
                    | (Stop::Arg, ")")
                    | (Stop::Brace, "{")
                    | (Stop::MatchArm, "}")
                    | (Stop::Paren, ")")
                    | (Stop::Bracket, "]") => return,
                    (Stop::MatchArm, ",") => {
                        self.bump();
                        return;
                    }
                    // Stray closers: never cross an unbalanced boundary.
                    (_, ")") | (_, "]") | (_, "}") => return,
                    _ => {}
                }
            }
            match tok.kind {
                TokenKind::Ident => match tok.text.as_str() {
                    "if" => {
                        let n = self.parse_if();
                        out.push(Node::Branch(n));
                    }
                    "match" => {
                        let n = self.parse_match();
                        out.push(Node::Branch(n));
                    }
                    "loop" => {
                        let line = tok.line;
                        self.bump();
                        let body = self.parse_block();
                        out.push(Node::Loop { body, line });
                    }
                    "while" => {
                        let line = tok.line;
                        self.bump();
                        let mut body = Vec::new();
                        self.parse_expr(&mut body, Stop::Brace);
                        let mut block = self.parse_block();
                        body.append(&mut block);
                        out.push(Node::Loop { body, line });
                    }
                    "return" => {
                        let line = tok.line;
                        self.bump();
                        let mut value = Vec::new();
                        // The value extends to the enclosing terminator,
                        // which stays in place for the outer loop.
                        self.parse_value_until(&mut value, stop);
                        out.push(Node::Return { value, line });
                    }
                    "let" => {
                        // `if let` / `while let` pattern inside a condition:
                        // consume the pattern (no events) up to `=`.
                        self.bump();
                        let mut depth = 0isize;
                        while let Some(t) = self.cur() {
                            if t.kind == TokenKind::Punct {
                                match t.text.as_str() {
                                    "(" | "[" | "{" => depth += 1,
                                    ")" | "]" | "}" => depth -= 1,
                                    "=" if depth == 0 => break,
                                    _ => {}
                                }
                            }
                            self.bump();
                        }
                        if self.at_punct("=") {
                            self.bump();
                        }
                    }
                    "as" => {
                        // Cast: skip the type path.
                        self.bump();
                        while let Some(t) = self.cur() {
                            if t.kind == TokenKind::Ident || t.is_punct("::") {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    "move" | "mut" | "ref" | "unsafe" | "in" | "dyn" | "impl" | "where"
                    | "true" | "false" | "self" | "Self" | "crate" | "super" => {
                        self.bump();
                    }
                    _ => self.parse_ident(out),
                },
                TokenKind::Str | TokenKind::RawStr => {
                    out.push(Node::Lit { text: tok.text.clone(), line: tok.line });
                    self.bump();
                }
                TokenKind::Punct => match tok.text.as_str() {
                    "(" => {
                        self.bump();
                        self.parse_expr(out, Stop::Paren);
                        if self.at_punct(")") {
                            self.bump();
                        }
                    }
                    "[" => {
                        self.bump();
                        self.parse_expr(out, Stop::Bracket);
                        if self.at_punct("]") {
                            self.bump();
                        }
                    }
                    "{" => out.push(Node::Block(self.parse_block())),
                    "?" => {
                        out.push(Node::Try { line: tok.line });
                        self.bump();
                    }
                    "|" | "||" if self.closure_position() => {
                        let empty_params = tok.text == "||";
                        self.bump();
                        if !empty_params {
                            // Parameters to the closing `|` (no events).
                            let mut depth = 0isize;
                            while let Some(t) = self.cur() {
                                if t.kind == TokenKind::Punct {
                                    match t.text.as_str() {
                                        "(" | "[" | "<" => depth += 1,
                                        ")" | "]" | ">" => depth -= 1,
                                        "|" if depth == 0 => break,
                                        _ => {}
                                    }
                                }
                                self.bump();
                            }
                            if self.at_punct("|") {
                                self.bump();
                            }
                        }
                        // Optional `-> Type` return annotation.
                        if self.at_punct("->") {
                            self.bump();
                            while let Some(t) = self.cur() {
                                if t.kind == TokenKind::Ident
                                    || t.is_punct("::")
                                    || t.is_punct("&")
                                {
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                        }
                        let mut body = Vec::new();
                        if self.at_punct("{") {
                            body = self.parse_block();
                        } else {
                            self.parse_value_until(&mut body, stop);
                        }
                        out.push(Node::Closure { body });
                    }
                    "::" => {
                        self.bump();
                        // Turbofish `::<...>`: skip the generic args.
                        if self.at_punct("<") {
                            self.skip_generics();
                        }
                    }
                    _ => self.bump(),
                },
                _ => self.bump(),
            }
        }
    }

    /// Parses a value expression that extends to the enclosing `stop`
    /// terminator but leaves the terminator for the caller (used for
    /// `return expr` and closure-body tails inside larger expressions).
    fn parse_value_until(&mut self, out: &mut Vec<Node>, stop: Stop) {
        match stop {
            Stop::Stmt => {
                self.parse_expr(out, Stop::Stmt);
            }
            other => {
                // Reuse the same non-consuming terminators.
                self.parse_expr(out, other);
            }
        }
    }

    /// Skips `<...>` generic arguments (handles `>>` closing two levels).
    fn skip_generics(&mut self) {
        let mut depth = 0isize;
        while let Some(t) = self.cur() {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    "<<" => depth += 2,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
            }
            self.bump();
            if depth <= 0 {
                return;
            }
        }
    }

    /// Handles a plain identifier: call, macro call, path segment, field
    /// access, or variable use.
    fn parse_ident(&mut self, out: &mut Vec<Node>) {
        let tok = match self.cur() {
            Some(t) => t,
            None => return,
        };
        let name = tok.text.clone();
        let (line, col) = (tok.line, tok.col);
        let prev_dot = self.prev().map(|p| p.is_punct(".")).unwrap_or(false);
        let prev_colons = self.prev().map(|p| p.is_punct("::")).unwrap_or(false);
        let next = self.peek(1);
        let next_is = |s: &str| next.map(|t| t.is_punct(s)).unwrap_or(false);

        // Macro call: `name!(...)` / `name![...]` / `name!{...}`.
        if next_is("!") {
            let after = self.peek(2);
            let delim = after.map(|t| t.text.clone()).unwrap_or_default();
            if matches!(delim.as_str(), "(" | "[" | "{") {
                self.bump(); // name
                self.bump(); // !
                out.push(Node::Call(CallNode {
                    name,
                    method: false,
                    bang: true,
                    qual: None,
                    recv: None,
                    argc: 0,
                    line,
                    col,
                }));
                match delim.as_str() {
                    "(" => {
                        self.bump();
                        self.parse_macro_body(out, ")");
                    }
                    "[" => {
                        self.bump();
                        self.parse_macro_body(out, "]");
                    }
                    _ => {
                        out.push(Node::Block(self.parse_block()));
                    }
                }
                return;
            }
        }

        // Call: `name(...)`.
        if next_is("(") {
            let qual = if prev_colons {
                self.tok_at(self.i.wrapping_sub(2))
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.clone())
            } else {
                None
            };
            let recv = if prev_dot {
                self.tok_at(self.i.wrapping_sub(2))
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.clone())
            } else {
                None
            };
            self.bump(); // name
            self.bump(); // `(`
            let call_idx = out.len();
            out.push(Node::Call(CallNode {
                name,
                method: prev_dot,
                bang: false,
                qual,
                recv,
                argc: 0,
                line,
                col,
            }));
            let mut argc = 0usize;
            if !self.at_punct(")") {
                loop {
                    argc += 1;
                    self.parse_expr(out, Stop::Arg);
                    if self.at_punct(",") {
                        self.bump();
                        if self.at_punct(")") {
                            break;
                        }
                    } else {
                        break;
                    }
                }
            }
            if self.at_punct(")") {
                self.bump();
            }
            if let Node::Call(c) = &mut out[call_idx] {
                c.argc = argc;
            }
            return;
        }

        // Path segment (`seg::`), field access (`.field`), or plain use.
        self.bump();
        if next_is("::") || prev_dot {
            return; // type/module path segment or field name: not a variable
        }
        out.push(Node::Use { name, line });
    }

    /// Parses macro body tokens as a best-effort expression list up to the
    /// matching closer.
    fn parse_macro_body(&mut self, out: &mut Vec<Node>, close: &str) {
        let stop = if close == ")" { Stop::Paren } else { Stop::Bracket };
        loop {
            self.parse_expr(out, stop);
            if self.at_punct(";") || self.at_punct(",") {
                self.bump();
                continue;
            }
            break;
        }
        if self.at_punct(close) {
            self.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ast(src: &str) -> FileAst {
        let sf = SourceFile::parse(&PathBuf::from("crates/comm/src/demo.rs"), src);
        parse_file(&sf)
    }

    fn calls(nodes: &[Node], out: &mut Vec<String>) {
        for n in nodes {
            match n {
                Node::Call(c) => {
                    out.push(c.name.clone());
                }
                Node::Let(l) => calls(&l.init, out),
                Node::Branch(b) => {
                    calls(&b.cond, out);
                    for a in &b.arms {
                        calls(&a.body, out);
                    }
                }
                Node::Loop { body, .. }
                | Node::Closure { body }
                | Node::Block(body)
                | Node::Return { value: body, .. } => calls(body, out),
                _ => {}
            }
        }
    }

    #[test]
    fn finds_fns_with_spans_and_visibility() {
        let a = ast(
            "pub fn outer(c: &C) -> usize {\n    inner(c)\n}\n\
             fn inner(c: &C) -> usize {\n    c.rank()\n}\n\
             pub(crate) fn restricted() {}\n",
        );
        assert_eq!(a.fns.len(), 3);
        assert!(a.fns[0].is_pub && a.fns[0].name == "outer");
        assert!(!a.fns[1].is_pub && a.fns[1].name == "inner");
        assert!(!a.fns[2].is_pub, "pub(crate) is not public API");
        assert_eq!(a.fns[0].line, 1);
        assert_eq!(a.fns[0].end_line, 3);
        assert_eq!(a.enclosing_fn(2).map(|f| f.name.as_str()), Some("outer"));
        assert_eq!(a.enclosing_fn(5).map(|f| f.name.as_str()), Some("inner"));
    }

    #[test]
    fn lowers_calls_branches_and_lets() {
        let a = ast(
            "fn f(c: &C, flag: bool) {\n\
                let h = c.try_barrier();\n\
                if c.rank() == 0 {\n\
                    c.allreduce(&mut [0.0], Op::Sum);\n\
                } else {\n\
                    helper(c);\n\
                }\n\
                consume(h);\n\
             }\n",
        );
        let f = &a.fns[0];
        let lets: Vec<&LetNode> = f
            .body
            .iter()
            .filter_map(|n| if let Node::Let(l) = n { Some(l) } else { None })
            .collect();
        assert_eq!(lets.len(), 1);
        assert_eq!(lets[0].name.as_deref(), Some("h"));
        let branch = f
            .body
            .iter()
            .find_map(|n| if let Node::Branch(b) = n { Some(b) } else { None })
            .expect("if branch");
        assert!(branch.mentions_rank);
        assert!(branch.has_else);
        assert_eq!(branch.arms.len(), 2);
        let mut cs = Vec::new();
        calls(&branch.arms[0].body, &mut cs);
        assert_eq!(cs, vec!["allreduce"]);
        let mut cs = Vec::new();
        calls(&branch.arms[1].body, &mut cs);
        assert_eq!(cs, vec!["helper"]);
    }

    #[test]
    fn method_calls_record_receiver_qualifier_and_argc() {
        let a = ast(
            "fn f(c: &C, s: &str) {\n\
                let sub = c.split(1, 0);\n\
                let parts = s.split(',');\n\
                let v = Vec::with_capacity(8);\n\
             }\n",
        );
        let mut found = Vec::new();
        fn walk(nodes: &[Node], out: &mut Vec<CallNode>) {
            for n in nodes {
                match n {
                    Node::Call(c) => out.push(c.clone()),
                    Node::Let(l) => walk(&l.init, out),
                    _ => {}
                }
            }
        }
        walk(&a.fns[0].body, &mut found);
        let comm_split = &found[0];
        assert!(comm_split.method && comm_split.argc == 2);
        assert_eq!(comm_split.recv.as_deref(), Some("c"));
        let str_split = &found[1];
        assert!(str_split.method && str_split.argc == 1);
        let with_cap = &found[2];
        assert!(!with_cap.method);
        assert_eq!(with_cap.qual.as_deref(), Some("Vec"));
    }

    #[test]
    fn if_without_else_gets_implicit_empty_arm() {
        let a = ast("fn f(c: &C) {\n    if c.rank() == 0 {\n        c.barrier();\n    }\n}\n");
        let b = a
            .fns[0]
            .body
            .iter()
            .find_map(|n| if let Node::Branch(b) = n { Some(b) } else { None })
            .expect("branch");
        assert!(!b.has_else);
        assert_eq!(b.arms.len(), 2);
        assert!(b.arms[1].body.is_empty());
    }

    #[test]
    fn match_arms_and_early_return_are_lowered() {
        let a = ast(
            "fn f(c: &C) -> usize {\n\
                match c.try_barrier() {\n\
                    Ok(()) => {}\n\
                    Err(_) => {}\n\
                }\n\
                if c.rank() != 0 {\n\
                    return 0;\n\
                }\n\
                c.rank()\n\
             }\n",
        );
        let f = &a.fns[0];
        let m = f
            .body
            .iter()
            .find_map(|n| {
                if let Node::Branch(b) = n {
                    if b.is_match {
                        return Some(b);
                    }
                }
                None
            })
            .expect("match");
        assert_eq!(m.arms.len(), 2);
        assert!(m.arms[1].pat.starts_with("Err"));
        let has_ret = f.body.iter().any(|n| {
            if let Node::Branch(b) = n {
                !b.is_match && b.arms[0].body.iter().any(|x| matches!(x, Node::Return { .. }))
            } else {
                false
            }
        });
        assert!(has_ret, "return inside rank branch must be lowered");
    }

    #[test]
    fn closures_string_literals_and_try_are_events() {
        let a = ast(
            "fn f(c: &C) -> Result<(), E> {\n\
                let _g = span(\"newton.iter\");\n\
                let out = (0..4).map(|i| i + 1).collect();\n\
                c.try_allreduce(&mut [1.0])?;\n\
                Ok(())\n\
             }\n",
        );
        let f = &a.fns[0];
        fn find_lit(nodes: &[Node]) -> Option<String> {
            for n in nodes {
                match n {
                    Node::Lit { text, .. } => return Some(text.clone()),
                    Node::Let(l) => {
                        if let Some(t) = find_lit(&l.init) {
                            return Some(t);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        assert_eq!(find_lit(&f.body).as_deref(), Some("\"newton.iter\""));
        fn has_try(nodes: &[Node]) -> bool {
            nodes.iter().any(|n| match n {
                Node::Try { .. } => true,
                Node::Let(l) => has_try(&l.init),
                Node::Block(b) | Node::Closure { body: b } => has_try(b),
                _ => false,
            })
        }
        assert!(has_try(&f.body));
        fn has_closure(nodes: &[Node]) -> bool {
            nodes.iter().any(|n| match n {
                Node::Closure { .. } => true,
                Node::Let(l) => has_closure(&l.init),
                _ => false,
            })
        }
        assert!(has_closure(&f.body));
    }

    #[test]
    fn impl_self_types_and_declared_types() {
        let a = ast(
            "pub struct Plan<C> { c: C }\n\
             enum Mode { A }\n\
             impl<C: Comm> Plan<C> {\n\
                 fn new(c: C) -> Self { Self { c } }\n\
             }\n\
             impl<C: Comm> std::fmt::Debug for Plan<C> where C: Clone {\n\
                 fn fmt(&self) {}\n\
             }\n\
             fn free(f: impl Fn() -> Mode) -> impl Iterator<Item = u8> { f(); }\n",
        );
        let owners: Vec<_> = a.fns.iter().map(|f| (f.name.as_str(), f.owner.as_deref())).collect();
        assert_eq!(
            owners,
            vec![("new", Some("Plan")), ("fmt", Some("Plan")), ("free", None)]
        );
        assert_eq!(a.types, vec!["Plan", "Mode"]);
    }
}
