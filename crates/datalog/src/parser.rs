//! A hand-written recursive-descent parser for the Datalog dialect.
//!
//! Grammar (whitespace and `//` line comments allowed everywhere):
//!
//! ```text
//! program    := item*
//! item       := decl | directive | clause
//! decl       := ".decl" NAME "(" param ("," param)* ")"
//! param      := NAME (":" NAME)?          // the type annotation is cosmetic
//! directive  := (".input" | ".output") NAME
//! clause     := atom ( ":-" literal ("," literal)* )? "."
//! literal    := "!"? atom
//! atom       := NAME "(" term ("," term)* ")"
//! term       := NUMBER | "_" | NAME       // lowercase or uppercase names are variables
//! ```
//!
//! Facts (clauses without a body) must be ground.

use crate::ast::{Atom, CmpOp, ColType, Constraint, Literal, Program, Rule, Term, MAX_ARITY};
use std::fmt;

/// A parse error with line/column information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Name(String),
    Number(u64),
    /// A quoted string literal (interned into the program's symbol table).
    Str(String),
    Punct(char),
    /// `:-`
    Turnstile,
    /// A comparison operator.
    Cmp(CmpOp),
    /// `.decl`, `.input`, `.output`
    Keyword(String),
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
    /// Set by the parser from a clause's first token until the lexer hands
    /// out the `.` that ends it: inside a clause a `.` is always that
    /// terminator, so a fact directly followed by another (`a(1).a(2).`)
    /// reads as two facts, and a `.` followed by a letter is a directive
    /// only where a statement starts.
    in_clause: bool,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            line: 1,
            col: 1,
            in_clause: false,
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.src.as_bytes().get(self.pos).copied()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// The next character, which may take more than one byte.
    fn bump_char(&mut self) -> Option<char> {
        let c = self.src.get(self.pos..)?.chars().next()?;
        // Its continuation bytes are not line breaks: one column for all.
        self.pos += c.len_utf8() - 1;
        self.bump();
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn next_tok(&mut self) -> Result<(Tok, usize, usize), ParseError> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let err = |line, col, m: String| ParseError {
            line,
            col,
            message: m,
        };
        let Some(c) = self.peek() else {
            return Ok((Tok::Eof, line, col));
        };
        match c {
            b'0'..=b'9' => {
                let mut n: u64 = 0;
                while let Some(d @ b'0'..=b'9') = self.peek() {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add((d - b'0') as u64))
                        .ok_or_else(|| err(line, col, "integer literal overflows u64".into()))?;
                    self.bump();
                }
                Ok((Tok::Number(n), line, col))
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'_' || c == b'?' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok((Tok::Name(self.src[start..self.pos].to_string()), line, col))
            }
            b'.' => {
                // Either a keyword (`.decl`) or the clause terminator.
                if !self.in_clause && matches!(self.peek2(), Some(c) if c.is_ascii_alphabetic()) {
                    self.bump(); // '.'
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c.is_ascii_alphanumeric() {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Ok((
                        Tok::Keyword(self.src[start..self.pos].to_string()),
                        line,
                        col,
                    ))
                } else {
                    self.bump();
                    self.in_clause = false;
                    Ok((Tok::Punct('.'), line, col))
                }
            }
            b':' if self.peek2() == Some(b'-') => {
                self.bump();
                self.bump();
                Ok((Tok::Turnstile, line, col))
            }
            b'"' => {
                self.bump(); // opening quote
                let mut out = String::new();
                loop {
                    match self.bump_char() {
                        None => return Err(err(line, col, "unterminated string literal".into())),
                        Some('"') => break,
                        Some('\\') => match self.bump_char() {
                            Some('n') => out.push('\n'),
                            Some('t') => out.push('\t'),
                            Some('"') => out.push('"'),
                            Some('\\') => out.push('\\'),
                            other => {
                                return Err(err(line, col, format!("invalid escape {other:?}")))
                            }
                        },
                        Some(c) => out.push(c),
                    }
                }
                Ok((Tok::Str(out), line, col))
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok((Tok::Cmp(CmpOp::Le), line, col))
                } else {
                    Ok((Tok::Cmp(CmpOp::Lt), line, col))
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok((Tok::Cmp(CmpOp::Ge), line, col))
                } else {
                    Ok((Tok::Cmp(CmpOp::Gt), line, col))
                }
            }
            b'=' => {
                self.bump();
                Ok((Tok::Cmp(CmpOp::Eq), line, col))
            }
            b'!' if self.peek2() == Some(b'=') => {
                self.bump();
                self.bump();
                Ok((Tok::Cmp(CmpOp::Ne), line, col))
            }
            b'(' | b')' | b',' | b'!' | b':' => {
                self.bump();
                Ok((Tok::Punct(c as char), line, col))
            }
            _ => {
                let c = self.bump_char().unwrap_or_default();
                Err(err(line, col, format!("unexpected character {c:?}")))
            }
        }
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok,
    line: usize,
    col: usize,
    symbols: crate::ast::SymbolTable,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let (tok, line, col) = lexer.next_tok()?;
        Ok(Self {
            lexer,
            tok,
            line,
            col,
            symbols: crate::ast::SymbolTable::new(),
        })
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn advance(&mut self) -> Result<(), ParseError> {
        let (tok, line, col) = self.lexer.next_tok()?;
        self.tok = tok;
        self.line = line;
        self.col = col;
        Ok(())
    }

    fn expect_punct(&mut self, p: char) -> Result<(), ParseError> {
        if self.tok == Tok::Punct(p) {
            self.advance()
        } else {
            Err(self.error(format!("expected {p:?}, found {:?}", self.tok)))
        }
    }

    fn expect_name(&mut self) -> Result<String, ParseError> {
        match std::mem::replace(&mut self.tok, Tok::Eof) {
            Tok::Name(n) => {
                self.advance()?;
                Ok(n)
            }
            other => {
                self.tok = other;
                Err(self.error(format!("expected a name, found {:?}", self.tok)))
            }
        }
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::new();
        loop {
            match &self.tok {
                Tok::Eof => break,
                Tok::Keyword(kw) => {
                    let kw = kw.clone();
                    self.advance()?;
                    match kw.as_str() {
                        "decl" => self.parse_decl(&mut program)?,
                        "input" | "output" => {
                            let name = self.expect_name()?;
                            let decl = program
                                .decls
                                .iter_mut()
                                .find(|d| d.name == name)
                                .ok_or_else(|| {
                                    self.error(format!(".{kw} of undeclared relation {name}"))
                                })?;
                            if kw == "input" {
                                decl.is_input = true;
                            } else {
                                decl.is_output = true;
                            }
                        }
                        other => return Err(self.error(format!("unknown directive .{other}"))),
                    }
                }
                Tok::Name(_) => {
                    self.lexer.in_clause = true;
                    self.parse_clause(&mut program)?
                }
                other => {
                    return Err(
                        self.error(format!("expected a declaration or clause, found {other:?}"))
                    )
                }
            }
        }
        program.symbols = std::mem::take(&mut self.symbols);
        Ok(program)
    }

    fn parse_decl(&mut self, program: &mut Program) -> Result<(), ParseError> {
        let name = self.expect_name()?;
        if program.decl(&name).is_some() {
            return Err(self.error(format!("relation {name} declared twice")));
        }
        self.expect_punct('(')?;
        let mut col_types = Vec::new();
        loop {
            let _param = self.expect_name()?;
            // Optional type annotation: `x : number` / `x : symbol`
            // (anything else is treated as number).
            let mut ty = ColType::Number;
            if self.tok == Tok::Punct(':') {
                self.advance()?;
                if self.expect_name()? == "symbol" {
                    ty = ColType::Symbol;
                }
            }
            col_types.push(ty);
            match self.tok {
                Tok::Punct(',') => self.advance()?,
                Tok::Punct(')') => {
                    self.advance()?;
                    break;
                }
                _ => return Err(self.error("expected ',' or ')' in declaration")),
            }
        }
        if col_types.len() > MAX_ARITY {
            return Err(self.error(format!(
                "relation {name} has arity {}, maximum supported is {MAX_ARITY}",
                col_types.len()
            )));
        }
        program.declare_typed(&name, col_types);
        Ok(())
    }

    fn parse_clause(&mut self, program: &mut Program) -> Result<(), ParseError> {
        let head = self.parse_atom()?;
        if self.tok == Tok::Punct('.') {
            // A fact: must be ground.
            self.advance()?;
            let mut tuple = Vec::with_capacity(head.terms.len());
            for t in &head.terms {
                match t {
                    Term::Const(c) => tuple.push(*c),
                    other => {
                        return Err(self.error(format!("facts must be ground, found term {other}")))
                    }
                }
            }
            program.fact(&head.relation, &tuple);
            return Ok(());
        }
        if self.tok != Tok::Turnstile {
            return Err(self.error("expected '.' or ':-' after atom"));
        }
        self.advance()?;
        let mut body = Vec::new();
        let mut constraints = Vec::new();
        loop {
            self.parse_body_item(&mut body, &mut constraints)?;
            match self.tok {
                Tok::Punct(',') => self.advance()?,
                Tok::Punct('.') => {
                    self.advance()?;
                    break;
                }
                _ => return Err(self.error("expected ',' or '.' in rule body")),
            }
        }
        program.rule(Rule {
            head,
            body,
            constraints,
        });
        Ok(())
    }

    /// Parses one body item: a (possibly negated) atom or a comparison
    /// constraint such as `X < Y` or `X != 3`.
    fn parse_body_item(
        &mut self,
        body: &mut Vec<Literal>,
        constraints: &mut Vec<Constraint>,
    ) -> Result<(), ParseError> {
        if self.tok == Tok::Punct('!') {
            self.advance()?;
            let atom = self.parse_atom()?;
            body.push(Literal {
                atom,
                negated: true,
            });
            return Ok(());
        }
        match std::mem::replace(&mut self.tok, Tok::Eof) {
            Tok::Number(n) => {
                self.advance()?;
                let c = self.parse_constraint_tail(Term::Const(n))?;
                constraints.push(c);
                Ok(())
            }
            Tok::Str(lit) => {
                self.advance()?;
                let id = self.symbols.intern(&lit);
                let c = self.parse_constraint_tail(Term::Const(id))?;
                constraints.push(c);
                Ok(())
            }
            Tok::Name(name) => {
                self.advance()?;
                if self.tok == Tok::Punct('(') {
                    let atom = self.parse_atom_args(name)?;
                    body.push(Literal {
                        atom,
                        negated: false,
                    });
                    Ok(())
                } else {
                    if name == "_" {
                        return Err(self.error("wildcard not allowed in a comparison"));
                    }
                    let c = self.parse_constraint_tail(Term::Var(name))?;
                    constraints.push(c);
                    Ok(())
                }
            }
            other => {
                self.tok = other;
                Err(self.error(format!(
                    "expected an atom or comparison, found {:?}",
                    self.tok
                )))
            }
        }
    }

    /// Having parsed the left operand, parses `<op> <term>`.
    fn parse_constraint_tail(&mut self, lhs: Term) -> Result<Constraint, ParseError> {
        let op = match self.tok {
            Tok::Cmp(op) => op,
            _ => return Err(self.error("expected a comparison operator")),
        };
        self.advance()?;
        let rhs = match std::mem::replace(&mut self.tok, Tok::Eof) {
            Tok::Number(n) => {
                self.advance()?;
                Term::Const(n)
            }
            Tok::Str(lit) => {
                self.advance()?;
                Term::Const(self.symbols.intern(&lit))
            }
            Tok::Name(n) => {
                self.advance()?;
                if n == "_" {
                    return Err(self.error("wildcard not allowed in a comparison"));
                }
                Term::Var(n)
            }
            other => {
                self.tok = other;
                return Err(self.error("expected a variable or constant after the operator"));
            }
        };
        Ok(Constraint { op, lhs, rhs })
    }

    fn parse_atom(&mut self) -> Result<Atom, ParseError> {
        let relation = self.expect_name()?;
        self.parse_atom_args(relation)
    }

    fn parse_atom_args(&mut self, relation: String) -> Result<Atom, ParseError> {
        self.expect_punct('(')?;
        let mut terms = Vec::new();
        loop {
            let term = match std::mem::replace(&mut self.tok, Tok::Eof) {
                Tok::Number(n) => {
                    self.advance()?;
                    Term::Const(n)
                }
                Tok::Str(lit) => {
                    self.advance()?;
                    Term::Const(self.symbols.intern(&lit))
                }
                Tok::Name(n) => {
                    self.advance()?;
                    if n == "_" {
                        Term::Wildcard
                    } else {
                        Term::Var(n)
                    }
                }
                other => {
                    self.tok = other;
                    return Err(self.error(format!("expected a term, found {:?}", self.tok)));
                }
            };
            terms.push(term);
            match self.tok {
                Tok::Punct(',') => self.advance()?,
                Tok::Punct(')') => {
                    self.advance()?;
                    break;
                }
                _ => return Err(self.error("expected ',' or ')' in atom")),
            }
        }
        Ok(Atom { relation, terms })
    }
}

/// Parses a program from source text.
///
/// ```
/// let program = datalog::parse(r#"
///     .decl edge(x: number, y: number)
///     .decl path(x: number, y: number)
///     .output path
///
///     edge(1, 2).  edge(2, 3).
///
///     path(x, y) :- edge(x, y).
///     path(x, z) :- path(x, y), edge(y, z).
/// "#).unwrap();
/// assert_eq!(program.rules.len(), 2);
/// assert_eq!(program.facts.len(), 2);
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    Parser::new(src)?.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Term;

    #[test]
    fn parses_transitive_closure() {
        let p = parse(
            r#"
            // the running example of the paper (§2)
            .decl edge(x: number, y: number)
            .decl path(x: number, y: number)
            .input edge
            .output path
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            "#,
        )
        .unwrap();
        assert_eq!(p.decls.len(), 2);
        assert!(p.decl("edge").unwrap().is_input);
        assert!(p.decl("path").unwrap().is_output);
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[1].body.len(), 2);
    }

    #[test]
    fn parses_facts_and_constants() {
        let p = parse(
            r#"
            .decl e(a: number, b: number)
            e(1, 2). e(18446744073709551615, 0).
            .decl f(x: number)
            f(X) :- e(X, 7).
            "#,
        )
        .unwrap();
        assert_eq!(p.facts.len(), 2);
        assert_eq!(p.facts[1].1[0], u64::MAX);
        assert_eq!(p.rules[0].body[0].atom.terms[1], Term::Const(7));
    }

    #[test]
    fn parses_negation_and_wildcards() {
        let p = parse(
            r#"
            .decl a(x: number)
            .decl b(x: number)
            .decl c(x: number, y: number)
            a(X) :- c(X, _), !b(X).
            "#,
        )
        .unwrap();
        let body = &p.rules[0].body;
        assert_eq!(body[0].atom.terms[1], Term::Wildcard);
        assert!(body[1].negated);
    }

    #[test]
    fn rejects_non_ground_facts() {
        let err = parse(".decl e(x: number)\ne(X).").unwrap_err();
        assert!(err.message.contains("ground"), "{err}");
    }

    #[test]
    fn rejects_double_declaration() {
        let err = parse(".decl e(x: number)\n.decl e(y: number)").unwrap_err();
        assert!(err.message.contains("twice"), "{err}");
    }

    #[test]
    fn rejects_unknown_directive() {
        let err = parse(".frobnicate e").unwrap_err();
        assert!(err.message.contains("unknown directive"), "{err}");
    }

    #[test]
    fn clauses_need_no_space_between_them() {
        let p = parse(
            ".decl a(x: number)\n.decl b(x: number)\na(1).a(2).b(X) :- a(X).a(3).\n.output b",
        )
        .unwrap();
        assert_eq!(p.facts.len(), 3);
        assert_eq!(p.rules.len(), 1);
        assert!(p.decl("b").unwrap().is_output);
        // Where a statement starts, a `.` before a letter is a directive.
        let err = parse(".decl a(x: number)\na(1).\n.frobnicate a").unwrap_err();
        assert!(err.message.contains("unknown directive"), "{err}");
    }

    #[test]
    fn rejects_excessive_arity() {
        let err = parse(".decl e(a:n, b:n, c:n, d:n, e:n, f:n)").unwrap_err();
        assert!(err.message.contains("arity"), "{err}");
    }

    #[test]
    fn rejects_overflowing_integer() {
        let err = parse(".decl e(x: number)\ne(99999999999999999999999).").unwrap_err();
        assert!(err.message.contains("overflow"), "{err}");
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse(".decl e(x: number)\n\n???").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn directive_on_undeclared_relation_fails() {
        let err = parse(".output ghost").unwrap_err();
        assert!(err.message.contains("undeclared"), "{err}");
    }
}
