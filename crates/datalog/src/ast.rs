//! Abstract syntax of the Datalog dialect.
//!
//! The dialect covers what the paper's evaluation workloads need: relation
//! declarations, facts, Horn rules with stratified negation, and input /
//! output markers. Constants are unsigned integers — production engines
//! (Soufflé included) intern symbols to dense integers before evaluation,
//! so numeric-only constants lose no generality.

use std::fmt;

/// Maximum relation arity supported by the engine (tuples are stored as
/// fixed-size padded arrays; see the `storage` module).
pub const MAX_ARITY: usize = 5;

/// Base value for interned symbol ids. Symbols and numbers share the
/// `u64` value space (Soufflé-style ordinal semantics); interned ids start
/// high enough that realistic numeric data never collides.
pub const SYMBOL_BASE: u64 = 1 << 48;

/// The declared type of a relation column — `number` or `symbol` in the
/// surface syntax. Purely descriptive at evaluation time (everything is a
/// `u64` ordinal), but used to render symbol columns back to strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColType {
    /// Unsigned integer data.
    Number,
    /// Interned string data.
    Symbol,
}

/// An interning table mapping strings to dense `u64` ordinals
/// (`SYMBOL_BASE + index`), as production Datalog engines do before
/// evaluation.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    ids: std::collections::HashMap<String, u64>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its ordinal (stable across calls).
    pub fn intern(&mut self, name: &str) -> u64 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = SYMBOL_BASE + self.names.len() as u64;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Resolves an ordinal back to its string, if it is an interned symbol.
    pub fn resolve(&self, id: u64) -> Option<&str> {
        id.checked_sub(SYMBOL_BASE)
            .and_then(|i| self.names.get(i as usize))
            .map(String::as_str)
    }

    /// Looks up a name without interning it.
    pub fn lookup(&self, name: &str) -> Option<u64> {
        self.ids.get(name).copied()
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no symbols are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A term in an atom: a variable, an integer constant, or a wildcard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Term {
    /// A named variable, e.g. `X`.
    Var(String),
    /// An integer constant, e.g. `42`.
    Const(u64),
    /// The anonymous variable `_` (matches anything, binds nothing).
    Wildcard,
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
            Term::Wildcard => write!(f, "_"),
        }
    }
}

/// A relation atom: `name(t1, ..., tn)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    /// Relation name.
    pub relation: String,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A body literal: an atom, possibly negated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Literal {
    /// The underlying atom.
    pub atom: Atom,
    /// True for `!atom(...)`.
    pub negated: bool,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "!")?;
        }
        write!(f, "{}", self.atom)
    }
}

/// A comparison operator usable in rule bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Evaluates the comparison on concrete values.
    #[inline]
    pub fn eval(&self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        })
    }
}

/// A comparison constraint in a rule body, e.g. `X < Y` or `X != 3`.
/// Semantically a filter: it holds no tuples and binds no variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// Operator.
    pub op: CmpOp,
    /// Left operand (variable or constant; wildcards are rejected).
    pub lhs: Term,
    /// Right operand.
    pub rhs: Term,
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A Horn rule `head :- body.`
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// The derived atom.
    pub head: Atom,
    /// Body literals, evaluated left to right.
    pub body: Vec<Literal>,
    /// Comparison constraints (order-independent filters).
    pub constraints: Vec<Constraint>,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        let mut sep = "";
        for l in &self.body {
            write!(f, "{sep}{l}")?;
            sep = ", ";
        }
        for c in &self.constraints {
            write!(f, "{sep}{c}")?;
            sep = ", ";
        }
        write!(f, ".")
    }
}

/// A relation declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationDecl {
    /// Relation name.
    pub name: String,
    /// Number of columns (1 ..= [`MAX_ARITY`]).
    pub arity: usize,
    /// Column types, one per column (defaults to all `Number`).
    pub col_types: Vec<ColType>,
    /// Declared as `.input` (facts come from outside).
    pub is_input: bool,
    /// Declared as `.output` (results are of interest).
    pub is_output: bool,
}

/// A complete Datalog program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Relation declarations, in declaration order.
    pub decls: Vec<RelationDecl>,
    /// Rules, in source order.
    pub rules: Vec<Rule>,
    /// Ground facts given in the program text: `(relation, tuple)`.
    pub facts: Vec<(String, Vec<u64>)>,
    /// Interned string constants (`"..."` literals intern at parse time,
    /// exactly as Soufflé's symbol table does).
    pub symbols: SymbolTable,
}

impl Program {
    /// Creates an empty program (build it up with the methods below).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a relation (all columns typed `number`). Returns
    /// `&mut self` for chaining.
    pub fn declare(&mut self, name: &str, arity: usize) -> &mut Self {
        self.declare_typed(name, vec![ColType::Number; arity])
    }

    /// Declares a relation with explicit column types.
    pub fn declare_typed(&mut self, name: &str, col_types: Vec<ColType>) -> &mut Self {
        self.decls.push(RelationDecl {
            name: name.to_string(),
            arity: col_types.len(),
            col_types,
            is_input: false,
            is_output: false,
        });
        self
    }

    /// Interns a string constant, returning its ordinal (for use in facts
    /// and [`build`] terms).
    pub fn intern(&mut self, name: &str) -> u64 {
        self.symbols.intern(name)
    }

    /// Declares an input relation.
    pub fn declare_input(&mut self, name: &str, arity: usize) -> &mut Self {
        self.declare(name, arity);
        self.decls.last_mut().expect("just pushed").is_input = true;
        self
    }

    /// Declares an output relation.
    pub fn declare_output(&mut self, name: &str, arity: usize) -> &mut Self {
        self.declare(name, arity);
        self.decls.last_mut().expect("just pushed").is_output = true;
        self
    }

    /// Adds a ground fact.
    pub fn fact(&mut self, relation: &str, tuple: &[u64]) -> &mut Self {
        self.facts.push((relation.to_string(), tuple.to_vec()));
        self
    }

    /// Adds a rule.
    pub fn rule(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Looks up a declaration by name.
    pub fn decl(&self, name: &str) -> Option<&RelationDecl> {
        self.decls.iter().find(|d| d.name == name)
    }
}

/// Shorthand constructors for building rules programmatically.
pub mod build {
    use super::{Atom, CmpOp, Constraint, Literal, Rule, Term};

    /// A variable term.
    pub fn v(name: &str) -> Term {
        Term::Var(name.to_string())
    }

    /// A constant term.
    pub fn c(value: u64) -> Term {
        Term::Const(value)
    }

    /// A wildcard term.
    pub fn w() -> Term {
        Term::Wildcard
    }

    /// An atom.
    pub fn atom(relation: &str, terms: Vec<Term>) -> Atom {
        Atom {
            relation: relation.to_string(),
            terms,
        }
    }

    /// A positive literal.
    pub fn pos(relation: &str, terms: Vec<Term>) -> Literal {
        Literal {
            atom: atom(relation, terms),
            negated: false,
        }
    }

    /// A negated literal.
    pub fn neg(relation: &str, terms: Vec<Term>) -> Literal {
        Literal {
            atom: atom(relation, terms),
            negated: true,
        }
    }

    /// A rule `head :- body.`
    pub fn rule(head: Atom, body: Vec<Literal>) -> Rule {
        Rule {
            head,
            body,
            constraints: Vec::new(),
        }
    }

    /// A rule with comparison constraints.
    pub fn rule_where(head: Atom, body: Vec<Literal>, constraints: Vec<Constraint>) -> Rule {
        Rule {
            head,
            body,
            constraints,
        }
    }

    /// A comparison constraint.
    pub fn cmp(lhs: Term, op: CmpOp, rhs: Term) -> Constraint {
        Constraint { op, lhs, rhs }
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;

    #[test]
    fn display_forms() {
        let r = rule(
            atom("path", vec![v("X"), v("Z")]),
            vec![
                pos("path", vec![v("X"), v("Y")]),
                pos("edge", vec![v("Y"), v("Z")]),
                neg("blocked", vec![v("Z"), c(0)]),
            ],
        );
        assert_eq!(
            r.to_string(),
            "path(X, Z) :- path(X, Y), edge(Y, Z), !blocked(Z, 0)."
        );
        assert_eq!(w().to_string(), "_");
    }

    /// Literals and constraints share one separator: a rule of literals,
    /// of both, or of constraints alone displays as text that parses back
    /// to the same rule.
    #[test]
    fn displayed_rules_parse_back() {
        let decls = ".decl a(x: number, y: number)\n.decl b(x: number)\n";
        for rule in [
            "b(x) :- a(x, y), !b(y).",
            "b(x) :- a(x, y), x < y, y != 3.",
            "b(1) :- 1 < 2.",
        ] {
            let parsed = crate::parser::parse(&format!("{decls}{rule}")).unwrap();
            let text = parsed.rules[0].to_string();
            let again = crate::parser::parse(&format!("{decls}{text}"))
                .unwrap_or_else(|e| panic!("`{text}` does not parse: {e:?}"));
            assert_eq!(again.rules, parsed.rules, "{text}");
        }
    }

    #[test]
    fn program_builder() {
        let mut p = Program::new();
        p.declare_input("edge", 2)
            .declare_output("path", 2)
            .fact("edge", &[1, 2]);
        assert!(p.decl("edge").unwrap().is_input);
        assert!(p.decl("path").unwrap().is_output);
        assert_eq!(p.decl("nope"), None);
        assert_eq!(p.facts.len(), 1);
    }
}
