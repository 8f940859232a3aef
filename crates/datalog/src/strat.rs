//! Rule stratification: dependency analysis, SCC condensation, and safety
//! checks.
//!
//! Rules are grouped into *strata* evaluated bottom-up. Mutually recursive
//! relations land in one stratum and are solved together by the semi-naive
//! fixpoint; negation is only admitted across strata (a negated dependency
//! inside a recursive component makes the program non-stratifiable).

use crate::ast::{Program, Term};
use std::collections::HashMap;
use std::fmt;

/// A stratification or safety error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratError(pub String);

impl fmt::Display for StratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stratification error: {}", self.0)
    }
}

impl std::error::Error for StratError {}

/// A stratum: the relation ids it defines and the indices of the rules that
/// derive them, plus whether the stratum is recursive.
#[derive(Debug, Clone)]
pub struct Stratum {
    /// Relations defined (appearing in rule heads) in this stratum.
    pub relations: Vec<usize>,
    /// Indices into `Program::rules` of the rules evaluated here.
    pub rules: Vec<usize>,
    /// Whether any rule depends on a relation of this same stratum
    /// (requiring the semi-naive fixpoint loop).
    pub recursive: bool,
}

/// The output of stratification.
#[derive(Debug, Clone)]
pub struct Stratification {
    /// Map from relation name to dense relation id.
    pub rel_ids: HashMap<String, usize>,
    /// Strata in evaluation order.
    pub strata: Vec<Stratum>,
}

/// Checks rule safety and computes a stratification.
///
/// Safety requires: every relation referenced is declared with matching
/// arity; every head variable occurs in a positive body literal; every
/// variable of a negated literal occurs in a positive literal.
pub fn stratify(program: &Program) -> Result<Stratification, StratError> {
    let mut rel_ids = HashMap::new();
    for (i, d) in program.decls.iter().enumerate() {
        rel_ids.insert(d.name.clone(), i);
    }
    let n = program.decls.len();

    // --- Safety checks --------------------------------------------------
    let arity_of = |name: &str| -> Result<usize, StratError> {
        rel_ids
            .get(name)
            .map(|&i| program.decls[i].arity)
            .ok_or_else(|| StratError(format!("undeclared relation {name}")))
    };
    for (ri, rule) in program.rules.iter().enumerate() {
        let label = || format!("rule {} (`{}`)", ri, rule);
        if arity_of(&rule.head.relation)? != rule.head.terms.len() {
            return Err(StratError(format!("{}: head arity mismatch", label())));
        }
        let mut positive_vars: Vec<&str> = Vec::new();
        for lit in &rule.body {
            if arity_of(&lit.atom.relation)? != lit.atom.terms.len() {
                return Err(StratError(format!(
                    "{}: arity mismatch on {}",
                    label(),
                    lit.atom.relation
                )));
            }
            if !lit.negated {
                for t in &lit.atom.terms {
                    if let Term::Var(v) = t {
                        positive_vars.push(v);
                    }
                }
            }
        }
        for t in &rule.head.terms {
            if let Term::Var(v) = t {
                if !positive_vars.contains(&v.as_str()) {
                    return Err(StratError(format!(
                        "{}: head variable {v} not bound by a positive literal",
                        label()
                    )));
                }
            }
            if matches!(t, Term::Wildcard) {
                return Err(StratError(format!(
                    "{}: wildcard not allowed in rule head",
                    label()
                )));
            }
        }
        for lit in rule.body.iter().filter(|l| l.negated) {
            for t in &lit.atom.terms {
                match t {
                    Term::Var(v) if !positive_vars.contains(&v.as_str()) => {
                        return Err(StratError(format!(
                            "{}: variable {v} of negated literal not bound positively",
                            label()
                        )));
                    }
                    Term::Wildcard => {
                        return Err(StratError(format!(
                            "{}: wildcard not allowed in a negated literal",
                            label()
                        )));
                    }
                    _ => {}
                }
            }
        }
        for c in &rule.constraints {
            for t in [&c.lhs, &c.rhs] {
                match t {
                    Term::Var(v) if !positive_vars.contains(&v.as_str()) => {
                        return Err(StratError(format!(
                            "{}: variable {v} of comparison not bound positively",
                            label()
                        )));
                    }
                    Term::Wildcard => {
                        return Err(StratError(format!(
                            "{}: wildcard not allowed in a comparison",
                            label()
                        )));
                    }
                    _ => {}
                }
            }
        }
    }
    for (name, tuple) in &program.facts {
        if arity_of(name)? != tuple.len() {
            return Err(StratError(format!("fact for {name}: arity mismatch")));
        }
    }

    // --- Dependency graph ------------------------------------------------
    // Edge body_rel -> head_rel; remember which edges are negative.
    let mut pos_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut neg_edges: Vec<(usize, usize)> = Vec::new(); // (body, head)
    for rule in &program.rules {
        let head = rel_ids[&rule.head.relation];
        for lit in &rule.body {
            let body = rel_ids[&lit.atom.relation];
            pos_edges[body].push(head);
            if lit.negated {
                neg_edges.push((body, head));
            }
        }
    }

    // --- Tarjan SCC ------------------------------------------------------
    let sccs = tarjan(n, &pos_edges);
    let comp_of: Vec<usize> = {
        let mut comp = vec![0usize; n];
        for (ci, members) in sccs.iter().enumerate() {
            for &m in members {
                comp[m] = ci;
            }
        }
        comp
    };

    // Negation inside one SCC => non-stratifiable.
    for &(body, head) in &neg_edges {
        if comp_of[body] == comp_of[head] {
            return Err(StratError(format!(
                "negated dependency of {} on {} inside a recursive component",
                program.decls[head].name, program.decls[body].name
            )));
        }
    }

    // Tarjan emits SCCs in reverse topological order; reverse to evaluate
    // dependencies first.
    let mut order: Vec<usize> = (0..sccs.len()).collect();
    order.reverse();

    let mut strata = Vec::new();
    for ci in order {
        let members = &sccs[ci];
        // Rules defining a relation of this component.
        let rules: Vec<usize> = program
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| comp_of[rel_ids[&r.head.relation]] == ci)
            .map(|(i, _)| i)
            .collect();
        if rules.is_empty() && members.len() == 1 {
            // Pure input relation: no stratum needed.
            continue;
        }
        let recursive = members.len() > 1
            || rules.iter().any(|&ri| {
                program.rules[ri]
                    .body
                    .iter()
                    .any(|l| comp_of[rel_ids[&l.atom.relation]] == ci)
            });
        strata.push(Stratum {
            relations: members.clone(),
            rules,
            recursive,
        });
    }

    Ok(Stratification { rel_ids, strata })
}

/// Iterative Tarjan strongly-connected components.
fn tarjan(n: usize, edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![UNSET; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS: (node, edge cursor).
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut cursor)) = dfs.last_mut() {
            if *cursor == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *cursor < edges[v].len() {
                let w = edges[v][*cursor];
                *cursor += 1;
                if index[w] == UNSET {
                    dfs.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack invariant");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn transitive_closure_is_one_recursive_stratum() {
        let p = parse(
            ".decl edge(x:n, y:n)\n.decl path(x:n, y:n)\n\
             path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        // edge produces no stratum; path produces one recursive stratum.
        assert_eq!(s.strata.len(), 1);
        assert!(s.strata[0].recursive);
        assert_eq!(s.strata[0].rules.len(), 2);
    }

    #[test]
    fn mutually_recursive_relations_share_a_stratum() {
        let p = parse(
            ".decl a(x:n)\n.decl b(x:n)\n.decl seed(x:n)\n\
             a(X) :- seed(X).\na(X) :- b(X).\nb(X) :- a(X).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.strata.len(), 1);
        assert_eq!(s.strata[0].relations.len(), 2);
        assert!(s.strata[0].recursive);
    }

    #[test]
    fn strata_ordered_bottom_up() {
        let p = parse(
            ".decl base(x:n)\n.decl mid(x:n)\n.decl top(x:n)\n\
             mid(X) :- base(X).\ntop(X) :- mid(X).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.strata.len(), 2);
        let mid_id = s.rel_ids["mid"];
        assert!(s.strata[0].relations.contains(&mid_id));
        assert!(!s.strata[0].recursive);
    }

    #[test]
    fn stratified_negation_accepted() {
        let p = parse(
            ".decl edge(x:n, y:n)\n.decl path(x:n, y:n)\n.decl unreachable(x:n, y:n)\n\
             .decl node(x:n)\n\
             path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n\
             unreachable(X,Y) :- node(X), node(Y), !path(X,Y).",
        )
        .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.strata.len(), 2);
        // `unreachable` must come after `path`.
        let unreachable = s.rel_ids["unreachable"];
        assert!(s.strata[1].relations.contains(&unreachable));
    }

    #[test]
    fn negation_in_cycle_rejected() {
        let p = parse(
            ".decl a(x:n)\n.decl b(x:n)\n.decl s(x:n)\n\
             a(X) :- s(X), !b(X).\nb(X) :- a(X).",
        )
        .unwrap();
        let err = stratify(&p).unwrap_err();
        assert!(err.0.contains("recursive component"), "{err}");
    }

    #[test]
    fn unbound_head_variable_rejected() {
        let p = parse(".decl a(x:n)\n.decl b(x:n)\na(Y) :- b(X).").unwrap();
        let err = stratify(&p).unwrap_err();
        assert!(err.0.contains("head variable"), "{err}");
    }

    #[test]
    fn unsafe_negation_rejected() {
        let p = parse(".decl a(x:n)\n.decl b(x:n)\n.decl c(x:n)\na(X) :- b(X), !c(Y).").unwrap();
        let err = stratify(&p).unwrap_err();
        assert!(err.0.contains("negated literal"), "{err}");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let p = parse(".decl a(x:n)\n.decl b(x:n, y:n)\na(X) :- b(X).").unwrap();
        let err = stratify(&p).unwrap_err();
        assert!(err.0.contains("arity"), "{err}");
    }

    #[test]
    fn undeclared_relation_rejected() {
        let p = parse(".decl a(x:n)\na(X) :- ghost(X).").unwrap();
        let err = stratify(&p).unwrap_err();
        assert!(err.0.contains("undeclared"), "{err}");
    }

    #[test]
    fn fact_arity_checked() {
        let mut p = parse(".decl a(x:n, y:n)").unwrap();
        p.fact("a", &[1]);
        let err = stratify(&p).unwrap_err();
        assert!(err.0.contains("arity"), "{err}");
    }

    #[test]
    fn wildcard_in_negation_rejected() {
        let p = parse(".decl a(x:n)\n.decl b(x:n)\n.decl c(x:n, y:n)\nb(x) :- a(x), !c(x, _).")
            .unwrap();
        let err = stratify(&p).unwrap_err();
        assert!(
            err.0.contains("wildcard") && err.0.contains("negated"),
            "{err}"
        );
        assert!(err.0.contains("rule 0"), "names the rule: {err}");
    }

    #[test]
    fn wildcard_in_head_rejected() {
        let p = parse(".decl a(x:n)\n.decl b(x:n)\na(_) :- b(X).").unwrap();
        let err = stratify(&p).unwrap_err();
        assert!(err.0.contains("wildcard"), "{err}");
    }
}
