//! A naive bottom-up evaluator that shares nothing with the engine but the
//! parser and the stratifier: the reference the differential suites check
//! every storage kind, thread count and planner setting against.

use datalog::ast::{Constraint, Literal, Program, Term};
use datalog::stratify;
use std::collections::{BTreeMap, BTreeSet};

pub type Db = BTreeMap<String, BTreeSet<Vec<u64>>>;
type Env = BTreeMap<String, u64>;

/// `env` extended so that `terms` matches `tuple`, if it can be.
fn unify(terms: &[Term], tuple: &[u64], env: &Env) -> Option<Env> {
    // What is bound already is compared before `env` is copied.
    let fits = terms.iter().zip(tuple).all(|(term, &value)| match term {
        Term::Const(c) => *c == value,
        Term::Var(v) => env.get(v).is_none_or(|&b| b == value),
        Term::Wildcard => true,
    });
    if !fits {
        return None;
    }
    let mut env = env.clone();
    for (term, &value) in terms.iter().zip(tuple) {
        let bound = match term {
            Term::Const(c) => *c,
            Term::Var(v) => *env.entry(v.clone()).or_insert(value),
            Term::Wildcard => value,
        };
        if bound != value {
            return None;
        }
    }
    Some(env)
}

/// Calls `found` with every binding of the positive literals `body`. A
/// literal's leading columns that are constants or already bound narrow it
/// to a range of its relation; the rest is matched tuple by tuple.
fn solve(body: &[&Literal], db: &Db, env: &Env, found: &mut dyn FnMut(&Env)) {
    let Some((lit, rest)) = body.split_first() else {
        return found(env);
    };
    let prefix: Vec<u64> = lit
        .atom
        .terms
        .iter()
        .map_while(|t| match t {
            Term::Const(c) => Some(*c),
            Term::Var(v) => env.get(v).copied(),
            Term::Wildcard => None,
        })
        .collect();
    let range = db[&lit.atom.relation].range(prefix.clone()..);
    for tuple in range.take_while(|t| t.starts_with(&prefix)) {
        if let Some(env) = unify(&lit.atom.terms, tuple, env) {
            solve(rest, db, &env, found);
        }
    }
}

/// Naive bottom-up evaluation, stratum by stratum: every rule over the
/// whole database, again and again, until nothing is new.
pub fn naive(program: &Program, facts: &Db) -> Db {
    let value = |t: &Term, env: &Env| match t {
        Term::Const(c) => *c,
        Term::Var(v) => env[v],
        Term::Wildcard => unreachable!("wildcards only occur in positive literals"),
    };
    let mut db: Db = program
        .decls
        .iter()
        .map(|d| {
            (
                d.name.clone(),
                facts.get(&d.name).cloned().unwrap_or_default(),
            )
        })
        .collect();
    for stratum in &stratify(program).unwrap().strata {
        loop {
            let mut derived: Vec<(&str, Vec<u64>)> = Vec::new();
            for rule in stratum.rules.iter().map(|&ri| &program.rules[ri]) {
                let (negative, positive): (Vec<&Literal>, Vec<&Literal>) =
                    rule.body.iter().partition(|l| l.negated);
                solve(&positive, &db, &Env::new(), &mut |env| {
                    let absent = |l: &&Literal| {
                        let t: Vec<u64> = l.atom.terms.iter().map(|t| value(t, env)).collect();
                        !db[&l.atom.relation].contains(&t)
                    };
                    let holds = |c: &Constraint| c.op.eval(value(&c.lhs, env), value(&c.rhs, env));
                    if negative.iter().all(absent) && rule.constraints.iter().all(holds) {
                        let head = rule.head.terms.iter().map(|t| value(t, env)).collect();
                        derived.push((&rule.head.relation, head));
                    }
                });
            }
            let mut grew = false;
            for (rel, tuple) in derived {
                grew |= db.get_mut(rel).unwrap().insert(tuple);
            }
            if !grew {
                break;
            }
        }
    }
    db
}
