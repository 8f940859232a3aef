//! # datalog — a parallel semi-naive Datalog engine
//!
//! A from-scratch Datalog engine playing the role Soufflé plays in §4.3 of
//! *"A Specialized B-tree for Concurrent Datalog Evaluation"* (PPoPP 2019):
//! the system whose end-to-end performance depends on the relation data
//! structure underneath. Relations are pluggable ([`StorageKind`]) so the
//! engine can run the same program over the specialized concurrent B-tree
//! and every baseline structure the paper compares against.
//!
//! Pipeline: [`parse`] (or the [`ast::build`] API) → [`stratify`]
//! (dependency analysis, SCC condensation, safety checks) → [`Engine::run`]
//! (per-stratum semi-naive fixpoint with compiled nested-loop-join plans;
//! the outer relation is partitioned into range chunks that worker threads
//! claim dynamically off a shared cursor — no materialized copy on the
//! B-tree path).
//!
//! The dialect supports stratified negation (`!atom`), comparison
//! constraints (`X < Y`, `A != "b"`), interned string symbols
//! (`: symbol` columns), wildcards, Soufflé-style `.facts`/`.csv` file
//! I/O ([`io`]), plan explanation ([`Engine::explain`]) and per-rule
//! profiling ([`Engine::profile`]).
//!
//! ```
//! use datalog::{parse, Engine, StorageKind};
//!
//! let program = parse(r#"
//!     .decl edge(x: number, y: number)
//!     .decl path(x: number, y: number)
//!     .output path
//!     edge(1, 2). edge(2, 3).
//!     path(x, y) :- edge(x, y).
//!     path(x, z) :- path(x, y), edge(y, z).
//! "#).unwrap();
//! let mut engine = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
//! engine.run().unwrap();
//! assert_eq!(engine.relation("path").unwrap(),
//!            vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
mod engine;
mod eval;
pub mod io;
mod parser;
mod planner;
mod report;
pub mod storage;
mod strat;

pub use ast::{Program, MAX_ARITY};
pub use engine::{Engine, EngineError, EvalStats, RetractOutcome, RuleProfile};
pub use io::IoError;
pub use parser::{parse, ParseError};
pub use report::{RelationReport, StorageReport};
pub use storage::StorageKind;
pub use strat::{stratify, StratError, Stratification};
