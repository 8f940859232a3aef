//! Reference results, computed without the engine.
//!
//! Each oracle reads a workload's input facts and produces, per output
//! relation, a [`Digest`]: the tuple count and an order-independent 64-bit
//! checksum. A child process prints the same digest of what
//! `Engine::relation()` returned; the two must be equal.

use crate::workload::Facts;
use std::collections::{BTreeMap, BTreeSet};

/// Count and checksum of one relation's tuples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Number of tuples.
    pub count: u64,
    /// Wrapping sum of [`tuple_hash`] over the tuples.
    pub sum: u64,
}

impl Digest {
    /// Folds one tuple in.
    pub fn add(&mut self, tuple: &[u64]) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(tuple_hash(tuple));
    }

    /// The digest of a set of tuples.
    pub fn of<'a>(tuples: impl IntoIterator<Item = &'a Vec<u64>>) -> Self {
        let mut d = Digest::default();
        for t in tuples {
            d.add(t);
        }
        d
    }
}

/// A well-mixed hash of one tuple (splitmix64 finaliser chained over the
/// columns), so that the wrapping sum over a relation tells two different
/// tuple sets of equal size apart.
pub fn tuple_hash(tuple: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ tuple.len() as u64;
    for &w in tuple {
        h = (h ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// What an oracle returns: the digest of every output relation, by name.
pub type Expected = Vec<(&'static str, Digest)>;

fn rel<'a>(facts: &'a Facts, name: &str) -> &'a [Vec<u64>] {
    facts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(&[], |(_, t)| t.as_slice())
}

/// Successor lists over dense node ids `0..n`.
fn adjacency(n: usize, edges: impl Iterator<Item = (u64, u64)>) -> Vec<Vec<u32>> {
    let mut succ = vec![Vec::new(); n];
    for (a, b) in edges {
        succ[a as usize].push(b as u32);
    }
    succ
}

/// Calls `f(a, b)` for every pair with a path of at least one edge from
/// `a` to `b`: one breadth-first search per source.
fn closure(succ: &[Vec<u32>], mut f: impl FnMut(u64, u64)) {
    let mut seen = vec![u32::MAX; succ.len()];
    let mut queue = Vec::new();
    for a in 0..succ.len() {
        queue.clear();
        queue.extend(succ[a].iter().copied());
        while let Some(b) = queue.pop() {
            if seen[b as usize] == a as u32 {
                continue;
            }
            seen[b as usize] = a as u32;
            f(a as u64, b as u64);
            queue.extend(succ[b as usize].iter().copied());
        }
    }
}

fn node_count(edges: &[Vec<u64>]) -> usize {
    edges
        .iter()
        .flat_map(|e| e.iter())
        .max()
        .map_or(0, |&m| m as usize + 1)
}

/// `path` of an arbitrary graph by breadth-first search.
pub fn tc_bfs(facts: &Facts) -> Expected {
    let edges = rel(facts, "edge");
    let succ = adjacency(node_count(edges), edges.iter().map(|e| (e[0], e[1])));
    let mut d = Digest::default();
    closure(&succ, |a, b| d.add(&[a, b]));
    vec![("path", d)]
}

/// Inclusion-based points-to analysis with a worklist of new `vpt` facts.
pub fn pointsto(facts: &Facts) -> Expected {
    let (news, assigns) = (rel(facts, "new"), rel(facts, "assign"));
    let (stores, loads) = (rel(facts, "store"), rel(facts, "load"));
    let mut vpt: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut hpt: BTreeMap<(u64, u64), BTreeSet<u64>> = BTreeMap::new();
    let mut work: Vec<(u64, u64)> = Vec::new();
    let empty = BTreeSet::new();

    fn add_vpt(vpt: &mut BTreeMap<u64, BTreeSet<u64>>, work: &mut Vec<(u64, u64)>, v: u64, h: u64) {
        if vpt.entry(v).or_default().insert(h) {
            work.push((v, h));
        }
    }
    // A new hpt(h, f, g) feeds every load `v = w.f` whose base may be `h`.
    fn add_hpt(
        hpt: &mut BTreeMap<(u64, u64), BTreeSet<u64>>,
        vpt: &mut BTreeMap<u64, BTreeSet<u64>>,
        work: &mut Vec<(u64, u64)>,
        loads: &[Vec<u64>],
        (h, f, g): (u64, u64, u64),
    ) {
        if !hpt.entry((h, f)).or_default().insert(g) {
            return;
        }
        for l in loads.iter().filter(|l| l[2] == f) {
            if vpt.get(&l[1]).is_some_and(|s| s.contains(&h)) {
                add_vpt(vpt, work, l[0], g);
            }
        }
    }

    for n in news {
        add_vpt(&mut vpt, &mut work, n[0], n[1]);
    }
    while let Some((w, h)) = work.pop() {
        // vpt(w, h) is new.
        for a in assigns.iter().filter(|a| a[1] == w) {
            add_vpt(&mut vpt, &mut work, a[0], h);
        }
        for s in stores {
            // store(v, f, x) is `v.f = x`: hpt(hv, f, hx).
            if s[0] == w {
                for g in vpt.get(&s[2]).unwrap_or(&empty).clone() {
                    add_hpt(&mut hpt, &mut vpt, &mut work, loads, (h, s[1], g));
                }
            }
            if s[2] == w {
                for hv in vpt.get(&s[0]).unwrap_or(&empty).clone() {
                    add_hpt(&mut hpt, &mut vpt, &mut work, loads, (hv, s[1], h));
                }
            }
        }
        for l in loads.iter().filter(|l| l[1] == w) {
            // load(v, w, f) is `v = w.f`.
            for g in hpt.get(&(h, l[2])).unwrap_or(&empty).clone() {
                add_vpt(&mut vpt, &mut work, l[0], g);
            }
        }
    }

    let mut dv = Digest::default();
    for (v, hs) in &vpt {
        hs.iter().for_each(|h| dv.add(&[*v, *h]));
    }
    let mut dh = Digest::default();
    for ((h, f), gs) in &hpt {
        gs.iter().for_each(|g| dh.add(&[*h, *f, *g]));
    }
    vec![("vpt", dv), ("hpt", dh)]
}

/// The security analysis: `conn` by joining group members through the
/// allow rules, `reach` by breadth-first search, then the two derived sets.
pub fn security(facts: &Facts) -> Expected {
    let in_group = rel(facts, "in_group");
    let n = in_group
        .iter()
        .map(|t| t[0] as usize + 1)
        .max()
        .unwrap_or(0);
    let listens: BTreeSet<(u64, u64)> =
        rel(facts, "listens").iter().map(|t| (t[0], t[1])).collect();
    let mut members: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for t in in_group {
        members.entry(t[1]).or_default().push(t[0]);
    }
    let mut conn: BTreeSet<(u64, u64)> = BTreeSet::new();
    let none = Vec::new();
    for rule in rel(facts, "allow") {
        let (from, to, port) = (rule[0], rule[1], rule[2]);
        let targets: Vec<u64> = members
            .get(&to)
            .unwrap_or(&none)
            .iter()
            .copied()
            .filter(|&b| listens.contains(&(b, port)))
            .collect();
        for &a in members.get(&from).unwrap_or(&none) {
            conn.extend(targets.iter().map(|&b| (a, b)));
        }
    }
    let succ = adjacency(n, conn.iter().copied());

    let public: BTreeSet<u64> = rel(facts, "public").iter().map(|t| t[0]).collect();
    let exposed: BTreeSet<u64> = in_group
        .iter()
        .filter(|t| public.contains(&t[1]))
        .map(|t| t[0])
        .collect();
    let sensitive: BTreeSet<u64> = rel(facts, "sensitive").iter().map(|t| t[0]).collect();
    let (mut reach, mut vulnerable) = (Digest::default(), Digest::default());
    let mut on_cycle = vec![false; n];
    closure(&succ, |a, b| {
        reach.add(&[a, b]);
        if exposed.contains(&a) && sensitive.contains(&b) {
            vulnerable.add(&[a, b]);
        }
        if a == b {
            on_cycle[a as usize] = true;
        }
    });
    let grouped: BTreeSet<u64> = in_group.iter().map(|t| t[0]).collect();
    let mut isolated = Digest::default();
    for i in grouped.into_iter().filter(|&i| !on_cycle[i as usize]) {
        isolated.add(&[i]);
    }
    vec![
        ("reach", reach),
        ("vulnerable", vulnerable),
        ("isolated", isolated),
    ]
}
