//! The benchmark workloads: program text, input facts made from the seed,
//! and the retraction batch.
//!
//! Each workload is a list of [`Instance`]s (one engine each); `pointsto`
//! is a suite of eleven, the others a single one.
//!
//! **What the seed does.** The generators of `crates/workloads` are called
//! with fixed seeds ([`SHAPE_SEED`]), so every input has the same shape and
//! the engine the same amount of work; `--seed` draws the permutation that
//! renames the input's identifiers (graph vertices, network instances,
//! program variables and allocation sites). Different seeds therefore give
//! different tuples in a different key order, but the same counts. Letting
//! the seed pick the shape moved `run_s` by ±12 % on `security` (the
//! closure is 1.33 M to 1.57 M tuples depending on the seed), which is
//! wider than the bound the metric is held to.

use crate::oracle::{self, Expected};
use workloads::graphs;
use workloads::network::{self, NetworkConfig, NETWORK_RULES};
use workloads::pointsto::{self, PointsToConfig, POINTSTO_RULES};
use workloads::rng::SplitMix64;

/// A workload's name and why it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "pointsto",
        why: "Fig. 5a: 11 small points-to programs, 229 iterations of 3-literal joins; planner, index upkeep and per-tuple interpreter cost dominate, the tree does little",
    },
    Workload {
        name: "security",
        why: "Fig. 5b: one dominant 1.4 M-tuple relation under negation, 4 M membership tests and 2.8 M bound calls; the tree's read path dominates, the planner does little",
    },
    Workload {
        name: "tc_random",
        why: "closure of a 1500-node random graph: 1.8 M tuples, larger than the per-core cache, 20 iterations of huge deltas; random-order insert, duplicate-heavy membership, bulk merge",
    },
];

/// Seed of every generator call: the shape all runs share.
pub const SHAPE_SEED: u64 = 42;

/// Transitive closure, the program of `tc_random`.
pub const TC_RULES: &str = r#"
    .decl edge(x: number, y: number)
    .decl path(x: number, y: number)
    .input edge
    .output path
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
"#;

/// A relation's tuples, by relation name.
pub type Facts = Vec<(&'static str, Vec<Vec<u64>>)>;

/// One program with its inputs: what one `Engine` is built from.
pub struct Instance {
    /// Program text, parsed inside the timed set-up.
    pub rules: &'static str,
    /// Input facts per relation, sorted, in load order.
    pub facts: Facts,
    /// The input relation the retraction batch is taken from.
    pub retract_rel: &'static str,
    /// The batch `Engine::retract_facts` withdraws after the run. Delete
    /// and re-derive is only incremental when few derivations pass through
    /// the batch, so each workload withdraws facts with that property.
    pub retract: Vec<Vec<u64>>,
    /// The reference for this program's `.output` relations, over its
    /// inputs or over what survives the retraction.
    pub oracle: fn(&Facts) -> Expected,
}

impl Instance {
    /// The input facts left once the retraction batch is withdrawn.
    pub fn surviving(&self) -> Facts {
        self.facts
            .iter()
            .map(|(name, tuples)| {
                let kept = if *name == self.retract_rel {
                    tuples
                        .iter()
                        .filter(|t| !self.retract.contains(t))
                        .cloned()
                        .collect()
                } else {
                    tuples.clone()
                };
                (*name, kept)
            })
            .collect()
    }

    /// Total number of input facts.
    pub fn fact_count(&self) -> usize {
        self.facts.iter().map(|(_, t)| t.len()).sum()
    }
}

/// Input sizes of one benchmark mode.
pub struct Sizes {
    pointsto_scale: usize,
    pointsto_programs: u64,
    network_scale: usize,
    random_nodes: u64,
}

/// The measured sizes.
pub const FULL: Sizes = Sizes {
    pointsto_scale: 5,
    pointsto_programs: 11,
    network_scale: 60,
    random_nodes: 1500,
};

/// `--smoke`: same shape, seconds instead of minutes.
pub const SMOKE: Sizes = Sizes {
    pointsto_scale: 2,
    pointsto_programs: 3,
    network_scale: 8,
    random_nodes: 200,
};

/// Shuffles `items` in place (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// A seeded permutation of `0..n`.
fn permutation(n: u64, rng: &mut SplitMix64) -> Vec<u64> {
    let mut p: Vec<u64> = (0..n).collect();
    shuffle(&mut p, rng);
    p
}

/// Tuples from rows of columns, each column renamed through its
/// permutation (`None` leaves it alone), sorted like the generators' own
/// output.
fn rows<const N: usize>(
    tuples: impl Iterator<Item = [u64; N]>,
    rename: [Option<&[u64]>; N],
) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = tuples
        .map(|t| {
            (0..N)
                .map(|c| rename[c].map_or(t[c], |p| p[t[c] as usize]))
                .collect()
        })
        .collect();
    out.sort_unstable();
    out
}

/// The trailing 1 % (at least one) of a relation as its generator made it.
/// The retraction batch is chosen there, before the seed renames anything,
/// so that every seed withdraws the same facts under other names: chosen
/// among the renamed tuples, `pointsto`'s batch cost the engine anything
/// from 3 ms to 0.9 s depending on the seed.
fn tail_percent<T>(rel: &[T]) -> &[T] {
    &rel[rel.len() - (rel.len() / 100).max(1)..]
}

/// The instances of `workload` for `seed`; `None` for an unknown name.
pub fn instances(workload: &str, seed: u64, sizes: &Sizes) -> Option<Vec<Instance>> {
    let mut rng = SplitMix64::new(seed);
    Some(match workload {
        "pointsto" => {
            let cfg = PointsToConfig::scaled(sizes.pointsto_scale);
            (0..sizes.pointsto_programs)
                .map(|i| {
                    let f = pointsto::generate_facts(&cfg, SHAPE_SEED + i);
                    let (v, h) = (
                        permutation(cfg.variables, &mut rng),
                        permutation(cfg.heaps, &mut rng),
                    );
                    let (v, h) = (Some(v.as_slice()), Some(h.as_slice()));
                    let load = |tuples: &[(u64, u64, u64)]| {
                        rows(tuples.iter().map(|&(a, b, c)| [a, b, c]), [v, v, None])
                    };
                    let facts = vec![
                        ("new", rows(f.news.iter().map(|&(a, b)| [a, b]), [v, h])),
                        (
                            "assign",
                            rows(f.assigns.iter().map(|&(a, b)| [a, b]), [v, v]),
                        ),
                        (
                            "store",
                            rows(f.stores.iter().map(|&(a, b, c)| [a, b, c]), [v, None, v]),
                        ),
                        ("load", load(&f.loads)),
                    ];
                    Instance {
                        rules: POINTSTO_RULES,
                        facts,
                        retract_rel: "load",
                        retract: load(tail_percent(&f.loads)),
                        oracle: oracle::pointsto,
                    }
                })
                .collect()
        }
        "security" => {
            let cfg = NetworkConfig::scaled(sizes.network_scale);
            let f = network::generate_facts(&cfg, SHAPE_SEED);
            let i = permutation(cfg.instances, &mut rng);
            let i = Some(i.as_slice());
            let sensitive = |instances: &[u64]| rows(instances.iter().map(|&a| [a]), [i]);
            let facts = vec![
                (
                    "in_group",
                    rows(f.in_group.iter().map(|&(a, b)| [a, b]), [i, None]),
                ),
                (
                    "allow",
                    rows(f.allow.iter().map(|&(a, b, c)| [a, b, c]), [None; 3]),
                ),
                (
                    "listens",
                    rows(f.listens.iter().map(|&(a, b)| [a, b]), [i, None]),
                ),
                ("public", rows(f.public.iter().map(|&a| [a]), [None])),
                ("sensitive", sensitive(&f.sensitive)),
            ];
            vec![Instance {
                rules: NETWORK_RULES,
                facts,
                retract_rel: "sensitive",
                retract: sensitive(tail_percent(&f.sensitive)),
                oracle: oracle::security,
            }]
        }
        "tc_random" => {
            let n = sizes.random_nodes;
            let graph = graphs::random_graph(n, 2, SHAPE_SEED);
            // Every path out of a vertex that no edge enters starts with
            // one of its own edges, so withdrawing those edges deletes
            // that vertex's paths and nothing else.
            let mut entered = vec![false; n as usize];
            graph.iter().for_each(|&(_, b)| entered[b as usize] = true);
            let sources: Vec<u64> = (0..n)
                .rev()
                .filter(|&v| !entered[v as usize])
                .take((n as usize / 100).max(1))
                .collect();
            let p = permutation(n, &mut rng);
            let edge = |keep: &dyn Fn(u64) -> bool| {
                let kept = graph.iter().filter(|&&(a, _)| keep(a));
                rows(kept.map(|&(a, b)| [a, b]), [Some(&p), Some(&p)])
            };
            let (edges, retract) = (edge(&|_| true), edge(&|a| sources.contains(&a)));
            vec![Instance {
                rules: TC_RULES,
                facts: vec![("edge", edges)],
                retract_rel: "edge",
                retract,
                oracle: oracle::tc_bfs,
            }]
        }
        _ => return None,
    })
}
