//! The metrics, by name: what `BENCHMARK.json` declares and what a run
//! prints. `selftest` checks the two agree.

/// A metric's declaration.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the engine sees, with the share of the parent's median
/// by which each may get worse.
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (def("run_s", "s", "lower"), 0.20),
    (def("retract_s", "s", "lower"), 0.20),
    (def("setup_s", "s", "lower"), 0.25),
    (def("peak_rss_mb", "MiB", "lower"), 0.15),
];

/// What the traced run measures inside single layers (layer = module).
pub const PER_LAYER: [MetricDef; 64] = [
    // Set-up, per workload (summed over its programs).
    def("frontend.parse_us", "us", "lower"),
    def("frontend.stratify_us", "us", "lower"),
    def("frontend.engine_new_us", "us", "lower"),
    def("frontend.load_mtps", "Mtuple/s", "higher"),
    // The same timed call with `set_planner_enabled(false)`.
    def("planner.off_run_s", "s", "lower"),
    def("planner.gain", "x", "higher"),
    def("planner.index_builds", "count", "lower"),
    def("planner.index_hit_ratio", "ratio", "higher"),
    // The interpreter, from `EvalStats`, one worker.
    def("eval.iterations", "count", "lower"),
    def("eval.tuples_scanned", "count", "lower"),
    def("eval.tuples_emitted", "count", "lower"),
    def("eval.produced_tuples", "count", "higher"),
    def("eval.scan_per_produced", "ratio", "lower"),
    def("eval.ns_per_scanned", "ns", "lower"),
    def("eval.inserts", "count", "lower"),
    def("eval.membership_tests", "count", "lower"),
    def("eval.bound_calls", "count", "lower"),
    def("eval.hint_hit_rate", "ratio", "higher"),
    def("eval.read_out_mtps", "Mtuple/s", "higher"),
    // The interpreter with two workers.
    def("eval.run_par_s", "s", "lower"),
    def("eval.par_speedup", "x", "higher"),
    def("eval.par_verified_share", "ratio", "higher"),
    def("eval.sched_imbalance", "ratio", "lower"),
    def("eval.chunks_claimed", "count", "lower"),
    def("eval.peak_rss_par_mb", "MiB", "lower"),
    // Delete and re-derive of the first program's batch.
    def("dred.retract_s", "s", "lower"),
    def("dred.retract_par_s", "s", "lower"),
    def("dred.overdelete_s", "s", "lower"),
    def("dred.delete_s", "s", "lower"),
    def("dred.rederive_s", "s", "lower"),
    def("dred.overdeleted", "count", "lower"),
    def("dred.rederived", "count", "lower"),
    def("dred.scratch_ratio", "ratio", "lower"),
    // The storage seam: `dyn RelationStorage`, tuples padded to MAX_ARITY.
    def("storage.insert_sorted_mops", "Mop/s", "higher"),
    def("storage.insert_shuffled_mops", "Mop/s", "higher"),
    def("storage.contains_mops", "Mop/s", "higher"),
    def("storage.scan_prefix_mtps", "Mtuple/s", "higher"),
    def("storage.merge_mtps", "Mtuple/s", "higher"),
    def("storage.remove_mops", "Mop/s", "higher"),
    def("storage.index_insert_mops", "Mop/s", "higher"),
    def("storage.len_ms", "ms", "lower"),
    // The tree itself, `BTreeSet<K>` at the relation's true arity.
    def("specbtree.insert_sorted_mops", "Mop/s", "higher"),
    def("specbtree.insert_shuffled_mops", "Mop/s", "higher"),
    def("specbtree.insert_par_mops", "Mop/s", "higher"),
    def("specbtree.insert_par_kept_share", "ratio", "higher"),
    def("specbtree.bytes_per_tuple", "B", "lower"),
    def("specbtree.leaf_fill", "ratio", "higher"),
    def("specbtree.depth", "count", "lower"),
    def("specbtree.contains_sorted_mops", "Mop/s", "higher"),
    def("specbtree.contains_shuffled_mops", "Mop/s", "higher"),
    def("specbtree.lower_bound_mops", "Mop/s", "higher"),
    def("specbtree.scan_mtps", "Mtuple/s", "higher"),
    def("specbtree.hint_hit_rate", "ratio", "higher"),
    def("specbtree.merge_mtps", "Mtuple/s", "higher"),
    def("specbtree.merge_par_mtps", "Mtuple/s", "higher"),
    def("specbtree.remove_mops", "Mop/s", "higher"),
    // The lock.
    def("optlock.read_ns", "ns", "lower"),
    def("optlock.write_ns", "ns", "lower"),
    def("optlock.upgrade_ns", "ns", "lower"),
    def("optlock.contended_validate_fail_share", "ratio", "lower"),
    // The same timed call over the other ordered backends; the Fig. 5 claim.
    def("baselines.rbtset_run_s", "s", "lower"),
    def("baselines.gbtree_run_s", "s", "lower"),
    def("baselines.best_ratio", "ratio", "lower"),
    // Traced `run` against the untraced one.
    def("trace.overhead_pct", "%", "lower"),
];
