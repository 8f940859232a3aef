//! Per-relation storage-health reporting — [`Engine::storage_report`]
//! (see [`StorageReport`]).
//!
//! [`Engine::storage_report`]: crate::Engine::storage_report
//!
//! The engine's [`EvalStats`](crate::EvalStats) describe the *work* a run
//! performed; this report describes the *state* the relations are left
//! in: tuple counts per relation plus, for relations backed by the
//! specialized B-tree, the full structural census of
//! [`specbtree::TreeStats`] — depth, occupancy, graveyard and node bytes.
//! After a retraction workload this is where the cost of tolerated
//! underflow becomes visible: sparse leaves and buried subtrees awaiting
//! the next `clear`.

use specbtree::TreeStats;
use std::fmt::Write as _;

/// One relation's row in a [`StorageReport`].
#[derive(Clone, Debug)]
pub struct RelationReport {
    /// Declared relation name.
    pub name: String,
    /// Tuples currently stored.
    pub len: usize,
    /// Structural census when the relation is backed by the specialized
    /// B-tree; `None` for baseline storages (hash set, red-black tree,
    /// ...), which expose no comparable introspection.
    pub tree: Option<TreeStats>,
    /// Column permutations of the secondary indexes maintained on this
    /// relation (chosen by the query planner), in index-id order; empty
    /// when the relation has none or the backend does not support them.
    pub index_perms: Vec<Vec<usize>>,
}

/// Point-in-time storage health of every relation of an engine, from
/// [`Engine::storage_report`](crate::Engine::storage_report). Quiescent
/// phases only — between runs, never during one.
#[derive(Clone, Debug, Default)]
pub struct StorageReport {
    /// One row per declared relation, in declaration order.
    pub relations: Vec<RelationReport>,
}

impl StorageReport {
    /// Renders an aligned human-readable table: one summary line per
    /// relation, followed by the indented tree census where available.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "storage report ({} relations)", self.relations.len());
        for rel in &self.relations {
            match &rel.tree {
                Some(t) => {
                    let _ = writeln!(
                        out,
                        "{}: {} tuples, depth {}, {:.0}% leaf fill, {} buried",
                        rel.name,
                        rel.len,
                        t.depth,
                        100.0 * t.leaf_fill(),
                        t.graveyard_len,
                    );
                    out.push_str(&t.to_table());
                }
                None => {
                    let _ = writeln!(out, "{}: {} tuples (no tree census)", rel.name, rel.len);
                }
            }
            if !rel.index_perms.is_empty() {
                let perms: Vec<String> = rel.index_perms.iter().map(|p| format!("{p:?}")).collect();
                let _ = writeln!(out, "  {:<18} {}", "indexes", perms.join(" "));
            }
        }
        out
    }

    /// Renders the report as a JSON object keyed by relation name (no
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"relations\": [");
        for (i, rel) in self.relations.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"len\": {}, \"tree\": ",
                rel.name, rel.len
            );
            match &rel.tree {
                Some(t) => out.push_str(&t.to_json()),
                None => out.push_str("null"),
            }
            let perms: Vec<String> = rel
                .index_perms
                .iter()
                .map(|p| {
                    let cols: Vec<String> = p.iter().map(usize::to_string).collect();
                    format!("[{}]", cols.join(", "))
                })
                .collect();
            let _ = write!(out, ", \"index_perms\": [{}]", perms.join(", "));
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Totals across every tree-backed relation: `(keys, buried
    /// subtrees, abandoned bytes)` — the headline "how sparse did the
    /// database get" figures.
    pub fn totals(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for rel in self.relations.iter().filter_map(|r| r.tree.as_ref()) {
            t.0 += rel.keys;
            t.1 += rel.graveyard_len;
            t.2 += rel.abandoned_bytes;
        }
        t
    }
}
