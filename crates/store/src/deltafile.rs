//! On-disk graph deltas: the `+ u v` / `- u v` edge-delta file format and
//! its application to a base graph.
//!
//! A delta file is the dynamic-graph companion of a snapshot: one
//! operation per line — `+ u v` adds the undirected edge `(u, v)`, `- u v`
//! removes it; blank lines and `#` comments are skipped. Operations apply
//! **in file order** through a [`DeltaView`], so a later line can undo an
//! earlier one and only the *net* delta survives ([`AppliedDelta`] reports
//! the canonical net lists, which the index patches of a served `update`
//! and the target check of `protect --incremental` read).

use crate::delta::DeltaView;
use crate::error::StoreError;
use std::path::Path;
use tpp_graph::{Edge, Graph, NeighborAccess, NodeId};

/// One edge operation of a delta file, in file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    /// `+ u v`: add the edge.
    Add(Edge),
    /// `- u v`: remove the edge.
    Remove(Edge),
}

/// A parsed edge-delta file: the operation list, still unvalidated against
/// any graph (validation happens at [`GraphDelta::apply`] time, when the
/// base's node range and edge set are known).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Operations in file order.
    pub ops: Vec<DeltaOp>,
}

/// The result of applying a [`GraphDelta`]: the mutated graph and the
/// canonical **net** delta (a removal undone by a later addition appears
/// in neither list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedDelta {
    /// The base graph with the whole delta applied.
    pub graph: Graph,
    /// Net removed edges, canonical sorted order.
    pub removed: Vec<Edge>,
    /// Net added edges, canonical sorted order.
    pub added: Vec<Edge>,
}

impl GraphDelta {
    /// Parses the `+ u v` / `- u v` line format. Line numbers in errors
    /// are 1-based.
    pub fn parse(text: &str) -> Result<Self, StoreError> {
        let mut ops = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let op = fields.next().expect("non-empty trimmed line has a field");
            if op != "+" && op != "-" {
                return Err(StoreError::Ingest(format!(
                    "line {}: unknown op {op:?} (expected \"+\" or \"-\")",
                    lineno + 1
                )));
            }
            let mut endpoint = |name: &str| -> Result<NodeId, StoreError> {
                fields
                    .next()
                    .ok_or_else(|| {
                        StoreError::Ingest(format!("line {}: missing {name}", lineno + 1))
                    })?
                    .parse::<NodeId>()
                    .map_err(|e| {
                        StoreError::Ingest(format!("line {}: bad {name}: {e}", lineno + 1))
                    })
            };
            let u = endpoint("first endpoint")?;
            let v = endpoint("second endpoint")?;
            if u == v {
                return Err(StoreError::Ingest(format!(
                    "line {}: self-loop ({u}, {v})",
                    lineno + 1
                )));
            }
            if fields.next().is_some() {
                return Err(StoreError::Ingest(format!(
                    "line {}: trailing fields after edge",
                    lineno + 1
                )));
            }
            let e = Edge::new(u, v);
            ops.push(if op == "+" {
                DeltaOp::Add(e)
            } else {
                DeltaOp::Remove(e)
            });
        }
        Ok(GraphDelta { ops })
    }

    /// Reads and parses a delta file from disk.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        Self::parse(&std::fs::read_to_string(path)?)
    }

    /// Renders the delta back to the line format (round-trips through
    /// [`parse`](Self::parse)).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            let (sign, e) = match op {
                DeltaOp::Add(e) => ('+', e),
                DeltaOp::Remove(e) => ('-', e),
            };
            out.push_str(&format!("{sign} {} {}\n", e.u(), e.v()));
        }
        out
    }

    /// `true` when the delta holds no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Replays the operations in file order as an overlay over `base` and
    /// returns the view: the mutated graph without a copy. Its
    /// [`DeltaView::deleted_edges`] / [`DeltaView::added_edges`] are the
    /// canonical net delta.
    ///
    /// Every operation must be effective: adding a present edge, removing
    /// an absent one, or touching a node outside `base`'s range is an
    /// error — a delta that disagrees with the graph it claims to mutate
    /// is stale, and silently skipping would desynchronize the net lists
    /// from what the incremental plan repair assumes.
    pub fn overlay<B: NeighborAccess>(&self, base: B) -> Result<DeltaView<B>, StoreError> {
        let nodes = base.node_count();
        let mut view = DeltaView::new(base);
        for op in &self.ops {
            let e = match op {
                DeltaOp::Add(e) | DeltaOp::Remove(e) => *e,
            };
            if (e.u() as usize) >= nodes || (e.v() as usize) >= nodes {
                return Err(StoreError::InvalidEdge {
                    u: e.u(),
                    v: e.v(),
                    nodes,
                });
            }
            let effective = match op {
                DeltaOp::Add(_) => view.add_edge(e),
                DeltaOp::Remove(_) => view.delete_edge(e),
            };
            if !effective {
                let verb = match op {
                    DeltaOp::Add(_) => "add already-present",
                    DeltaOp::Remove(_) => "remove absent",
                };
                return Err(StoreError::Ingest(format!("cannot {verb} edge {e}")));
            }
        }
        Ok(view)
    }

    /// Applies the operations in file order to `base` and returns the
    /// mutated graph plus the canonical net delta: [`Self::overlay`],
    /// materialized into an owned [`Graph`].
    pub fn apply(&self, base: &Graph) -> Result<AppliedDelta, StoreError> {
        let view = self.overlay(base)?;
        Ok(AppliedDelta {
            graph: view.to_graph(),
            removed: view.deleted_edges(),
            added: view.added_edges(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Graph {
        Graph::from_edges([(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)])
    }

    #[test]
    fn parse_apply_and_net_lists() {
        let d = GraphDelta::parse("# comment\n\n- 0 2\n+ 1 3\n").unwrap();
        assert_eq!(d.ops.len(), 2);
        let applied = d.apply(&base()).unwrap();
        assert!(!applied.graph.has_edge(0, 2));
        assert!(applied.graph.has_edge(1, 3));
        assert_eq!(applied.removed, vec![Edge::new(0, 2)]);
        assert_eq!(applied.added, vec![Edge::new(1, 3)]);
    }

    #[test]
    fn later_ops_net_out_earlier_ones() {
        let d = GraphDelta::parse("- 0 2\n+ 0 2\n+ 1 3\n- 1 3\n").unwrap();
        let applied = d.apply(&base()).unwrap();
        assert_eq!(applied.graph, base());
        assert!(applied.removed.is_empty());
        assert!(applied.added.is_empty());
    }

    #[test]
    fn text_round_trip() {
        let d = GraphDelta::parse("+ 1 3\n- 2 3\n").unwrap();
        assert_eq!(GraphDelta::parse(&d.to_text()).unwrap(), d);
    }

    #[test]
    fn rejects_malformed_lines() {
        for (text, needle) in [
            ("* 0 1\n", "unknown op"),
            ("+ 0\n", "missing second endpoint"),
            ("+ 0 x\n", "bad second endpoint"),
            ("+ 0 1 2\n", "trailing fields"),
            ("+ 3 3\n", "self-loop"),
        ] {
            let err = GraphDelta::parse(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text:?}: {err}");
            assert!(err.contains("line 1"), "{text:?}: {err}");
        }
    }

    #[test]
    fn rejects_ineffective_and_out_of_range_ops() {
        let g = base();
        let absent = GraphDelta::parse("- 1 3\n").unwrap();
        assert!(absent
            .apply(&g)
            .unwrap_err()
            .to_string()
            .contains("remove absent"));
        let present = GraphDelta::parse("+ 0 1\n").unwrap();
        assert!(present
            .apply(&g)
            .unwrap_err()
            .to_string()
            .contains("add already-present"));
        let out_of_range = GraphDelta::parse("+ 0 9\n").unwrap();
        assert!(out_of_range
            .apply(&g)
            .unwrap_err()
            .to_string()
            .contains("invalid edge"));
    }
}
