//! Plain-text edge-list parsing and serialization.
//!
//! Format: one edge per line, two whitespace-separated node ids. Blank lines
//! and lines starting with `#` or `%` (KONECT/SNAP header styles) are
//! ignored, except a `# nodes: N ...` header (the first line
//! [`write_edge_list`] emits), which sizes the graph to at least `N` nodes
//! so that isolated nodes past the last edge survive a round trip. Node
//! ids may be arbitrary non-negative integers; the graph is grown to the
//! maximum id seen.

use crate::access::NeighborAccess;
use crate::edge::NodeId;
use crate::error::GraphError;
use crate::graph::Graph;
use std::fmt::Write as _;
use std::path::Path;

/// Parses an edge list from a string.
///
/// # Errors
/// Returns [`GraphError::Parse`] with the offending 1-based line number on
/// malformed input, or [`GraphError::SelfLoop`] for `u u` lines.
pub fn parse_edge_list(input: &str) -> Result<Graph, GraphError> {
    let mut g = Graph::new(0);
    for (idx, raw) in input.lines().enumerate() {
        let line = raw.trim();
        let declared = declared_node_count(line).map_err(|reason| GraphError::Parse {
            line: idx + 1,
            reason,
        })?;
        if let Some(n) = declared {
            if n > 0 {
                g.ensure_node((n - 1) as NodeId);
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let u = parse_id(it.next(), idx + 1)?;
        let v = parse_id(it.next(), idx + 1)?;
        // Trailing columns (weights, timestamps) are tolerated and ignored.
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        g.ensure_node(u.max(v));
        g.add_edge(u, v);
    }
    Ok(g)
}

/// The node count declared by a `# nodes: N ...` header line, or `None`
/// for any other line (a header whose count is not a number is an
/// ordinary comment).
///
/// # Errors
/// A declared count beyond the [`NodeId`] range.
pub fn declared_node_count(line: &str) -> Result<Option<usize>, String> {
    let Some(count) = line
        .trim()
        .strip_prefix("# nodes:")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|tok| tok.parse::<u64>().ok())
    else {
        return Ok(None);
    };
    if count > u64::from(NodeId::MAX) + 1 {
        return Err(format!(
            "declared node count {count} exceeds the node id range"
        ));
    }
    Ok(Some(count as usize))
}

fn parse_id(token: Option<&str>, line: usize) -> Result<NodeId, GraphError> {
    let tok = token.ok_or_else(|| GraphError::Parse {
        line,
        reason: "expected two node ids".into(),
    })?;
    tok.parse::<NodeId>().map_err(|e| GraphError::Parse {
        line,
        reason: format!("invalid node id {tok:?}: {e}"),
    })
}

/// Serializes a graph to edge-list text (canonical order, one edge per line).
#[must_use]
pub fn write_edge_list<G: NeighborAccess>(g: &G) -> String {
    let mut out = String::with_capacity(g.edge_count() * 12);
    let _ = writeln!(out, "# nodes: {} edges: {}", g.node_count(), g.edge_count());
    for u in g.node_ids() {
        for &v in g.neighbors(u).iter().filter(|&&v| u < v) {
            let _ = writeln!(out, "{u} {v}");
        }
    }
    out
}

/// Reads an edge list from a file path.
///
/// # Errors
/// I/O failures are surfaced as [`GraphError::Parse`] at line 0; content
/// errors as in [`parse_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let text = std::fs::read_to_string(path.as_ref()).map_err(|e| GraphError::Parse {
        line: 0,
        reason: format!("io error reading {}: {e}", path.as_ref().display()),
    })?;
    parse_edge_list(&text)
}

/// Writes an edge list to a file path.
///
/// # Errors
/// I/O failures are surfaced as [`GraphError::Parse`] at line 0.
pub fn write_edge_list_file<G: NeighborAccess, P: AsRef<Path>>(
    g: &G,
    path: P,
) -> Result<(), GraphError> {
    std::fs::write(path.as_ref(), write_edge_list(g)).map_err(|e| GraphError::Parse {
        line: 0,
        reason: format!("io error writing {}: {e}", path.as_ref().display()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_list() {
        let g = parse_edge_list("0 1\n1 2\n2 0\n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# comment\n% konect header\n\n  0 1  \n1 2 0.75\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn header_keeps_trailing_isolated_nodes() {
        let mut g = parse_edge_list("0 1\n1 2\n0 2\n").unwrap();
        g.ensure_node(4);
        let text = write_edge_list(&g);
        assert!(text.starts_with("# nodes: 5 edges: 3\n"), "{text}");
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(back.node_count(), 5);
        assert_eq!(back, g);
        // The header is a lower bound: edges past it still grow the graph.
        let g = parse_edge_list("# nodes: 2 edges: 1\n0 5\n").unwrap();
        assert_eq!(g.node_count(), 6);
        // Other comments, and headers without a count, stay comments.
        let g = parse_edge_list("# Nodes: 9\n# nodes: many\n0 1\n").unwrap();
        assert_eq!(g.node_count(), 2);
        let err = parse_edge_list("0 1\n# nodes: 9999999999 edges: 0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err:?}");
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = parse_edge_list("0 1\n1 0\n0 1\n").unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_edge_list("0 1\nnot numbers\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        let err = parse_edge_list("0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_self_loops() {
        assert!(matches!(
            parse_edge_list("3 3\n"),
            Err(GraphError::SelfLoop { node: 3 })
        ));
    }

    #[test]
    fn round_trip() {
        let g = parse_edge_list("0 1\n1 2\n5 2\n").unwrap();
        let text = write_edge_list(&g);
        let g2 = parse_edge_list(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn file_round_trip() {
        let g = parse_edge_list("0 1\n1 2\n").unwrap();
        let dir = std::env::temp_dir().join("tpp-graph-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        write_edge_list_file(&g, &path).unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn missing_file_is_reported() {
        let err = read_edge_list_file("/nonexistent/definitely/missing.txt").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 0, .. }));
    }
}
