//! Breadth-first traversal, connectivity, and shortest-path utilities.

use crate::access::NeighborAccess;
use crate::edge::NodeId;
use crate::graph::Graph;
use std::collections::VecDeque;

/// Distance value for unreachable nodes in [`bfs_distances`].
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances (in hops) from `src` to every node.
/// Unreachable nodes get [`UNREACHABLE`].
#[must_use]
pub fn bfs_distances<G: NeighborAccess>(g: &G, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::with_capacity(64);
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Shortest-path length (hops) between `src` and `dst`, or `None` when
/// disconnected. Early-exits once `dst` is settled.
#[must_use]
pub fn shortest_path_len(g: &Graph, src: NodeId, dst: NodeId) -> Option<u32> {
    if src == dst {
        return Some(0);
    }
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::with_capacity(64);
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                if v == dst {
                    return Some(du + 1);
                }
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    None
}

/// Connected-component labelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `labels[u]` is the component index of node `u` (dense, `0..count`).
    pub labels: Vec<usize>,
    /// Number of connected components.
    pub count: usize,
    /// Component sizes, indexed by component label.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Label of the largest component (ties broken by lowest label).
    #[must_use]
    pub fn largest(&self) -> usize {
        self.sizes
            .iter()
            .enumerate()
            .max_by_key(|&(i, &s)| (s, usize::MAX - i))
            .map_or(0, |(i, _)| i)
    }

    /// Node ids belonging to the largest component.
    #[must_use]
    pub fn largest_component_nodes(&self) -> Vec<NodeId> {
        let target = self.largest();
        self.labels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == target)
            .map(|(n, _)| n as NodeId)
            .collect()
    }
}

/// Computes connected components with iterative BFS.
#[must_use]
pub fn connected_components(g: &Graph) -> Components {
    let n = g.node_count();
    let mut labels = vec![usize::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = VecDeque::new();
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        let comp = sizes.len();
        sizes.push(0);
        labels[start] = comp;
        queue.push_back(start as NodeId);
        while let Some(u) = queue.pop_front() {
            sizes[comp] += 1;
            for &v in g.neighbors(u) {
                if labels[v as usize] == usize::MAX {
                    labels[v as usize] = comp;
                    queue.push_back(v);
                }
            }
        }
    }
    Components {
        labels,
        count: sizes.len(),
        sizes,
    }
}

/// `true` when the graph is connected (an empty graph counts as connected).
#[must_use]
pub fn is_connected(g: &Graph) -> bool {
    g.node_count() <= 1 || connected_components(g).count == 1
}

/// Graph eccentricity-based diameter (longest shortest path) of the
/// **largest component**. `O(V * (V + E))`; intended for small graphs.
#[must_use]
pub fn diameter(g: &Graph) -> u32 {
    let mut best = 0;
    for u in g.nodes() {
        let d = bfs_distances(g, u);
        for &x in &d {
            if x != UNREACHABLE && x > best {
                best = x;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path5() -> Graph {
        // 0 - 1 - 2 - 3 - 4
        Graph::from_edges([(0u32, 1u32), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_on_path() {
        let g = path5();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = path5();
        g.ensure_node(6); // 5 and 6 isolated
        let d = bfs_distances(&g, 0);
        assert_eq!(d[5], UNREACHABLE);
        assert_eq!(d[6], UNREACHABLE);
    }

    #[test]
    fn shortest_path_cases() {
        let g = path5();
        assert_eq!(shortest_path_len(&g, 0, 4), Some(4));
        assert_eq!(shortest_path_len(&g, 3, 3), Some(0));
        let mut g2 = g.clone();
        g2.ensure_node(5);
        assert_eq!(shortest_path_len(&g2, 0, 5), None);
    }

    #[test]
    fn components_two_islands() {
        let g = Graph::from_edges([(0u32, 1u32), (1, 2), (3, 4)]);
        let c = connected_components(&g);
        assert_eq!(c.count, 2);
        assert_eq!(c.sizes, vec![3, 2]);
        assert_eq!(c.labels[0], c.labels[2]);
        assert_ne!(c.labels[0], c.labels[3]);
        assert_eq!(c.largest(), 0);
        assert_eq!(c.largest_component_nodes(), vec![0, 1, 2]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn singleton_and_empty_connectivity() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        assert!(!is_connected(&Graph::new(2)));
        assert!(is_connected(&path5()));
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&path5()), 4);
        let cycle = Graph::from_edges([(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(diameter(&cycle), 2);
        assert_eq!(diameter(&Graph::new(3)), 0);
    }

    #[test]
    fn largest_component_tie_breaks_low_label() {
        let g = Graph::from_edges([(0u32, 1u32), (2, 3)]);
        let c = connected_components(&g);
        assert_eq!(c.largest(), 0);
    }
}
