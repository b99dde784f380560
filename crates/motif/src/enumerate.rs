//! Enumeration and counting of target subgraphs.
//!
//! All functions assume **phase 1 has already happened**: the target link
//! `(u, v)` is absent from the graph (they also behave correctly if it is
//! still present — the target edge itself is never part of an instance — but
//! the paper's semantics are defined on the target-free graph).
//!
//! Complexity matches the paper's analysis (§IV): for a target `t = (u, v)`
//! counting is `O(d_u · d_v)`-flavoured neighborhood work.
//!
//! **k-paths meet in the middle.** A simple `u ⤳ v` path of `k` edges is
//! split at its node `m` after `⌊k/2⌋` edges (hop-constrained s–t path
//! enumeration: Peng et al., PVLDB 2019; Sun et al., PathEnum, SIGMOD
//! 2021). Every left leg `u ⤳ m` of `⌊k/2⌋` edges is recorded in a bucket
//! keyed by `m`; then every right leg `v ⤳ m` of `⌈k/2⌉` edges is joined
//! with the left legs in `m`'s bucket, and a pair is kept when the two
//! legs' interior nodes are disjoint. Both legs avoid `u` and `v`, so every
//! kept pair is one simple path, and each path is found exactly once (at
//! its one split node). The cost is the legs' degree work — for kpath4,
//! `Σ_{a ∈ N(u)} d_a + Σ_{c ∈ N(v)} d_c` — plus the output: no per-pair
//! intersection and no final-hop `has_edge`. The buckets live in a
//! reusable [`PathJoin`] (a per-node head array plus a touched list, reset
//! after each target), so a multi-target caller allocates nothing per
//! target.

use crate::instance::MotifInstance;
use crate::pattern::Motif;
use tpp_graph::{Edge, NeighborAccess, NodeId};

/// Longest half-path of a supported k-path (`⌈5/2⌉` edges).
const MAX_LEG: usize = 3;

/// Longest supported k-path (`Motif::KPath(k)`, `k ∈ 2..=5`).
const MAX_K: usize = 5;

/// Reusable bucket scratch of the k-path half-path join (see the module
/// docs): left legs chained per meeting node, reset after each target.
#[derive(Debug, Default)]
pub(crate) struct PathJoin {
    /// Per node: 1 + the newest left leg ending there, 0 for none.
    head: Vec<u32>,
    /// Per left leg: 1 + the previous leg in the same bucket, 0 for none.
    next: Vec<u32>,
    /// Interior nodes of every left leg (`⌊k/2⌋ - 1` per leg), in leg order.
    interior: Vec<NodeId>,
    /// Meeting nodes whose `head` entry is set.
    touched: Vec<NodeId>,
}

impl PathJoin {
    /// Calls `emit` once per simple `u ⤳ v` path of exactly `k` edges
    /// whose interior nodes avoid `u`, `v` and each other, with the path's
    /// edges (in path order from each end, not sorted).
    ///
    /// # Panics
    /// Panics if `k` is outside `2..=5`.
    fn for_each_k_path<G: NeighborAccess, F: FnMut(&[Edge])>(
        &mut self,
        g: &G,
        u: NodeId,
        v: NodeId,
        k: usize,
        emit: &mut F,
    ) {
        assert!((2..=MAX_K).contains(&k), "unsupported k-path length {k}");
        let (left, right) = (k / 2, k - k / 2);
        let stride = left - 1;
        if self.head.len() < g.node_count() {
            self.head.resize(g.node_count(), 0);
        }
        let PathJoin {
            head,
            next,
            interior,
            touched,
        } = self;

        // Left legs u ⤳ m, bucketed by their meeting node m.
        let mut nodes = [0 as NodeId; MAX_LEG];
        walk_legs(g, u, left, [u, v], &mut nodes, 0, &mut |leg| {
            let m = leg[stride] as usize;
            interior.extend_from_slice(&leg[..stride]);
            if head[m] == 0 {
                touched.push(m as NodeId);
            }
            next.push(head[m]);
            head[m] = next.len() as u32;
        });

        // Right legs v ⤳ m, joined with m's bucket.
        if !touched.is_empty() {
            let mut edges = [Edge::new(0, 1); MAX_K];
            walk_legs(g, v, right, [u, v], &mut nodes, 0, &mut |leg| {
                let m = leg[right - 1];
                let mut id = head[m as usize];
                if id == 0 {
                    return;
                }
                let mut prev = v;
                for (slot, &n) in edges[left..].iter_mut().zip(leg) {
                    *slot = Edge::new(prev, n);
                    prev = n;
                }
                let inner = &leg[..right - 1];
                while id != 0 {
                    let l = id as usize - 1;
                    let mids = &interior[l * stride..(l + 1) * stride];
                    if mids.iter().all(|a| !inner.contains(a)) {
                        let mut prev = u;
                        for (slot, &n) in edges.iter_mut().zip(mids.iter().chain([&m])) {
                            *slot = Edge::new(prev, n);
                            prev = n;
                        }
                        emit(&edges[..k]);
                    }
                    id = next[l];
                }
            });
        }

        for &m in touched.iter() {
            head[m as usize] = 0;
        }
        touched.clear();
        next.clear();
        interior.clear();
    }
}

/// Walks every simple leg of exactly `len` edges out of `from` whose nodes
/// after `from` avoid `fence` and each other, handing `f` those nodes in
/// leg order (the last one is the leg's far end). `nodes[..depth]` holds
/// the leg walked so far.
fn walk_legs<G: NeighborAccess, F: FnMut(&[NodeId])>(
    g: &G,
    from: NodeId,
    len: usize,
    fence: [NodeId; 2],
    nodes: &mut [NodeId; MAX_LEG],
    depth: usize,
    f: &mut F,
) {
    for &n in g.neighbors(from) {
        if fence.contains(&n) || nodes[..depth].contains(&n) {
            continue;
        }
        nodes[depth] = n;
        if depth + 1 == len {
            f(&nodes[..len]);
        } else {
            walk_legs(g, n, len, fence, nodes, depth + 1, f);
        }
    }
}

/// Calls `emit` once per target subgraph of `motif` for target `(u, v)`
/// with the instance's edges (distinct, in no particular order). `join`
/// is the k-path bucket scratch, reused across targets.
pub(crate) fn for_each_target_subgraph<G: NeighborAccess, F: FnMut(&[Edge])>(
    g: &G,
    u: NodeId,
    v: NodeId,
    motif: Motif,
    join: &mut PathJoin,
    mut emit: F,
) {
    match motif {
        Motif::Triangle => enumerate_triangles(g, u, v, emit),
        Motif::Rectangle => enumerate_rectangles(g, u, v, emit),
        Motif::RecTri => enumerate_rectris(g, u, v, emit),
        Motif::KPath(k) => join.for_each_k_path(g, u, v, k as usize, &mut emit),
    }
}

/// Predicted cost of enumerating (or counting) the target subgraphs of
/// `motif` for target `(u, v)`, in adjacency entries read — the unit of
/// `tpp_exec::Parallelism::steal_spans` weights. A triangle enumeration
/// intersects the two endpoint lists, so it reads about `deg(u) + deg(v)`
/// entries. Every longer motif walks paths through the endpoints'
/// neighbors, so its cost is estimated by the 2-hop mass
/// `Σ_{w ∈ N(u), N(v)} (deg(w) + 1)` — a floor for k-paths past 3 edges,
/// whose joins read further. A node outside `g` has degree 0.
#[must_use]
pub fn enumeration_cost<G: NeighborAccess>(g: &G, u: NodeId, v: NodeId, motif: Motif) -> usize {
    let n = g.node_count();
    let ends = [u, v].into_iter().filter(|&x| (x as usize) < n);
    let hop: usize = match motif {
        Motif::Triangle | Motif::KPath(2) => ends.map(|x| g.degree(x)).sum(),
        _ => ends
            .flat_map(|x| g.neighbors(x))
            .map(|&w| g.degree(w) + 1)
            .sum(),
    };
    hop + 1
}

/// Enumerates all target subgraphs of `motif` for target `(u, v)`.
///
/// `target_idx` is threaded through to the produced instances so callers
/// building a multi-target index keep ownership information.
#[must_use]
pub fn enumerate_target_subgraphs<G: NeighborAccess>(
    g: &G,
    u: NodeId,
    v: NodeId,
    motif: Motif,
    target_idx: usize,
) -> Vec<MotifInstance> {
    let mut out = Vec::new();
    for_each_target_subgraph(g, u, v, motif, &mut PathJoin::default(), |edges| {
        out.push(MotifInstance::new(target_idx, edges.to_vec()));
    });
    out
}

/// Counts target subgraphs without materializing them.
///
/// This is the similarity `s(∅, t)` of the paper for a single target.
#[must_use]
pub fn count_target_subgraphs<G: NeighborAccess>(
    g: &G,
    u: NodeId,
    v: NodeId,
    motif: Motif,
) -> usize {
    count_with(g, u, v, motif, &mut PathJoin::default())
}

/// [`count_target_subgraphs`] over a caller-held join scratch.
fn count_with<G: NeighborAccess>(
    g: &G,
    u: NodeId,
    v: NodeId,
    motif: Motif,
    join: &mut PathJoin,
) -> usize {
    let mut n = 0usize;
    match motif {
        Motif::Triangle => g.for_each_common_neighbor(u, v, |_| n += 1),
        _ => for_each_target_subgraph(g, u, v, motif, join, |_| n += 1),
    }
    n
}

/// Triangle instances: one per common neighbor `w`, edges `{(u,w), (w,v)}`.
fn enumerate_triangles<G: NeighborAccess, F: FnMut(&[Edge])>(
    g: &G,
    u: NodeId,
    v: NodeId,
    mut emit: F,
) {
    g.for_each_common_neighbor(u, v, |w| {
        emit(&[Edge::new(u, w), Edge::new(w, v)]);
    });
}

/// Rectangle instances: one per 3-length path `u – a – b – v` with all four
/// nodes distinct, edges `{(u,a), (a,b), (b,v)}`.
///
/// Ordered pairs `(a, b)` and `(b, a)` describe different paths with
/// different edge sets, so no deduplication is needed. A rectangle is
/// symmetric in `u` and `v`, so the walk starts from the endpoint whose
/// neighbours' degree sum (the adjacency entries the walk reads) is
/// smaller, ties to `u`: a target at a hub is walked from its other end.
/// Either start emits the same instance edge sets.
fn enumerate_rectangles<G: NeighborAccess, F: FnMut(&[Edge])>(
    g: &G,
    u: NodeId,
    v: NodeId,
    mut emit: F,
) {
    let reach = |x: NodeId| -> usize { g.neighbors(x).iter().map(|&a| g.degree(a)).sum() };
    let (start, end) = if reach(v) < reach(u) { (v, u) } else { (u, v) };
    for &a in g.neighbors(start) {
        if a == end {
            continue; // would require the deleted target edge's endpoint
        }
        for &b in g.neighbors(a) {
            if b == start || b == end || b == a {
                continue;
            }
            if g.has_edge(b, end) {
                emit(&[Edge::new(start, a), Edge::new(a, b), Edge::new(b, end)]);
            }
        }
    }
}

/// RecTri instances (Fig. 1c): a 2-path `u – w – v` plus a 3-path sharing the
/// intermediate node `w`. For each common neighbor `w`, the sharing 3-path is
/// either `u – x – w – v` (x adjacent to u and w) or `u – w – x – v`
/// (x adjacent to w and v); the instance is the union of the two paths'
/// edges: 4 edges total.
fn enumerate_rectris<G: NeighborAccess, F: FnMut(&[Edge])>(
    g: &G,
    u: NodeId,
    v: NodeId,
    mut emit: F,
) {
    let mut commons = Vec::new();
    g.for_each_common_neighbor(u, v, |w| commons.push(w));
    for &w in &commons {
        let (e_uw, e_wv) = (Edge::new(u, w), Edge::new(w, v));
        // 3-path u – x – w – v shares w: x ∈ N(u) ∩ N(w), x ∉ {u, v, w}.
        g.for_each_common_neighbor(u, w, |x| {
            if x != v && x != u && x != w {
                emit(&[e_uw, e_wv, Edge::new(u, x), Edge::new(x, w)]);
            }
        });
        // 3-path u – w – x – v shares w: x ∈ N(w) ∩ N(v), x ∉ {u, v, w}.
        g.for_each_common_neighbor(w, v, |x| {
            if x != u && x != v && x != w {
                emit(&[e_uw, e_wv, Edge::new(w, x), Edge::new(x, v)]);
            }
        });
    }
}

/// Enumerates the target subgraphs of `motif` for target `(u, v)` that
/// **contain the edge `e`** — the localized discovery pass behind
/// incremental index maintenance.
///
/// Called on the post-insert graph (`e` present), this returns exactly the
/// instances the insertion of `e` created: instance validity depends only
/// on an instance's own edges, so the instances of `G + e` minus those of
/// `G` are precisely the ones through `e`. Cost is neighborhood-local to
/// `e`'s endpoints instead of a full re-enumeration.
///
/// `e = (u, v)` itself yields nothing: the target link is never part of an
/// instance.
#[must_use]
pub fn enumerate_target_subgraphs_through<G: NeighborAccess>(
    g: &G,
    u: NodeId,
    v: NodeId,
    motif: Motif,
    target_idx: usize,
    e: Edge,
) -> Vec<MotifInstance> {
    let mut out = Vec::new();
    for_each_target_subgraph_through(g, u, v, motif, e, |edges| {
        out.push(MotifInstance::new(target_idx, edges.to_vec()));
    });
    out
}

/// Calls `emit` once per target subgraph of `motif` for target `(u, v)`
/// that contains `e` (see [`enumerate_target_subgraphs_through`]), with
/// the instance's edges in no particular order.
pub(crate) fn for_each_target_subgraph_through<G: NeighborAccess, F: FnMut(&[Edge])>(
    g: &G,
    u: NodeId,
    v: NodeId,
    motif: Motif,
    e: Edge,
    mut emit: F,
) {
    if e == Edge::new(u, v) {
        return;
    }
    match motif {
        Motif::Triangle => enumerate_k_paths_through(g, u, v, 2, e, &mut emit),
        Motif::Rectangle => enumerate_k_paths_through(g, u, v, 3, e, &mut emit),
        Motif::RecTri => enumerate_rectris_through(g, u, v, e, &mut emit),
        Motif::KPath(k) => enumerate_k_paths_through(g, u, v, k as usize, e, &mut emit),
    }
}

/// Simple `k`-paths from `u` to `v` that traverse the edge `e`: for each
/// orientation of `e = (a, b)` and each position `i` the edge can occupy,
/// a prefix leg `u ⤳ a` of `i` edges and a suffix leg `b ⤳ v` of
/// `k - 1 - i` edges are enumerated depth-first over one shared node
/// stack (seeded with `u`, `v`, `a`, `b`), so the assembled walk is
/// simple. Each qualifying path contains `e` exactly once at one
/// (orientation, position), so no path is emitted twice. A path has at
/// most six nodes, so membership is a linear scan of the stack and no
/// scratch is sized by the graph.
fn enumerate_k_paths_through<G: NeighborAccess, F: FnMut(&[Edge])>(
    g: &G,
    u: NodeId,
    v: NodeId,
    k: usize,
    e: Edge,
    emit: &mut F,
) {
    debug_assert!(k >= 2, "k-path motifs start at k = 2");
    let (a, b) = (e.u(), e.v());
    let mut nodes: Vec<NodeId> = Vec::with_capacity(k + 4);
    nodes.extend([u, v, a, b]);
    let mut edges: Vec<Edge> = Vec::with_capacity(k);
    edges.push(e);
    for (s, t) in [(a, b), (b, a)] {
        // `s` sits at path position i (never the terminal node), `t` at
        // i + 1 (never the start): orientations touching u/v the wrong
        // way around cannot occur on a simple u ⤳ v path.
        if s == v || t == u {
            continue;
        }
        for i in 0..k {
            if (s == u) != (i == 0) || (t == v) != (i == k - 1) {
                continue;
            }
            dfs_leg(
                g,
                u,
                s,
                i,
                Some((t, v, k - 1 - i)),
                &mut nodes,
                &mut edges,
                emit,
            );
        }
    }
}

/// Depth-first enumeration of one simple-path leg from `current` to `goal`
/// in exactly `remaining` edges over interior nodes not yet on `nodes`
/// (the path's node stack, which holds both legs' terminals). On
/// completion, either recurses into `next_leg` (the suffix leg of a
/// through-path, sharing the same node stack and edge buffer) or emits
/// the assembled edge set.
#[allow(clippy::too_many_arguments)] // recursive DFS plumbing: shared node/edge stacks
fn dfs_leg<G: NeighborAccess, F: FnMut(&[Edge])>(
    g: &G,
    current: NodeId,
    goal: NodeId,
    remaining: usize,
    next_leg: Option<(NodeId, NodeId, usize)>,
    nodes: &mut Vec<NodeId>,
    edges: &mut Vec<Edge>,
    emit: &mut F,
) {
    if remaining == 0 {
        debug_assert_eq!(current, goal, "zero-length leg must start at its goal");
        match next_leg {
            Some((start, goal2, len2)) => {
                dfs_leg(g, start, goal2, len2, None, nodes, edges, emit);
            }
            None => emit(edges),
        }
        return;
    }
    if remaining == 1 {
        // The goal is already on the node stack, so the neighbor loop
        // below could never arrive: the final hop is an explicit
        // adjacency test.
        if g.has_edge(current, goal) {
            edges.push(Edge::new(current, goal));
            match next_leg {
                Some((start, goal2, len2)) => {
                    dfs_leg(g, start, goal2, len2, None, nodes, edges, emit);
                }
                None => emit(edges),
            }
            edges.pop();
        }
        return;
    }
    for &next in g.neighbors(current) {
        if nodes.contains(&next) {
            continue;
        }
        nodes.push(next);
        edges.push(Edge::new(current, next));
        dfs_leg(g, next, goal, remaining - 1, next_leg, nodes, edges, emit);
        edges.pop();
        nodes.pop();
    }
}

/// RecTri instances through `e`: every instance is a `(w, orientation, x)`
/// triple (see [`enumerate_rectris`]) whose four edges are pairwise
/// distinct, so `e` matches exactly one of the four edge slots — each slot
/// case below reconstructs the triples with `e` in that slot, and no
/// instance is emitted twice.
fn enumerate_rectris_through<G: NeighborAccess, F: FnMut(&[Edge])>(
    g: &G,
    u: NodeId,
    v: NodeId,
    e: Edge,
    emit: &mut F,
) {
    let (p, q) = (e.u(), e.v());
    let emit_a = |emit: &mut F, w: NodeId, x: NodeId| {
        emit(&[
            Edge::new(u, w),
            Edge::new(w, v),
            Edge::new(u, x),
            Edge::new(x, w),
        ]);
    };
    let emit_b = |emit: &mut F, w: NodeId, x: NodeId| {
        emit(&[
            Edge::new(u, w),
            Edge::new(w, v),
            Edge::new(w, x),
            Edge::new(x, v),
        ]);
    };
    for (s, t) in [(p, q), (q, p)] {
        if s == u {
            // Slot e = (u, w): every type-A and type-B triple of w is new.
            let w = t;
            if w != v && g.has_edge(w, v) {
                g.for_each_common_neighbor(u, w, |x| {
                    if x != v && x != u && x != w {
                        emit_a(emit, w, x);
                    }
                });
                g.for_each_common_neighbor(w, v, |x| {
                    if x != u && x != v && x != w {
                        emit_b(emit, w, x);
                    }
                });
            }
            // Slot e = (u, x) of a type-A triple: x fixed, w varies.
            let x = t;
            if x != v {
                g.for_each_common_neighbor(u, v, |w| {
                    if w != x && g.has_edge(x, w) {
                        emit_a(emit, w, x);
                    }
                });
            }
        } else if s == v {
            // Slot e = (w, v): every triple of w is new.
            let w = t;
            if w != u && g.has_edge(u, w) {
                g.for_each_common_neighbor(u, w, |x| {
                    if x != v && x != u && x != w {
                        emit_a(emit, w, x);
                    }
                });
                g.for_each_common_neighbor(w, v, |x| {
                    if x != u && x != v && x != w {
                        emit_b(emit, w, x);
                    }
                });
            }
            // Slot e = (x, v) of a type-B triple: x fixed, w varies.
            let x = t;
            if x != u {
                g.for_each_common_neighbor(u, v, |w| {
                    if w != x && g.has_edge(w, x) {
                        emit_b(emit, w, x);
                    }
                });
            }
        } else if t != u && t != v {
            // Neither endpoint is u or v: e can only be the (x, w) edge of
            // a type-A triple or the (w, x) edge of a type-B triple.
            let (x, w) = (s, t);
            if g.has_edge(u, w) && g.has_edge(w, v) && g.has_edge(u, x) {
                emit_a(emit, w, x);
            }
            let (w, x) = (s, t);
            if g.has_edge(u, w) && g.has_edge(w, v) && g.has_edge(x, v) {
                emit_b(emit, w, x);
            }
        }
    }
}

/// Whether the radius-1 target locality filter is **sound** for `motif`:
/// every instance of `motif` containing an edge `e = (p, q)` has at least
/// one target endpoint inside `ball1(e) = {p, q} ∪ N(p) ∪ N(q)`, so
/// targets with both endpoints outside the ball can be skipped without
/// enumerating. This turns a delta-sized update from
/// `O(|targets| · local)` into work local to `e`'s endpoints.
///
/// Soundness, per motif (instance edges are graph edges, so instance
/// adjacency implies ball membership; `a`/`b` are the target endpoints):
///
/// * `Triangle` (path `a–w–b`): both edges touch a target endpoint.
/// * `Rectangle` (path `a–x–y–b`): the middle edge `(x, y)` has
///   `a ∈ N(x)` via instance edge `(a, x)`; the legs touch directly.
/// * `KPath(k ≤ 4)` (path `a–n₁–…–b`): every edge is within one hop of a
///   terminal — e.g. in a 4-path, `(n₁, n₂)` has `a ∈ N(n₁)` and
///   `(n₂, n₃)` has `b ∈ N(n₃)`.
/// * `RecTri` (triple `{(a,w),(w,b),(a,x),(x,w)}` or mirrored): edges
///   incident to `a`/`b` qualify directly; `(x, w)` has `a ∈ N(x)` via
///   `(a, x)`, and `(w, x)` of the mirrored triple has `b ∈ N(x)` via
///   `(x, b)`.
/// * `KPath(5)` is the exception (`false` — no filter): the middle edge
///   `(n₂, n₃)` of `a–n₁–n₂–n₃–n₄–b` sits at distance 2 from **both**
///   terminals.
pub(crate) fn locality_filter_applies(motif: Motif) -> bool {
    !matches!(motif, Motif::KPath(k) if k >= 5)
}

/// Counts instances of `motif` for every target, returning per-target counts.
/// This is the vector of similarities `s(P, t)` evaluated on `g` as-is.
#[must_use]
pub fn count_all_targets<G: NeighborAccess>(g: &G, targets: &[Edge], motif: Motif) -> Vec<usize> {
    let mut join = PathJoin::default();
    targets
        .iter()
        .map(|t| count_with(g, t.u(), t.v(), motif, &mut join))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::Graph;

    /// Fig. 1(a)-style fixture: target (u, v) removed, two common neighbors.
    ///   u = 0, v = 1; w ∈ {2, 3} adjacent to both.
    fn two_triangle_graph() -> Graph {
        Graph::from_edges([(0u32, 2u32), (2, 1), (0, 3), (3, 1)])
    }

    #[test]
    fn triangle_counts_common_neighbors() {
        let g = two_triangle_graph();
        assert_eq!(count_target_subgraphs(&g, 0, 1, Motif::Triangle), 2);
        let inst = enumerate_target_subgraphs(&g, 0, 1, Motif::Triangle, 7);
        assert_eq!(inst.len(), 2);
        assert!(inst.iter().all(|i| i.matches_arity(Motif::Triangle)));
        assert!(inst.iter().all(|i| i.target_idx == 7));
        assert!(inst[0].contains(Edge::new(0, 2)) && inst[0].contains(Edge::new(1, 2)));
    }

    #[test]
    fn triangle_empty_when_no_common_neighbor() {
        let g = Graph::from_edges([(0u32, 2u32), (3, 1)]);
        assert_eq!(count_target_subgraphs(&g, 0, 1, Motif::Triangle), 0);
    }

    #[test]
    fn rectangle_single_path() {
        // u=0 - a=2 - b=3 - v=1
        let g = Graph::from_edges([(0u32, 2u32), (2, 3), (3, 1)]);
        assert_eq!(count_target_subgraphs(&g, 0, 1, Motif::Rectangle), 1);
        let inst = enumerate_target_subgraphs(&g, 0, 1, Motif::Rectangle, 0);
        assert_eq!(inst[0].edges().len(), 3);
        assert!(inst[0].contains(Edge::new(2, 3)));
    }

    #[test]
    fn rectangle_counts_ordered_paths() {
        // Two middle nodes 2, 3 both adjacent to u=0, v=1 and to each other:
        // paths 0-2-3-1 and 0-3-2-1 are distinct rectangles.
        let g = Graph::from_edges([(0u32, 2u32), (0, 3), (2, 3), (2, 1), (3, 1)]);
        assert_eq!(count_target_subgraphs(&g, 0, 1, Motif::Rectangle), 2);
    }

    #[test]
    fn rectangle_excludes_degenerate_paths() {
        // A walk that revisits u or v is not a rectangle. In the two-triangle
        // fixture every 3-walk from 0 to 1 passes through 0 or 1 again
        // (e.g. 0-2-1 is length 2, 0-2-0-3 revisits u), so no rectangle
        // instance exists even though triangles do.
        let g = two_triangle_graph();
        assert_eq!(count_target_subgraphs(&g, 0, 1, Motif::Rectangle), 0);
    }

    #[test]
    fn rectri_shares_intermediate_node() {
        // u=0, v=1, common neighbor w=2; x=3 adjacent to u and w
        // => 3-path 0-3-2-1 shares node 2 with 2-path 0-2-1.
        let g = Graph::from_edges([(0u32, 2u32), (2, 1), (0, 3), (3, 2)]);
        assert_eq!(count_target_subgraphs(&g, 0, 1, Motif::RecTri), 1);
        let inst = enumerate_target_subgraphs(&g, 0, 1, Motif::RecTri, 0);
        assert_eq!(inst[0].edges().len(), 4);
        for e in [
            Edge::new(0, 2),
            Edge::new(2, 1),
            Edge::new(0, 3),
            Edge::new(3, 2),
        ] {
            assert!(inst[0].contains(e), "missing edge {e}");
        }
    }

    #[test]
    fn rectri_both_orientations() {
        // w=2 common neighbor; x=3 adjacent to u and w (type A);
        // y=4 adjacent to w and v (type B).
        let g = Graph::from_edges([(0u32, 2u32), (2, 1), (0, 3), (3, 2), (2, 4), (4, 1)]);
        assert_eq!(count_target_subgraphs(&g, 0, 1, Motif::RecTri), 2);
    }

    #[test]
    fn rectri_excludes_endpoint_reuse() {
        // x must avoid {u, v, w}: a second common neighbor of (u, v) that is
        // also adjacent to w *is* allowed (it is a distinct node)...
        let g = Graph::from_edges([(0u32, 2u32), (2, 1), (0, 3), (3, 1), (2, 3)]);
        // w=2: type A x ∈ N(0) ∩ N(2) \ {1} = {3} -> 1 instance
        //      type B x ∈ N(2) ∩ N(1) \ {0} = {3} -> 1 instance
        // w=3: symmetric -> 2 more
        assert_eq!(count_target_subgraphs(&g, 0, 1, Motif::RecTri), 4);
    }

    #[test]
    fn counts_match_enumeration_sizes() {
        let g = tpp_graph::generators::erdos_renyi_gnp(40, 0.15, 13);
        for motif in Motif::ALL {
            for (u, v) in [(0u32, 1u32), (3, 9), (10, 20)] {
                let mut g2 = g.clone();
                g2.remove_edge(u, v); // phase 1
                let count = count_target_subgraphs(&g2, u, v, motif);
                let inst = enumerate_target_subgraphs(&g2, u, v, motif, 0);
                assert_eq!(count, inst.len(), "motif {motif} target ({u},{v})");
                // All instance edges must exist in the graph.
                for i in &inst {
                    assert!(i.edges().iter().all(|e| g2.contains(*e)));
                }
            }
        }
    }

    #[test]
    fn kpath2_equals_triangle_and_kpath3_equals_rectangle() {
        // The generalized path motif reproduces the paper's two base
        // patterns exactly — instance sets, not just counts.
        let g = tpp_graph::generators::erdos_renyi_gnp(30, 0.2, 44);
        for (u, v) in [(0u32, 1u32), (4, 9), (11, 23)] {
            let mut g2 = g.clone();
            g2.remove_edge(u, v);
            for (kpath, base) in [
                (Motif::KPath(2), Motif::Triangle),
                (Motif::KPath(3), Motif::Rectangle),
            ] {
                let mut a = enumerate_target_subgraphs(&g2, u, v, kpath, 0);
                let mut b = enumerate_target_subgraphs(&g2, u, v, base, 0);
                a.sort_by(|x, y| x.edges().cmp(y.edges()));
                b.sort_by(|x, y| x.edges().cmp(y.edges()));
                assert_eq!(a, b, "{kpath} != {base} at ({u},{v})");
            }
        }
    }

    #[test]
    fn rectangles_at_a_hub_match_from_either_end_and_kpath3() {
        // A hub linked to every node of a chorded ring, one hub link
        // hidden: the walk starts from the leaf for (hub, leaf) and for
        // (leaf, hub), and both equal the independent k-path join.
        let n = 60u32;
        let mut g = Graph::from_edges((1..n).map(|i| (0u32, i)));
        for i in 1..n {
            g.add_edge(i, i % (n - 1) + 1);
            g.add_edge(i, (i + 6) % (n - 1) + 1);
        }
        let leaf = 17u32;
        g.remove_edge(0, leaf);
        let sorted_edges = |u: NodeId, v: NodeId, motif: Motif| {
            let mut sets: Vec<Vec<Edge>> = enumerate_target_subgraphs(&g, u, v, motif, 0)
                .iter()
                .map(|i| i.edges().to_vec())
                .collect();
            sets.sort();
            sets
        };
        let from_hub = sorted_edges(0, leaf, Motif::Rectangle);
        assert!(from_hub.len() > 10, "{} rectangles", from_hub.len());
        assert_eq!(from_hub, sorted_edges(leaf, 0, Motif::Rectangle));
        assert_eq!(from_hub, sorted_edges(0, leaf, Motif::KPath(3)));
    }

    #[test]
    fn kpath4_counts_simple_paths_only() {
        // cycle 0-2-3-4-1 plus chords; the single 4-path 0-2-3-4-1.
        let g = Graph::from_edges([(0u32, 2u32), (2, 3), (3, 4), (4, 1)]);
        assert_eq!(count_target_subgraphs(&g, 0, 1, Motif::KPath(4)), 1);
        let inst = enumerate_target_subgraphs(&g, 0, 1, Motif::KPath(4), 0);
        assert_eq!(inst[0].edges().len(), 4);
        // A walk revisiting a node must not count: add edge (2,4) creating
        // walk 0-2-4-2-... which is not simple.
        let mut g2 = g.clone();
        g2.add_edge(2, 4);
        // New simple 4-paths? 0-2-4-...: from 4 need 2 more edges to 1
        // avoiding {0,1,2}: 4-3? then 3-1 missing. So still exactly... the
        // path 0-2-4-1 is length 3 not 4; 0-2-3-4-1 remains; plus none new.
        assert_eq!(count_target_subgraphs(&g2, 0, 1, Motif::KPath(4)), 1);
    }

    #[test]
    fn kpath5_on_long_cycle() {
        // 6-cycle: exactly one simple 5-path between adjacent nodes after
        // removing their direct edge.
        let mut g = tpp_graph::generators::cycle_graph(6);
        g.remove_edge(0, 1);
        assert_eq!(count_target_subgraphs(&g, 0, 1, Motif::KPath(5)), 1);
        assert_eq!(count_target_subgraphs(&g, 0, 1, Motif::KPath(4)), 0);
    }

    /// Sorted instance sets for set-difference comparison.
    fn sorted(mut v: Vec<MotifInstance>) -> Vec<MotifInstance> {
        v.sort_by(|x, y| x.edges().cmp(y.edges()));
        v
    }

    #[test]
    fn through_enumeration_is_the_insertion_difference() {
        // For every motif, every target, and a spread of inserted edges:
        // instances through e on G+e == instances(G+e) \ instances(G).
        let base = tpp_graph::generators::erdos_renyi_gnp(40, 0.12, 21);
        let targets = [(0u32, 1u32), (3, 9), (10, 20)];
        let inserts = [
            Edge::new(0, 5),   // incident to a target endpoint
            Edge::new(9, 14),  // incident to another target endpoint
            Edge::new(17, 31), // generic middle edge
            Edge::new(2, 39),  // touches the last node
        ];
        for motif in [
            Motif::Triangle,
            Motif::Rectangle,
            Motif::RecTri,
            Motif::KPath(4),
            Motif::KPath(5),
        ] {
            for &(u, v) in &targets {
                let mut g = base.clone();
                g.remove_edge(u, v);
                for &e in &inserts {
                    let mut g2 = g.clone();
                    if g2.contains(e) {
                        g2.remove_edge(e.u(), e.v());
                    }
                    let before = sorted(enumerate_target_subgraphs(&g2, u, v, motif, 0));
                    g2.add_edge(e.u(), e.v());
                    let after = sorted(enumerate_target_subgraphs(&g2, u, v, motif, 0));
                    let through =
                        sorted(enumerate_target_subgraphs_through(&g2, u, v, motif, 0, e));
                    let fresh: Vec<MotifInstance> = after
                        .iter()
                        .filter(|i| !before.contains(i))
                        .cloned()
                        .collect();
                    assert_eq!(
                        through, fresh,
                        "{motif} target ({u},{v}) insert {e}: through != difference"
                    );
                    assert!(
                        through.iter().all(|i| i.contains(e)),
                        "{motif}: every through-instance must contain {e}"
                    );
                    assert!(
                        through.windows(2).all(|w| w[0] != w[1]),
                        "{motif} insert {e}: duplicate through-instances"
                    );
                }
            }
        }
    }

    #[test]
    fn through_enumeration_of_target_edge_is_empty() {
        let g = two_triangle_graph();
        for motif in Motif::ALL {
            assert!(
                enumerate_target_subgraphs_through(&g, 0, 1, motif, 0, Edge::new(0, 1)).is_empty(),
                "{motif}: the target link is never part of an instance"
            );
        }
    }

    #[test]
    fn count_all_targets_vector() {
        let g = two_triangle_graph();
        let counts = count_all_targets(&g, &[Edge::new(0, 1), Edge::new(2, 3)], Motif::Triangle);
        assert_eq!(counts[0], 2);
        // (2,3): common neighbors of 2 and 3 = {0, 1}
        assert_eq!(counts[1], 2);
    }
}
