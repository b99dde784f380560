//! [`PartitionedCoverageIndex`]: the coverage index — the incidence
//! structure between candidate protector edges and alive target subgraphs.
//!
//! This is the data structure behind every greedy algorithm in the paper:
//! the dissimilarity gain of deleting edge `p` is exactly the number of
//! alive instances containing `p` (`Δ_p`), and deleting `p` kills those
//! instances. Because phase 1 fixes the instance universe (edge deletions
//! never *create* instances), a deletion only ever shrinks the index —
//! which is also the combinatorial heart of the monotonicity and
//! submodularity proofs (Lemmas 1–4).
//!
//! The index is **flat**. (The type keeps the name of its earlier
//! node-range-sharded layout.) A build gives every edge that sits in an
//! instance a dense `u32` id, in canonical [`Edge`] order, and lays out
//! four arrays:
//!
//! * the **instance arena**: instance `id` owns the edge ids
//!   `motif.edges_per_instance()` wide at `id * stride`, plus one
//!   owning-target `u32` per instance;
//! * the **postings**: every edge's instance ids, ascending, in one array
//!   cut by an offset table — built by one count pass, a prefix sum and a
//!   fill over the enumerated instances, with no `Vec` per edge;
//! * the **alive counts**: one `u32` per edge id, `Δ_p` itself, so `gain`
//!   is one map lookup and one array read;
//! * the alive flags and per-target similarities.
//!
//! A commit walks the deleted edge's posting, flips the alive flags of the
//! instances it kills and decrements the counts of their edges — array
//! writes, microseconds per pick, so it runs on the calling thread.
//! Lemma 5's candidate list (the edges with a non-zero count) is derived
//! from the counts when it is read; nothing is compacted on commit.
//!
//! What a build lays out never changes after it, except by an insertion,
//! so it sits behind one [`Arc`]: the edge table, the postings, the arena,
//! the targets. Cloning an index — the served protect's per-request copy
//! of a registry index — copies only the mutable state: alive flags,
//! per-target counts and per-edge counts.
//! [`insert_edge`](PartitionedCoverageIndex::insert_edge) appends through
//! [`Arc::make_mut`]: new edges take ids after the built ones and new
//! postings go to a small per-edge overflow.
//! [`compact`](PartitionedCoverageIndex::compact) lays the index out again
//! from its alive instances, with the same fill, so an index that a served
//! `update` patches keeps neither dead instances nor overflow.
//!
//! Every result is **bit-identical for every thread count**: instances
//! are numbered in target order, edge ids follow canonical order, and
//! every posting ascends.

use crate::enumerate::PathJoin;
use crate::pattern::Motif;
use std::sync::Arc;
use tpp_exec::Parallelism;
use tpp_graph::{Edge, FastMap, NeighborAccess, NodeId};

/// Index id of a motif instance inside a [`PartitionedCoverageIndex`].
pub type InstanceId = u32;

/// What a build lays out: shared by every clone of an index, and changed
/// only by [`PartitionedCoverageIndex::insert_edge`].
#[derive(Debug, Clone)]
struct Layout {
    motif: Motif,
    targets: Vec<Edge>,
    /// Inverted target map: node → indexes of targets with that endpoint.
    /// Lets [`insert_edge`](PartitionedCoverageIndex::insert_edge) find the
    /// targets whose instances a new edge can touch by probing the edge's
    /// radius-1 ball (degree-sized) instead of scanning the target list.
    targets_by_node: FastMap<NodeId, Vec<u32>>,
    /// Edge id → edge. The first `posting_offsets.len() - 1` ids are the
    /// built edges, in canonical order; insertions append after them.
    edges: Vec<Edge>,
    /// Edge → edge id.
    ids: FastMap<Edge, u32>,
    /// The instance arena: instance `id` owns the edge ids
    /// `instance_edges[id * stride..(id + 1) * stride]`, `stride =
    /// motif.edges_per_instance()`, in the order the enumerator gave them.
    instance_edges: Vec<u32>,
    /// Owning target of every instance.
    instance_target: Vec<u32>,
    /// Built edge `e`'s instance ids are
    /// `postings[posting_offsets[e]..posting_offsets[e + 1]]`, ascending.
    posting_offsets: Vec<usize>,
    postings: Vec<InstanceId>,
    /// Postings of the instances insertions appended, per edge id. Their
    /// ids exceed every built id, so a built posting followed by its
    /// overflow still ascends.
    appended: FastMap<u32, Vec<InstanceId>>,
}

impl Layout {
    fn stride(&self) -> usize {
        self.motif.edges_per_instance()
    }

    /// The edge ids of instance `id`: its stride of the arena.
    #[inline]
    fn instance(&self, id: usize) -> &[u32] {
        let stride = self.stride();
        &self.instance_edges[id * stride..(id + 1) * stride]
    }

    /// Edges with a built posting (the canonical prefix of `edges`).
    fn built_edges(&self) -> usize {
        self.posting_offsets.len() - 1
    }

    /// Edge id `e`'s built posting and its appended overflow.
    fn posting_parts(&self, e: u32) -> [&[InstanceId]; 2] {
        let i = e as usize;
        let built = if i < self.built_edges() {
            &self.postings[self.posting_offsets[i]..self.posting_offsets[i + 1]]
        } else {
            &[]
        };
        [built, self.appended.get(&e).map_or(&[][..], Vec::as_slice)]
    }

    /// Every instance id containing edge id `e`, ascending.
    fn posting(&self, e: u32) -> impl Iterator<Item = InstanceId> + '_ {
        let [built, appended] = self.posting_parts(e);
        built.iter().chain(appended).copied()
    }
}

/// One span of targets' instances under span-local edge ids: what the
/// build's enumeration writes, and what the fill lays out.
#[derive(Default)]
struct Fragment {
    /// Local edge ids of every instance, a stride each.
    instance_edges: Vec<u32>,
    instance_target: Vec<u32>,
    /// Instances per target of the span, in target order.
    per_target: Vec<usize>,
    /// Local edge id → edge.
    edges: Vec<Edge>,
    /// Local edge id → how many of the fragment's instances hold it. An
    /// edge counted 0 is left out of the layout.
    counts: Vec<u32>,
}

/// Per-worker enumeration scratch, allocated once per worker, not once
/// per span or target: the k-path join's buckets and the span's edge →
/// local-id table.
#[derive(Default)]
struct Scratch {
    join: PathJoin,
    local: FastMap<Edge, u32>,
}

impl Fragment {
    /// Appends one instance of target `target`, its edges in the order
    /// the enumerator gives them, numbering edges the span has not seen
    /// yet.
    fn push_instance(&mut self, local: &mut FastMap<Edge, u32>, edges: &[Edge], target: u32) {
        for &e in edges {
            let next = self.edges.len() as u32;
            let id = *local.entry(e).or_insert(next);
            if id == next {
                self.edges.push(e);
                self.counts.push(0);
            }
            self.counts[id as usize] += 1;
            self.instance_edges.push(id);
        }
        self.instance_target.push(target);
    }
}

/// Incidence index between edges and alive motif instances for a fixed
/// (graph, target set, motif) triple, in the flat layout the module docs
/// describe.
///
/// Scans are pure reads (`gain` is an `O(1)` count lookup,
/// `gain_vector`/`gain_split` walk one posting);
/// [`delete_edge`](Self::delete_edge) and the batch
/// [`delete_edges`](Self::delete_edges) write the alive flags and counts.
#[derive(Debug, Clone)]
pub struct PartitionedCoverageIndex {
    layout: Arc<Layout>,
    alive: Vec<bool>,
    per_target_alive: Vec<usize>,
    alive_total: usize,
    /// Alive instances per edge id: `Δ_p`.
    edge_alive: Vec<u32>,
    /// The handle whose recorder counts commits and insertions. Clones of
    /// the index share it.
    exec: Parallelism,
}

/// Rejects a graph that still contains a target edge: instances must not
/// lean on links the adversary cannot see.
///
/// # Panics
/// Panics if any target edge is still present in `g` (phase 1 not run).
fn assert_phase_one<G: NeighborAccess>(g: &G, targets: &[Edge]) {
    for t in targets {
        assert!(
            !g.has_edge(t.u(), t.v()),
            "target {t} still present: run phase 1 (delete targets) before indexing"
        );
    }
}

/// Builds the node → target-indexes inverted map (two entries per target,
/// one when the endpoints coincide — which [`Edge`] forbids anyway).
fn invert_targets(targets: &[Edge]) -> FastMap<NodeId, Vec<u32>> {
    let mut by_node: FastMap<NodeId, Vec<u32>> = FastMap::default();
    for (ti, t) in targets.iter().enumerate() {
        by_node.entry(t.u()).or_default().push(ti as u32);
        by_node.entry(t.v()).or_default().push(ti as u32);
    }
    by_node
}

impl PartitionedCoverageIndex {
    /// Builds the index over `g`, with target enumeration spread over
    /// `exec`. This is the one index builder; pass
    /// [`Parallelism::sequential`] to build on the calling thread. `parts`
    /// has no effect: it names the shard count of the earlier sharded
    /// layout, and the signature keeps it for existing callers.
    ///
    /// `g` must already have all targets removed (phase 1). Two phases:
    ///
    /// 1. **enumerate** — [`Parallelism::steal_spans`] cuts the target
    ///    list into contiguous spans of near-equal predicted enumeration
    ///    cost ([`enumeration_cost`](crate::enumeration_cost)), or runs it
    ///    inline as one span when the whole build is too small to pay for
    ///    a dispatch;
    ///    each span writes its instances into a span-local arena under
    ///    span-local edge ids, and counts how many instances hold each
    ///    edge;
    /// 2. **fill** — on the calling thread: the union of the spans' edges,
    ///    sorted canonically, gives the edge ids; a prefix sum over the
    ///    counts cuts the postings array; one pass over the instances, in
    ///    span order, fills it and the global arena.
    ///
    /// Spans are ascending target ranges, so instances are numbered in
    /// target order and every posting ascends: instance ids, edge ids,
    /// postings, counts and candidate lists are **bit-identical for every
    /// thread count** — pinned by the differential build tests. The build
    /// allocates in proportion to the targets and their instances, never
    /// to the graph. The handle's recorder also counts the index's
    /// commits (as [`set_parallelism`](Self::set_parallelism)).
    ///
    /// # Panics
    /// Panics if any target edge is still present in `g`.
    #[must_use]
    pub fn build_parallel<G: NeighborAccess + Sync>(
        g: &G,
        targets: &[Edge],
        motif: Motif,
        parts: usize,
        exec: &Parallelism,
    ) -> Self {
        let _ = parts;
        let stats = exec.recorder().stats();
        let build_span = tpp_obs::SpanTimer::counter(stats.map(|s| &s.index.build_ns));
        assert_phase_one(g, targets);

        // Spans are weighted by each target's predicted enumeration cost,
        // which also decides whether the build is worth a dispatch.
        let indexed: Vec<(u32, Edge)> = (0u32..).zip(targets.iter().copied()).collect();
        let weights = || {
            let weights: Vec<usize> = (targets.iter())
                .map(|t| crate::enumeration_cost(g, t.u(), t.v(), motif))
                .collect();
            Some(weights.into())
        };

        let enumerate_span =
            tpp_obs::SpanTimer::counter(stats.map(|s| &s.index.build_enumerate_ns));
        // Spans are claimed work-stealing and come back in span order —
        // which worker enumerated a span is scheduling noise; span order
        // is the deterministic target order.
        let fragments = exec.steal_spans(
            &indexed,
            weights,
            Scratch::default,
            |scratch: &mut Scratch, span: &[(u32, Edge)]| {
                let Scratch { join, local } = scratch;
                local.clear();
                let mut out = Fragment {
                    per_target: Vec::with_capacity(span.len()),
                    ..Fragment::default()
                };
                for &(ti, t) in span {
                    let before = out.instance_target.len();
                    crate::enumerate::for_each_target_subgraph(
                        g,
                        t.u(),
                        t.v(),
                        motif,
                        join,
                        |edges| out.push_instance(local, edges, ti),
                    );
                    out.per_target.push(out.instance_target.len() - before);
                }
                out
            },
        );
        enumerate_span.stop();

        let fill_span = tpp_obs::SpanTimer::counter(stats.map(|s| &s.index.build_merge_ns));
        let per_target_alive: Vec<usize> = fragments
            .iter()
            .flat_map(|f| f.per_target.iter().copied())
            .collect();
        debug_assert_eq!(per_target_alive.len(), targets.len());
        let built = Self::fill(
            motif,
            targets.to_vec(),
            invert_targets(targets),
            fragments,
            per_target_alive,
            exec.clone(),
        );
        fill_span.stop();
        if let Some(st) = stats {
            st.index.builds.inc();
        }
        build_span.stop();
        #[cfg(debug_assertions)]
        built.check_invariants();
        built
    }

    /// Lays `fragments` out, in order, as one index whose instances are
    /// all alive: edge ids from the canonically sorted union of the edges
    /// the fragments count, then count, prefix sum and fill.
    fn fill(
        motif: Motif,
        targets: Vec<Edge>,
        targets_by_node: FastMap<NodeId, Vec<u32>>,
        fragments: Vec<Fragment>,
        per_target_alive: Vec<usize>,
        exec: Parallelism,
    ) -> Self {
        let stride = motif.edges_per_instance();
        // Edge ids: the distinct edges the fragments count, numbered in
        // canonical order.
        let largest = fragments.iter().map(|f| f.edges.len()).max();
        let mut ids: FastMap<Edge, u32> = tpp_graph::fast_map_with_capacity(largest.unwrap_or(0));
        let mut edges: Vec<Edge> = Vec::new();
        for f in &fragments {
            for (&e, &c) in f.edges.iter().zip(&f.counts) {
                if c > 0 && ids.insert(e, 0).is_none() {
                    edges.push(e);
                }
            }
        }
        edges.sort_unstable();
        for (e, id) in edges.iter().zip(0u32..) {
            *ids.get_mut(e).expect("numbered above") = id;
        }

        // Count, then prefix sum: `posting_offsets[e + 1]` first holds
        // edge `e`'s posting length.
        let mut posting_offsets = vec![0usize; edges.len() + 1];
        let remaps: Vec<Vec<u32>> = fragments
            .iter()
            .map(|f| {
                let local = f.edges.iter().zip(&f.counts);
                local
                    .map(|(e, &c)| {
                        if c == 0 {
                            return u32::MAX;
                        }
                        let id = ids[e];
                        posting_offsets[id as usize + 1] += c as usize;
                        id
                    })
                    .collect()
            })
            .collect();
        for i in 1..posting_offsets.len() {
            posting_offsets[i] += posting_offsets[i - 1];
        }
        let edge_alive: Vec<u32> = posting_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as u32)
            .collect();

        // Fill, in fragment order: instance ids ascend, so every posting
        // does too. The first fragment's arena becomes the index's (the
        // others append to it) and is renumbered in place, so the fill
        // touches no fresh memory but the postings.
        let mut cursor = posting_offsets[..edges.len()].to_vec();
        let mut postings = vec![0 as InstanceId; posting_offsets[edges.len()]];
        let mut fragments = fragments.into_iter();
        let first = fragments.next().unwrap_or_default();
        let (mut instance_edges, mut instance_target) =
            (first.instance_edges, first.instance_target);
        let mut ends = vec![instance_target.len()];
        for f in fragments {
            instance_edges.extend_from_slice(&f.instance_edges);
            instance_target.extend_from_slice(&f.instance_target);
            ends.push(instance_target.len());
        }
        let mut start = 0;
        for (remap, &end) in remaps.iter().zip(&ends) {
            let span = instance_edges[start * stride..end * stride].chunks_exact_mut(stride);
            for (inst, id) in span.zip(start as InstanceId..) {
                for l in inst {
                    let e = remap[*l as usize];
                    *l = e;
                    let slot = &mut cursor[e as usize];
                    postings[*slot] = id;
                    *slot += 1;
                }
            }
            start = end;
        }
        let instances = instance_target.len();
        PartitionedCoverageIndex {
            layout: Arc::new(Layout {
                motif,
                targets,
                targets_by_node,
                edges,
                ids,
                instance_edges,
                instance_target,
                posting_offsets,
                postings,
                appended: FastMap::default(),
            }),
            alive: vec![true; instances],
            per_target_alive,
            alive_total: instances,
            edge_alive,
            exec,
        }
    }

    /// Lays the index out again from its alive instances, in id order,
    /// with the build's fill: dead instances, edges without an alive
    /// instance and the insertion overflow are dropped. Queries read the
    /// same before and after (instance ids are renumbered, their order
    /// kept). An index with no dead instance and no overflow is left as
    /// it is. The served `update` compacts every index it patches.
    pub fn compact(&mut self) {
        let layout = &*self.layout;
        if self.alive_total == layout.instance_target.len() && layout.appended.is_empty() {
            return;
        }
        let mut alive = Fragment {
            instance_edges: Vec::with_capacity(self.alive_total * layout.stride()),
            instance_target: Vec::with_capacity(self.alive_total),
            edges: layout.edges.clone(),
            counts: self.edge_alive.clone(),
            ..Fragment::default()
        };
        let live = (0..layout.instance_target.len()).filter(|&id| self.alive[id]);
        for id in live {
            alive.instance_edges.extend_from_slice(layout.instance(id));
            alive.instance_target.push(layout.instance_target[id]);
        }
        *self = Self::fill(
            layout.motif,
            layout.targets.clone(),
            layout.targets_by_node.clone(),
            vec![alive],
            std::mem::take(&mut self.per_target_alive),
            self.exec.clone(),
        );
    }

    /// Sets the handle whose recorder counts this index's commits and
    /// insertions. Deletions produce bit-identical state for every handle.
    pub fn set_parallelism(&mut self, exec: Parallelism) {
        self.exec = exec;
    }

    /// The motif this index was built for.
    #[must_use]
    pub fn motif(&self) -> Motif {
        self.layout.motif
    }

    /// The target set, in index order.
    #[must_use]
    pub fn targets(&self) -> &[Edge] {
        &self.layout.targets
    }

    /// Total similarity `s(P, T)`: alive instances across all targets.
    #[must_use]
    pub fn total_similarity(&self) -> usize {
        self.alive_total
    }

    /// Similarity of a single target: `s(P, t) = |W_t alive|`.
    #[must_use]
    pub fn target_similarity(&self, target_idx: usize) -> usize {
        self.per_target_alive[target_idx]
    }

    /// Per-target similarity vector.
    #[must_use]
    pub fn similarities(&self) -> &[usize] {
        &self.per_target_alive
    }

    /// Initial total similarity `s(∅, T)`: the instances in the arena,
    /// alive or dead (since the last [`compact`](Self::compact), if any).
    #[must_use]
    pub fn initial_similarity(&self) -> usize {
        self.layout.instance_target.len()
    }

    /// Dissimilarity gain `Δ_p`: `O(1)` lookup of the maintained alive
    /// count.
    #[must_use]
    pub fn gain(&self, p: Edge) -> usize {
        self.layout
            .ids
            .get(&p)
            .map_or(0, |&e| self.edge_alive[e as usize] as usize)
    }

    /// Split gain for CT/WT-Greedy: `(own, cross)` where `own` counts alive
    /// instances of `target_idx` containing `p` and `cross` counts alive
    /// instances of every other target containing `p`. The paper's score is
    /// `Δ_t^p = own + cross / C`, i.e. lexicographic `(own, cross)`.
    #[must_use]
    pub fn gain_split(&self, p: Edge, target_idx: usize) -> (usize, usize) {
        let (mut own, mut cross) = (0usize, 0usize);
        for id in self.alive_ids_of(p) {
            if self.layout.instance_target[id as usize] as usize == target_idx {
                own += 1;
            } else {
                cross += 1;
            }
        }
        (own, cross)
    }

    /// Per-target gain vector: entry `t` counts the alive instances of
    /// target `t` containing `p`. One pass over `p`'s posting.
    #[must_use]
    pub fn gain_vector(&self, p: Edge) -> Vec<usize> {
        let mut v = vec![0usize; self.layout.targets.len()];
        for id in self.alive_ids_of(p) {
            v[self.layout.instance_target[id as usize] as usize] += 1;
        }
        v
    }

    /// Length of `p`'s posting, dead entries included: what
    /// [`gain_vector`](Self::gain_vector) and
    /// [`alive_instance_ids`](Self::alive_instance_ids) walk.
    #[must_use]
    pub fn posting_len(&self, p: Edge) -> usize {
        let layout = &*self.layout;
        (layout.ids.get(&p)).map_or(0, |&e| {
            let [built, appended] = layout.posting_parts(e);
            built.len() + appended.len()
        })
    }

    /// The alive entries of `p`'s posting, in posting order.
    fn alive_ids_of(&self, p: Edge) -> impl Iterator<Item = InstanceId> + '_ {
        let layout = &*self.layout;
        let posting = layout.ids.get(&p).map(|&e| layout.posting(e));
        posting
            .into_iter()
            .flatten()
            .filter(|&id| self.alive[id as usize])
    }

    /// Ids of the **alive** instances containing `p` — `p`'s current gain
    /// set. Two candidates with disjoint gain sets break disjoint instances,
    /// which is exactly the batch-commit admission test in `tpp-core`.
    #[must_use]
    pub fn alive_instance_ids(&self, p: Edge) -> Vec<InstanceId> {
        self.alive_ids_of(p).collect()
    }

    /// Deletes edge `p`, killing every alive instance containing it.
    /// Returns the realized `Δ_p`. See [`delete_edges`](Self::delete_edges).
    pub fn delete_edge(&mut self, p: Edge) -> usize {
        self.delete_edges(&[p])[0]
    }

    /// Deletes a batch of edges, killing every alive instance containing
    /// any of them; returns the per-edge broken counts in input order
    /// (an instance containing several batch edges is charged to the first
    /// one in input order).
    ///
    /// For each edge, in input order: walk its posting, and for every
    /// alive instance on it flip the flag, drop its target's count and
    /// decrement the count of each of its edges. The result does not
    /// depend on the executor handle.
    pub fn delete_edges(&mut self, ps: &[Edge]) -> Vec<usize> {
        let Self {
            layout,
            alive,
            per_target_alive,
            alive_total,
            edge_alive,
            exec,
        } = self;
        let layout = &**layout;
        let broken_out: Vec<usize> = ps
            .iter()
            .map(|p| {
                let Some(&e) = layout.ids.get(p) else {
                    return 0;
                };
                let mut broken = 0usize;
                for id in layout.posting(e) {
                    let idx = id as usize;
                    if alive[idx] {
                        alive[idx] = false;
                        per_target_alive[layout.instance_target[idx] as usize] -= 1;
                        for &f in layout.instance(idx) {
                            edge_alive[f as usize] -= 1;
                        }
                        broken += 1;
                    }
                }
                broken
            })
            .collect();
        let killed: usize = broken_out.iter().sum();
        *alive_total -= killed;
        if let Some(st) = exec.recorder().stats() {
            st.index.commits.inc();
            st.index.instances_killed.record(killed as u64);
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
        broken_out
    }

    /// Applies an edge **insertion** to the index: localized enumeration
    /// around `e` (see
    /// [`enumerate_target_subgraphs_through`](crate::enumerate_target_subgraphs_through))
    /// discovers exactly the instances the insertion created, and each one
    /// is appended as a fresh alive instance: a new edge takes the next
    /// edge id, postings append to the overflow, counts increment. The
    /// mirror image of the kill-flag delete path: deletes only flip
    /// instances dead, inserts only append live ones, and neither
    /// renumbers existing instances. The shared layout is copied (through
    /// [`Arc::make_mut`]) only when an instance is found.
    ///
    /// `g` must be the **post-insert** graph (`e` already present); apply
    /// multi-edge deltas one edge at a time, each against the graph state
    /// containing every edge inserted so far, or instances spanning two
    /// new edges are discovered twice. Returns the number of instances
    /// discovered (the similarity increase).
    ///
    /// Queries and subsequent deletions on the updated index are
    /// indistinguishable from a rebuild on the mutated graph: counts,
    /// gains, and candidate lists agree exactly (instance *ids* may
    /// differ — a reinserted edge revives killed instances under fresh
    /// ids — which no query observes).
    ///
    /// # Panics
    /// Panics if `e` is absent from `g`, is one of the index's targets, or
    /// already participates in alive instances (a double insertion).
    pub fn insert_edge<G: NeighborAccess>(&mut self, g: &G, e: Edge) -> usize {
        assert!(
            g.has_edge(e.u(), e.v()),
            "insert_edge({e}) requires the post-insert graph: edge absent"
        );
        assert!(
            !self.layout.targets.contains(&e),
            "cannot insert target edge {e}: targets stay deleted (phase 1)"
        );
        // A genuinely new edge cannot already sit in an alive instance:
        // an alive count here means `e` was present (and indexed) before
        // the claimed insertion, and enumerating would double-count.
        assert!(
            self.gain(e) == 0,
            "insert_edge({e}): edge already participates in alive instances (double insertion)"
        );
        let layout = &*self.layout;
        let stride = layout.stride();
        // Radius-1 locality: only targets with an endpoint within one hop
        // of `e` can gain instances through it (sound for every motif but
        // KPath(5) — see `enumerate::locality_filter_applies`). Probing
        // the ball's nodes against the inverted target map keeps the cost
        // degree-local: O(deg(u) + deg(v)) map lookups instead of a scan
        // over every target.
        let tids: Vec<u32> = if crate::enumerate::locality_filter_applies(layout.motif) {
            let mut tids = Vec::new();
            for n in [e.u(), e.v()]
                .into_iter()
                .chain(g.neighbors(e.u()).iter().copied())
                .chain(g.neighbors(e.v()).iter().copied())
            {
                if let Some(hits) = layout.targets_by_node.get(&n) {
                    tids.extend_from_slice(hits);
                }
            }
            // Overlapping neighborhoods and two-endpoint hits duplicate
            // entries; instances append in ascending-target order either
            // way, matching the unfiltered scan.
            tids.sort_unstable();
            tids.dedup();
            tids
        } else {
            (0..layout.targets.len() as u32).collect()
        };
        // Enumerate first, so that the shared layout is copied only when
        // the insertion created an instance.
        let mut found: Vec<Edge> = Vec::new();
        let mut found_targets: Vec<u32> = Vec::new();
        for ti in tids {
            let t = layout.targets[ti as usize];
            crate::enumerate::for_each_target_subgraph_through(
                g,
                t.u(),
                t.v(),
                layout.motif,
                e,
                |edges| {
                    found.extend_from_slice(edges);
                    found_targets.push(ti);
                },
            );
        }
        let discovered = found_targets.len();
        if discovered > 0 {
            let Self {
                layout,
                alive,
                per_target_alive,
                alive_total,
                edge_alive,
                ..
            } = self;
            let layout = Arc::make_mut(layout);
            for (edges, &ti) in found.chunks_exact(stride).zip(&found_targets) {
                let id = layout.instance_target.len() as InstanceId;
                for &edge in edges {
                    let next = layout.edges.len() as u32;
                    let f = *layout.ids.entry(edge).or_insert(next);
                    if f == next {
                        layout.edges.push(edge);
                        edge_alive.push(0);
                    }
                    layout.instance_edges.push(f);
                    // `id` exceeds every existing id, so the posting stays
                    // ascending without a sort.
                    layout.appended.entry(f).or_default().push(id);
                    edge_alive[f as usize] += 1;
                }
                layout.instance_target.push(ti);
                alive.push(true);
                per_target_alive[ti as usize] += 1;
            }
            *alive_total += discovered;
        }
        if let Some(st) = self.exec.recorder().stats() {
            st.update.inserts.inc();
            st.update.instances_discovered.add(discovered as u64);
            st.update
                .postings_appended
                .add((discovered * stride) as u64);
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
        discovered
    }

    /// Edges participating in at least one alive instance, sorted
    /// canonically: the edges whose count is not 0, read off the counts.
    #[must_use]
    pub fn alive_candidate_edges(&self) -> Vec<Edge> {
        let layout = &*self.layout;
        let mut out: Vec<Edge> = layout
            .edges
            .iter()
            .zip(&self.edge_alive)
            .filter(|&(_, &c)| c > 0)
            .map(|(&e, _)| e)
            .collect();
        if layout.edges.len() > layout.built_edges() {
            out.sort_unstable();
        }
        out
    }

    /// All edges that ever participated in an instance (alive or dead,
    /// since the last [`compact`](Self::compact)), sorted.
    #[must_use]
    pub fn all_candidate_edges(&self) -> Vec<Edge> {
        let layout = &*self.layout;
        let mut out = layout.edges.clone();
        if layout.edges.len() > layout.built_edges() {
            out.sort_unstable();
        }
        out
    }

    /// Iterates alive instances as `(target index, sorted edges)`, in
    /// instance-id order (for reporting / verification).
    pub fn alive_instances(&self) -> impl Iterator<Item = (usize, Vec<Edge>)> + '_ {
        let layout = &*self.layout;
        (0..layout.instance_target.len())
            .filter(|&id| self.alive[id])
            .map(move |id| {
                let edges = layout.instance(id).iter();
                let mut edges: Vec<Edge> = edges.map(|&e| layout.edges[e as usize]).collect();
                edges.sort_unstable();
                (layout.instance_target[id] as usize, edges)
            })
    }

    /// Verifies internal consistency: counters vs alive flags, the edge
    /// table and its id map, every posting against the arena, and the
    /// per-edge counts against posting walks. Runs automatically after
    /// every deletion and insertion in debug builds; release rounds never
    /// pay this walk.
    pub fn check_invariants(&self) {
        let layout = &*self.layout;
        let instances = layout.instance_target.len();
        assert_eq!(self.alive.len(), instances, "alive arity");
        assert_eq!(
            layout.instance_edges.len(),
            instances * layout.stride(),
            "instance arena stride"
        );
        let alive_count = self.alive.iter().filter(|&&a| a).count();
        assert_eq!(alive_count, self.alive_total, "alive_total out of sync");
        let mut per_target = vec![0usize; layout.targets.len()];
        for (id, &ti) in layout.instance_target.iter().enumerate() {
            if self.alive[id] {
                per_target[ti as usize] += 1;
            }
        }
        assert_eq!(per_target, self.per_target_alive, "per-target out of sync");

        let edges = &layout.edges;
        assert!(layout.built_edges() <= edges.len(), "offset table arity");
        assert!(
            edges[..layout.built_edges()]
                .windows(2)
                .all(|w| w[0] < w[1]),
            "built edge ids out of canonical order"
        );
        assert_eq!(layout.ids.len(), edges.len(), "edge id map arity");
        assert_eq!(self.edge_alive.len(), edges.len(), "edge count arity");
        for id in 0..instances {
            let mut inst = layout.instance(id).to_vec();
            inst.sort_unstable();
            assert!(
                inst.windows(2).all(|w| w[0] != w[1]),
                "instance {id} holds an edge twice"
            );
        }
        let mut posted = 0usize;
        for (e, &edge) in (0u32..).zip(edges) {
            assert_eq!(layout.ids.get(&edge), Some(&e), "edge id of {edge}");
            let ids: Vec<InstanceId> = layout.posting(e).collect();
            assert!(!ids.is_empty(), "edge {edge} has no instance");
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "posting of {edge} not ascending"
            );
            for &id in &ids {
                assert!(
                    layout.instance(id as usize).contains(&e),
                    "posting of {edge} names instance {id}, which lacks it"
                );
            }
            let walked = ids.iter().filter(|&&id| self.alive[id as usize]).count();
            assert_eq!(
                walked, self.edge_alive[e as usize] as usize,
                "alive count of {edge} out of sync"
            );
            posted += ids.len();
        }
        assert_eq!(
            posted,
            layout.instance_edges.len(),
            "an instance edge is missing from its posting"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::count_all_targets;
    use tpp_graph::Graph;

    /// The index on the calling thread, as every sequential caller builds it.
    fn build_seq(g: &Graph, targets: &[Edge], motif: Motif) -> PartitionedCoverageIndex {
        build_on(g, targets, motif, 1)
    }

    /// The index built on a pool of `threads` workers.
    fn build_on(
        g: &Graph,
        targets: &[Edge],
        motif: Motif,
        threads: usize,
    ) -> PartitionedCoverageIndex {
        PartitionedCoverageIndex::build_parallel(g, targets, motif, 1, &Parallelism::new(threads))
    }

    fn fixture() -> (Graph, Vec<Edge>) {
        let mut g = tpp_graph::generators::holme_kim(80, 4, 0.5, 11);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 5), Edge::new(3, 7)];
        for t in &targets {
            g.remove_edge(t.u(), t.v());
        }
        (g, targets)
    }

    /// Fig. 2(a)-style shared-protector fixture for triangles:
    /// targets (0,1) and (0,2); node 3 adjacent to 0, 1, 2 so protector
    /// (0,3) participates in instances of both targets.
    fn shared_protector_graph() -> (Graph, Vec<Edge>) {
        let g = Graph::from_edges([(0u32, 3u32), (3, 1), (3, 2)]);
        (g, vec![Edge::new(0, 1), Edge::new(0, 2)])
    }

    #[test]
    fn build_counts_instances() {
        let (g, targets) = shared_protector_graph();
        for threads in [1usize, 3] {
            let idx = build_on(&g, &targets, Motif::Triangle, threads);
            assert_eq!(idx.total_similarity(), 2);
            assert_eq!(idx.target_similarity(0), 1);
            assert_eq!(idx.target_similarity(1), 1);
            assert_eq!(idx.initial_similarity(), 2);
            idx.check_invariants();
        }
    }

    #[test]
    fn gain_counts_cross_target_coverage() {
        let (g, targets) = shared_protector_graph();
        for threads in [1usize, 3] {
            let idx = build_on(&g, &targets, Motif::Triangle, threads);
            // (0,3) covers one instance of each target.
            assert_eq!(idx.gain(Edge::new(0, 3)), 2);
            assert_eq!(idx.gain(Edge::new(1, 3)), 1);
            assert_eq!(idx.gain(Edge::new(5, 6)), 0);
            assert_eq!(idx.gain_split(Edge::new(0, 3), 0), (1, 1));
            assert_eq!(idx.gain_split(Edge::new(1, 3), 0), (1, 0));
            assert_eq!(idx.gain_split(Edge::new(1, 3), 1), (0, 1));
            assert_eq!(idx.gain_vector(Edge::new(0, 3)), vec![1, 1]);
        }
    }

    #[test]
    fn delete_kills_instances_once() {
        let (g, targets) = shared_protector_graph();
        for threads in [1usize, 3] {
            let mut idx = build_on(&g, &targets, Motif::Triangle, threads);
            assert_eq!(idx.delete_edge(Edge::new(0, 3)), 2);
            assert_eq!(idx.total_similarity(), 0);
            assert_eq!(idx.delete_edge(Edge::new(1, 3)), 0, "already dead");
            assert_eq!(idx.gain(Edge::new(1, 3)), 0);
            idx.check_invariants();
        }
    }

    #[test]
    fn candidates_shrink_as_instances_die() {
        let (g, targets) = shared_protector_graph();
        for threads in [1usize, 3] {
            let mut idx = build_on(&g, &targets, Motif::Triangle, threads);
            assert_eq!(
                idx.all_candidate_edges(),
                vec![Edge::new(0, 3), Edge::new(1, 3), Edge::new(2, 3)]
            );
            idx.delete_edge(Edge::new(1, 3)); // kills target-0 instance
            assert_eq!(
                idx.alive_candidate_edges(),
                vec![Edge::new(0, 3), Edge::new(2, 3)]
            );
        }
    }

    #[test]
    #[should_panic(expected = "phase 1")]
    fn build_rejects_unremoved_targets() {
        let g = Graph::from_edges([(0u32, 1u32), (0, 2), (2, 1)]);
        let _ = build_seq(&g, &[Edge::new(0, 1)], Motif::Triangle);
    }

    #[test]
    #[should_panic(expected = "phase 1")]
    fn build_parallel_rejects_unremoved_targets() {
        let g = Graph::from_edges([(0u32, 1u32), (0, 2), (2, 1)]);
        let _ = build_on(&g, &[Edge::new(0, 1)], Motif::Triangle, 2);
    }

    #[test]
    fn deletion_gain_matches_recount() {
        // Property-style check on a random graph: Δ_p from the index equals
        // the recount difference from the graph.
        let mut g = tpp_graph::generators::erdos_renyi_gnp(30, 0.2, 99);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(4, 5)];
        for t in &targets {
            g.remove_edge(t.u(), t.v());
        }
        for motif in Motif::ALL {
            let before: usize = count_all_targets(&g, &targets, motif).iter().sum();
            for threads in [1usize, 3] {
                let idx = build_on(&g, &targets, motif, threads);
                assert_eq!(idx.total_similarity(), before);
                for p in idx.all_candidate_edges() {
                    let mut g2 = g.clone();
                    g2.remove_edge(p.u(), p.v());
                    let after: usize = count_all_targets(&g2, &targets, motif).iter().sum();
                    assert_eq!(
                        idx.gain(p),
                        before - after,
                        "motif {motif} t{threads} edge {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn alive_instances_iterator() {
        let (g, targets) = shared_protector_graph();
        for threads in [1usize, 3] {
            let mut idx = build_on(&g, &targets, Motif::Triangle, threads);
            assert_eq!(idx.alive_instances().count(), 2);
            idx.delete_edge(Edge::new(2, 3));
            assert_eq!(idx.alive_instances().count(), 1);
            assert_eq!(
                idx.alive_instances().next().unwrap(),
                (0, vec![Edge::new(0, 3), Edge::new(1, 3)])
            );
        }
    }

    #[test]
    fn maintained_gains_track_deletions() {
        // The O(1) gain counts must track an arbitrary deletion sequence
        // exactly (cross-checked against the posting walk in invariants).
        let mut g = tpp_graph::generators::erdos_renyi_gnp(24, 0.3, 7);
        let targets = vec![Edge::new(0, 1), Edge::new(2, 3)];
        for t in &targets {
            g.remove_edge(t.u(), t.v());
        }
        for threads in [1usize, 3] {
            let mut idx = build_on(&g, &targets, Motif::Triangle, threads);
            while let Some(&p) = idx.alive_candidate_edges().first() {
                let expect = idx.gain(p);
                assert!(expect > 0, "candidate list must only hold alive edges");
                assert_eq!(idx.delete_edge(p), expect);
                idx.check_invariants();
            }
            assert_eq!(idx.total_similarity(), 0);
            assert!(idx.alive_candidate_edges().is_empty());
        }
    }

    /// The hub workload (a hub linked to every leaf of a chorded ring, 40
    /// hub links hidden): every build over it is heavy enough to be
    /// pooled, and its hub links are shared by many targets' instances.
    fn pooled_fixture() -> (Graph, Vec<Edge>) {
        tpp_bench::fixtures::hub_released_workload(2400, 40)
    }

    /// [`build_on`], asserting that the build dispatched on the pool at
    /// every width above one (so the multi-span enumeration and the fill
    /// that merges its span arenas really ran).
    fn build_pooled(
        g: &Graph,
        targets: &[Edge],
        motif: Motif,
        threads: usize,
    ) -> PartitionedCoverageIndex {
        let recorder = tpp_obs::Recorder::enabled();
        let exec = Parallelism::new(threads).attach_recorder(recorder.clone());
        let idx = PartitionedCoverageIndex::build_parallel(g, targets, motif, 1, &exec);
        let dispatches = recorder.stats().unwrap().exec.dispatches.get();
        assert_eq!(
            dispatches > 0,
            threads > 1,
            "{motif} t{threads}: {dispatches} dispatches"
        );
        idx
    }

    /// Every build thread count reads exactly like the sequential build,
    /// which itself agrees with the brute-force recount.
    #[test]
    fn matches_monolithic_index_at_every_part_count() {
        let (g, targets) = pooled_fixture();
        for motif in Motif::ALL {
            let mono = build_seq(&g, &targets, motif);
            assert_eq!(mono.similarities(), count_all_targets(&g, &targets, motif));
            for threads in [2usize, 3, 7] {
                let idx = build_pooled(&g, &targets, motif, threads);
                assert_eq!(idx.total_similarity(), mono.total_similarity());
                assert_eq!(idx.similarities(), mono.similarities());
                assert_eq!(idx.all_candidate_edges(), mono.all_candidate_edges());
                assert_eq!(
                    idx.alive_candidate_edges(),
                    mono.alive_candidate_edges(),
                    "{motif} t{threads}"
                );
                for p in mono.alive_candidate_edges() {
                    assert_eq!(idx.gain(p), mono.gain(p), "{motif} gain({p})");
                    assert_eq!(idx.gain_vector(p), mono.gain_vector(p));
                    assert_eq!(idx.gain_split(p, 0), mono.gain_split(p, 0));
                    assert_eq!(idx.alive_instance_ids(p), mono.alive_instance_ids(p));
                }
                assert_eq!(idx.layout.postings, mono.layout.postings);
                assert_eq!(idx.layout.instance_edges, mono.layout.instance_edges);
                idx.check_invariants();
            }
        }
    }

    /// A full teardown driven by the sequential build breaks the same
    /// counts on indexes built and handled at every thread count.
    #[test]
    fn deletions_agree_with_monolithic_for_all_parts_and_threads() {
        let (g, targets) = pooled_fixture();
        let mut mono = build_seq(&g, &targets, Motif::Triangle);
        let mut others: Vec<PartitionedCoverageIndex> = Vec::new();
        for build_threads in [1usize, 4] {
            for threads in [1usize, 3] {
                let mut idx = build_pooled(&g, &targets, Motif::Triangle, build_threads);
                idx.set_parallelism(Parallelism::new(threads));
                others.push(idx);
            }
        }
        while let Some(&p) = mono.alive_candidate_edges().first() {
            let broken = mono.delete_edge(p);
            for idx in &mut others {
                assert_eq!(idx.delete_edge(p), broken, "delete({p})");
                assert_eq!(idx.total_similarity(), mono.total_similarity());
                assert_eq!(idx.alive_candidate_edges(), mono.alive_candidate_edges());
            }
        }
        assert_eq!(mono.total_similarity(), 0);
    }

    #[test]
    fn batch_delete_equals_sequential_on_disjoint_gain_sets() {
        let (g, targets) = fixture();
        let base = build_seq(&g, &targets, Motif::Triangle);
        // Assemble a batch with pairwise-disjoint gain sets, greedily.
        let mut batch: Vec<Edge> = Vec::new();
        let mut claimed: Vec<InstanceId> = Vec::new();
        for p in base.alive_candidate_edges() {
            let ids = base.alive_instance_ids(p);
            if !ids.is_empty() && ids.iter().all(|id| !claimed.contains(id)) {
                claimed.extend(ids);
                batch.push(p);
            }
            if batch.len() == 4 {
                break;
            }
        }
        assert!(batch.len() >= 2, "fixture must admit a real batch");

        let mut sequential = base.clone();
        let seq_broken: Vec<usize> = batch.iter().map(|&p| sequential.delete_edge(p)).collect();
        let mut batched = base.clone();
        assert_eq!(batched.delete_edges(&batch), seq_broken);
        assert_eq!(batched.total_similarity(), sequential.total_similarity());
        assert_eq!(
            batched.alive_candidate_edges(),
            sequential.alive_candidate_edges()
        );
    }

    #[test]
    fn overlapping_batch_charges_shared_instances_once() {
        // Two edges of the same triangle instance: the first in input order
        // gets the kill, the second breaks only what is left.
        let mut g = Graph::from_edges([(0u32, 1u32), (0, 2), (2, 1)]);
        g.remove_edge(0, 1);
        let mut idx = build_seq(&g, &[Edge::new(0, 1)], Motif::Triangle);
        let broken = idx.delete_edges(&[Edge::new(0, 2), Edge::new(1, 2)]);
        assert_eq!(broken, vec![1, 0]);
        assert_eq!(idx.total_similarity(), 0);
    }

    #[test]
    fn empty_and_unknown_edges_are_harmless() {
        let (g, targets) = fixture();
        let mut idx = build_on(&g, &targets, Motif::Triangle, 3);
        let before = idx.total_similarity();
        let mono = build_seq(&g, &targets, Motif::Triangle);
        assert_eq!(idx.gain(Edge::new(70, 79)), mono.gain(Edge::new(70, 79)));
        assert_eq!(idx.gain(Edge::new(1000, 2000)), 0, "out-of-range edge");
        assert_eq!(idx.delete_edges(&[]), Vec::<usize>::new());
        assert_eq!(idx.delete_edge(Edge::new(1000, 2000)), 0);
        assert_eq!(idx.total_similarity(), before);
        let empty = build_on(&Graph::new(0), &[], Motif::Triangle, 4);
        assert_eq!(empty.total_similarity(), 0);
        assert!(empty.alive_candidate_edges().is_empty());
        empty.check_invariants();
    }

    /// Test-local reference index: the instances of
    /// `enumerate_target_subgraphs` numbered in target order, each edge's
    /// ascending id list, and alive flags.
    struct Reference {
        postings: std::collections::BTreeMap<Edge, Vec<InstanceId>>,
        alive: Vec<bool>,
    }

    impl Reference {
        fn new(g: &Graph, targets: &[Edge], motif: Motif) -> Self {
            let mut r = Reference {
                postings: std::collections::BTreeMap::new(),
                alive: Vec::new(),
            };
            for (ti, t) in targets.iter().enumerate() {
                let found =
                    crate::enumerate::enumerate_target_subgraphs(g, t.u(), t.v(), motif, ti);
                for inst in found {
                    let id = r.alive.len() as InstanceId;
                    for &e in inst.edges() {
                        r.postings.entry(e).or_default().push(id);
                    }
                    r.alive.push(true);
                }
            }
            r
        }

        fn alive_instance_ids(&self, p: Edge) -> Vec<InstanceId> {
            let ids = self.postings.get(&p).into_iter().flatten().copied();
            ids.filter(|&id| self.alive[id as usize]).collect()
        }

        fn delete_edge(&mut self, p: Edge) -> usize {
            let ids = self.alive_instance_ids(p);
            for &id in &ids {
                self.alive[id as usize] = false;
            }
            ids.len()
        }
    }

    #[test]
    fn recorder_counts_builds_and_commits_without_changing_results() {
        let (g, targets) = fixture();
        let rec = tpp_obs::Recorder::enabled();
        let exec = tpp_exec::Parallelism::new(2).attach_recorder(rec.clone());
        let mut observed =
            PartitionedCoverageIndex::build_parallel(&g, &targets, Motif::Triangle, 4, &exec);
        let mut reference = Reference::new(&g, &targets, Motif::Triangle);
        let st = rec.stats().unwrap();
        assert_eq!(st.index.builds.get(), 1);
        assert!(
            st.index.build_ns.get()
                >= st.index.build_enumerate_ns.get() + st.index.build_merge_ns.get()
        );
        assert_eq!(
            observed.all_candidate_edges(),
            reference.postings.keys().copied().collect::<Vec<_>>()
        );
        while let Some(&p) = observed.alive_candidate_edges().first() {
            assert_eq!(
                observed.alive_instance_ids(p),
                reference.alive_instance_ids(p)
            );
            assert_eq!(observed.delete_edge(p), reference.delete_edge(p));
        }
        assert_eq!(observed.total_similarity(), 0);
        assert!(!reference.alive.contains(&true));
        assert_eq!(st.index.commits.get(), st.index.instances_killed.count());
        assert!(st.index.commits.get() > 0);
        assert_eq!(
            st.index.instances_killed.sum(),
            observed.initial_similarity() as u64,
            "a full teardown kills every instance once"
        );
    }

    /// The first `count` canonical non-edges of `g` that avoid `targets`
    /// (deterministic scan order, so failures replay).
    fn non_edges(g: &Graph, targets: &[Edge], count: usize) -> Vec<Edge> {
        let n = g.node_count() as u32;
        let mut out = Vec::new();
        'scan: for u in 0..n {
            for v in (u + 1)..n {
                let e = Edge::new(u, v);
                if !g.contains(e) && !targets.contains(&e) {
                    out.push(e);
                    if out.len() == count {
                        break 'scan;
                    }
                }
            }
        }
        out
    }

    /// Queries of `idx` must be indistinguishable from `rebuilt` (a fresh
    /// build on the mutated graph): counts, candidates, and gains.
    fn assert_matches_rebuild(idx: &PartitionedCoverageIndex, rebuilt: &PartitionedCoverageIndex) {
        assert_eq!(idx.total_similarity(), rebuilt.total_similarity());
        assert_eq!(idx.similarities(), rebuilt.similarities());
        assert_eq!(idx.alive_candidate_edges(), rebuilt.alive_candidate_edges());
        for p in rebuilt.alive_candidate_edges() {
            assert_eq!(idx.gain(p), rebuilt.gain(p), "gain({p})");
            assert_eq!(idx.gain_vector(p), rebuilt.gain_vector(p));
        }
        idx.check_invariants();
    }

    #[test]
    fn insert_then_query_equals_rebuild_for_all_parts() {
        let (g, targets) = fixture();
        // A deterministic non-edge batch (includes target-endpoint-incident
        // edges: the scan starts at node 0).
        let adds = non_edges(&g, &targets, 3);
        assert_eq!(adds.len(), 3);
        for motif in Motif::ALL {
            for threads in [1usize, 3, 8] {
                let mut idx = build_on(&g, &targets, motif, threads);
                let mut g2 = g.clone();
                for &e in &adds {
                    assert!(!g2.contains(e), "fixture add {e} must be a non-edge");
                    g2.add_edge(e.u(), e.v());
                    idx.insert_edge(&g2, e);
                }
                let rebuilt = build_on(&g2, &targets, motif, threads);
                assert_matches_rebuild(&idx, &rebuilt);
            }
        }
    }

    #[test]
    fn insert_returns_the_similarity_increase() {
        let (g, targets) = fixture();
        let mut idx = build_seq(&g, &targets, Motif::Triangle);
        let before = idx.total_similarity();
        let e = non_edges(&g, &targets, 1)[0];
        let mut g2 = g.clone();
        g2.add_edge(e.u(), e.v());
        let discovered = idx.insert_edge(&g2, e);
        assert_eq!(idx.total_similarity(), before + discovered);
        // Deleting the inserted edge undoes exactly its contribution.
        assert_eq!(idx.delete_edge(e), discovered);
        assert_eq!(idx.total_similarity(), before);
    }

    #[test]
    fn interleaved_insert_delete_matches_rebuild() {
        let (g, targets) = fixture();
        let mut idx = build_seq(&g, &targets, Motif::Triangle);
        let mut live = g.clone();
        // Delete a committed protector, insert a new edge, delete another,
        // then reinsert the first deleted edge. `add` is picked from the
        // original graph's non-edges so it cannot collide with `kill1`
        // (which becomes a non-edge of `live` after its deletion).
        let add = non_edges(&g, &targets, 1)[0];
        let kill1 = idx.alive_candidate_edges()[0];
        idx.delete_edge(kill1);
        live.remove_edge(kill1.u(), kill1.v());
        live.add_edge(add.u(), add.v());
        idx.insert_edge(&live, add);
        let kill2 = *idx
            .alive_candidate_edges()
            .last()
            .expect("candidates remain");
        idx.delete_edge(kill2);
        live.remove_edge(kill2.u(), kill2.v());
        live.add_edge(kill1.u(), kill1.v());
        idx.insert_edge(&live, kill1);
        let rebuilt = build_seq(&live, &targets, Motif::Triangle);
        assert_matches_rebuild(&idx, &rebuilt);
    }

    #[test]
    #[should_panic(expected = "post-insert graph")]
    fn insert_rejects_absent_edges() {
        let (g, targets) = fixture();
        let mut idx = build_seq(&g, &targets, Motif::Triangle);
        let absent = non_edges(&g, &targets, 1)[0];
        let _ = idx.insert_edge(&g, absent);
    }

    #[test]
    #[should_panic(expected = "target edge")]
    fn insert_rejects_target_edges() {
        let (mut g, targets) = fixture();
        let mut idx = build_seq(&g, &targets, Motif::Triangle);
        g.add_edge(0, 1);
        let _ = idx.insert_edge(&g, Edge::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "double insertion")]
    fn insert_rejects_already_indexed_edges() {
        let (g, targets) = fixture();
        let mut idx = build_seq(&g, &targets, Motif::Triangle);
        let present = idx.alive_candidate_edges()[0];
        let _ = idx.insert_edge(&g, present);
    }

    #[test]
    fn insert_records_update_stats() {
        let (g, targets) = fixture();
        let rec = tpp_obs::Recorder::enabled();
        let mut idx = build_seq(&g, &targets, Motif::Triangle);
        idx.set_parallelism(Parallelism::new(1).attach_recorder(rec.clone()));
        let e = non_edges(&g, &targets, 1)[0];
        let mut g2 = g.clone();
        g2.add_edge(e.u(), e.v());
        let discovered = idx.insert_edge(&g2, e);
        let st = rec.stats().unwrap();
        assert_eq!(st.update.inserts.get(), 1);
        assert_eq!(st.update.instances_discovered.get(), discovered as u64);
        assert_eq!(
            st.update.postings_appended.get(),
            (discovered * Motif::Triangle.edges_per_instance()) as u64
        );
    }

    /// The alive instances as sorted `(target, edges)` pairs: instance
    /// ids differ between a patched index and a rebuild, the set does not.
    fn alive_set(idx: &PartitionedCoverageIndex) -> Vec<(usize, Vec<Edge>)> {
        let mut set: Vec<(usize, Vec<Edge>)> = idx.alive_instances().collect();
        set.sort();
        set
    }

    #[test]
    fn alive_instances_after_deletes_and_insert_equal_a_fresh_build() {
        let (g, targets) = fixture();
        let add = non_edges(&g, &targets, 1)[0];
        for motif in Motif::ALL {
            let mut idx = build_on(&g, &targets, motif, 3);
            assert!(idx
                .alive_instances()
                .all(|(_, edges)| edges.len() == motif.edges_per_instance()
                    && edges.windows(2).all(|w| w[0] < w[1])));
            let mut live = g.clone();
            let candidates = idx.alive_candidate_edges();
            for &p in candidates.iter().step_by(7).take(3) {
                idx.delete_edge(p);
                live.remove_edge(p.u(), p.v());
            }
            live.add_edge(add.u(), add.v());
            idx.insert_edge(&live, add);
            let rebuilt = build_on(&live, &targets, motif, 3);
            assert_eq!(alive_set(&idx), alive_set(&rebuilt), "{motif}");
            assert_eq!(idx.alive_instances().count(), idx.total_similarity());
        }
    }

    /// A clone shares the built layout and copies only the counts; the
    /// first insertion that finds an instance gives the clone its own
    /// layout and leaves the original as it was.
    #[test]
    fn clones_share_the_layout_until_an_insertion() {
        let (g, targets) = fixture();
        let original = build_seq(&g, &targets, Motif::Triangle);
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.layout, &copy.layout));
        let p = copy.alive_candidate_edges()[0];
        let gain = copy.delete_edge(p);
        assert!(Arc::ptr_eq(&original.layout, &copy.layout), "commits");
        // Reinserting `p` revives its instances under fresh ids.
        assert_eq!(copy.insert_edge(&g, p), gain);
        assert!(!Arc::ptr_eq(&original.layout, &copy.layout));
        assert!(original.layout.appended.is_empty());
        assert!(!copy.layout.appended.is_empty());
        let fresh = build_seq(&g, &targets, Motif::Triangle);
        assert_matches_rebuild(&original, &fresh);
        assert_matches_rebuild(&copy, &fresh);
    }

    /// `compact` after deletions and insertions leaves exactly the arena a
    /// fresh build on the mutated graph has: no dead instance, no
    /// overflow, the same edge table, and the same answers.
    #[test]
    fn compact_leaves_what_a_fresh_build_has() {
        let (g, targets) = fixture();
        let adds = non_edges(&g, &targets, 3);
        for motif in Motif::ALL {
            let mut idx = build_seq(&g, &targets, motif);
            let mut live = g.clone();
            for &p in idx.alive_candidate_edges().iter().step_by(5).take(4) {
                idx.delete_edge(p);
                live.remove_edge(p.u(), p.v());
            }
            for &e in &adds {
                live.add_edge(e.u(), e.v());
                idx.insert_edge(&live, e);
            }
            let before = alive_set(&idx);
            idx.compact();
            let fresh = build_seq(&live, &targets, motif);
            assert_eq!(
                idx.initial_similarity(),
                fresh.initial_similarity(),
                "{motif}"
            );
            assert_eq!(idx.all_candidate_edges(), fresh.all_candidate_edges());
            assert!(idx.layout.appended.is_empty());
            assert_eq!(alive_set(&idx), before);
            assert_matches_rebuild(&idx, &fresh);
            let unchanged = Arc::clone(&idx.layout);
            idx.compact();
            assert!(
                Arc::ptr_eq(&unchanged, &idx.layout),
                "a compact index stays"
            );
        }
    }
}
