//! [`PartitionedCoverageIndex`]: the coverage index — the incidence
//! structure between candidate protector edges and alive target subgraphs.
//!
//! This is the data structure behind every greedy algorithm in the paper:
//! the dissimilarity gain of deleting edge `p` is exactly the number of
//! alive instances containing `p` (`Δ_p`), and deleting `p` kills those
//! instances. Because phase 1 fixes the instance universe (edge deletions
//! never *create* instances), a deletion only ever shrinks the index —
//! which is also the combinatorial heart of the monotonicity and
//! submodularity proofs (Lemmas 1–4). Beyond the posting lists, the index
//! maintains a **per-edge alive count** (`Δ_p` itself, so `gain` is an
//! `O(1)` lookup) and a **sorted alive-candidate list** (Lemma 5's
//! restricted candidate set), compacted in place when deletions retire
//! edges.
//!
//! The postings and the candidate list are split across degree-balanced
//! node-range partitions, so **commits scale like scans do**: each edge is
//! owned by the shard whose node range contains its lower endpoint, over the
//! same degree-balanced boundaries as `tpp_store::CsrGraph::shard_ranges`.
//! A deletion therefore touches only the shards that actually contain edges
//! of the broken instances, and the per-shard updates are independent: with
//! a parallel [`Parallelism`] handle they run concurrently on the shared
//! executor pool (`tpp-exec`) — spawn-once workers, not per-commit threads.
//! One shard is the plain single-map layout.
//!
//! Every result is **bit-identical for every shard count and every thread
//! count**: the kill phase walks instances in posting order, per-shard
//! update sets are disjoint by construction, and aggregate counts reduce in
//! shard order.
//!
//! The instances themselves live in **one flat arena**: every instance's
//! edges, sorted canonically, `motif.edges_per_instance()` per instance, in
//! one `Vec<Edge>`, plus one owning-target `u32` per instance (36 bytes
//! per kpath4 instance). The enumerators hand each instance's edges to the
//! build as a borrowed slice, so nothing is allocated per instance, and
//! [`insert_edge`](PartitionedCoverageIndex::insert_edge) appends to the
//! same arena. Cloning an index (the served protect's per-request copy) is
//! therefore two memcpys for the instances plus the postings.

use crate::enumerate::PathJoin;
use crate::pattern::Motif;
use tpp_exec::Parallelism;
use tpp_graph::{Edge, FastMap, NeighborAccess, NodeId};

/// Index id of a motif instance inside a [`PartitionedCoverageIndex`].
pub type InstanceId = u32;

/// Posting list of one candidate edge: the instances containing it, plus
/// the maintained count of how many of them are still alive (= `Δ_p`).
#[derive(Debug, Clone, Default)]
struct Posting {
    /// Ids of every instance containing the edge, alive or dead.
    ids: Vec<InstanceId>,
    /// How many of `ids` are currently alive.
    alive: u32,
}

/// Below this many count decrements a commit applies its shard updates
/// inline: a handful of hash-map decrements costs tens of nanoseconds,
/// and even a pooled dispatch (wake workers, claim shards, join) costs
/// single-digit microseconds.
const MIN_PARALLEL_COMMIT_OPS: usize = 4096;

/// Degree-prefix-balanced shard bounds over `g`'s node space (the CSR
/// offset shape, cut into payload-balanced contiguous node ranges). The
/// graph's own degree prefix ([`NeighborAccess::degree_prefix`]: a
/// snapshot's offset table, an overlay's base's) is cut as it is; only a
/// graph without one pays a pass over every degree. The cut balances
/// work and decides nothing else: every result is the same for every
/// shard layout.
fn degree_balanced_bounds<G: NeighborAccess>(g: &G, parts: usize) -> Vec<NodeId> {
    let computed;
    let prefix = match g.degree_prefix() {
        Some(prefix) => prefix,
        None => {
            computed = std::iter::once(0)
                .chain(g.node_ids().scan(0u64, |acc, u| {
                    *acc += g.degree(u) as u64;
                    Some(*acc)
                }))
                .collect::<Vec<u64>>();
            &computed
        }
    };
    let ranges = tpp_exec::balanced_prefix_ranges(prefix, parts);
    let mut bounds: Vec<NodeId> = vec![0];
    for r in &ranges {
        bounds.push(r.end as NodeId);
    }
    if bounds.len() == 1 {
        bounds.push(0); // empty node space still gets one (empty) shard
    }
    bounds
}

/// The shard owning node `u` under `bounds` (shard `i` spans
/// `bounds[i]..bounds[i + 1]`; out-of-range nodes clamp to the last
/// shard). **The** ownership lookup — the build, insert and commit paths
/// must route edges identically, so they all call this.
#[inline]
fn owner_shard(bounds: &[NodeId], u: NodeId) -> usize {
    bounds
        .partition_point(|&b| b <= u)
        .saturating_sub(1)
        .min(bounds.len().saturating_sub(2))
}

/// One partition of the index: the postings and alive-candidate list of the
/// edges this shard owns.
#[derive(Debug, Clone, Default)]
struct IndexShard {
    /// Posting lists of the owned edges (instance ids + alive counts).
    postings: FastMap<Edge, Posting>,
    /// Sorted owned edges with at least one alive instance.
    alive_candidates: Vec<Edge>,
}

impl IndexShard {
    /// Applies one batch of alive-count decrements (one entry per killed
    /// instance × owned edge) and compacts the candidate list if any edge
    /// retired. Pure shard-local state: safe to run concurrently with other
    /// shards' updates, and deterministic regardless of who runs it.
    /// Returns whether a candidate-list compaction ran.
    fn apply_decrements(&mut self, ops: &[Edge]) -> bool {
        let mut retired = false;
        for e in ops {
            let po = self
                .postings
                .get_mut(e)
                .expect("killed instance edge must be posted in its owner shard");
            po.alive -= 1;
            retired |= po.alive == 0;
        }
        if retired {
            let postings = &self.postings;
            self.alive_candidates
                .retain(|e| postings.get(e).is_some_and(|po| po.alive > 0));
        }
        retired
    }
}

/// Incidence index between edges and alive motif instances for a fixed
/// (graph, target set, motif) triple, with its postings partitioned across
/// degree-balanced node-range shards and shard-parallel commits.
///
/// Scans are pure reads (`gain` is an `O(1)` count lookup,
/// `gain_vector`/`gain_split` walk one posting list);
/// [`delete_edge`](Self::delete_edge) and the batch
/// [`delete_edges`](Self::delete_edges) update only the dirty shards.
#[derive(Debug, Clone)]
pub struct PartitionedCoverageIndex {
    motif: Motif,
    targets: Vec<Edge>,
    /// The instance arena: instance `id` owns the sorted edges
    /// `instance_edges[id * stride..(id + 1) * stride]`, `stride =
    /// motif.edges_per_instance()`.
    instance_edges: Vec<Edge>,
    /// Owning target of every instance.
    instance_target: Vec<u32>,
    alive: Vec<bool>,
    per_target_alive: Vec<usize>,
    alive_total: usize,
    /// Shard boundaries over the node space: shard `i` owns nodes
    /// `bounds[i]..bounds[i + 1]` (and every edge whose lower endpoint
    /// falls in that range). `bounds.len() == shards.len() + 1`.
    bounds: Vec<NodeId>,
    shards: Vec<IndexShard>,
    /// Inverted target map: node → indexes of targets with that endpoint.
    /// Lets [`insert_edge`](Self::insert_edge) find the targets whose
    /// instances a new edge can touch by probing the edge's radius-1 ball
    /// (degree-sized) instead of scanning the full target list.
    targets_by_node: FastMap<NodeId, Vec<u32>>,
    /// Executor handle for the per-shard commit phase (sequential handles
    /// run commits inline). Clones of the index share the same pool.
    exec: Parallelism,
    /// Reusable kill buffer (killed instance ids of the current commit).
    kill_scratch: Vec<InstanceId>,
    /// Reusable per-shard decrement-op buffers.
    op_scratch: Vec<Vec<Edge>>,
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

/// Appends one instance's edges to a flat arena, sorted canonically (the
/// order [`MotifInstance::new`](crate::MotifInstance::new) keeps), and
/// returns the stored slice.
fn push_instance<'a>(arena: &'a mut Vec<Edge>, edges: &[Edge]) -> &'a [Edge] {
    let start = arena.len();
    arena.extend_from_slice(edges);
    let stored = &mut arena[start..];
    stored.sort_unstable();
    debug_assert!(
        stored.windows(2).all(|w| w[0] != w[1]),
        "motif instance has duplicate edges: {stored:?}"
    );
    stored
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
    /// Builds the index over `parts` degree-balanced partitions (the same
    /// boundary computation as `tpp_store::CsrGraph::shard_ranges`, via
    /// [`tpp_exec::balanced_prefix_ranges`] over the degree prefix sum),
    /// with target enumeration and per-shard posting merges spread over
    /// `exec`. This is the one index builder; pass
    /// [`Parallelism::sequential`] to build on the calling thread.
    ///
    /// `g` must already have all targets removed (phase 1). Two phases,
    /// both dispatched on `exec`'s shared executor pool (`tpp-exec`), work
    /// claimed through one atomic cursor:
    ///
    /// 1. **enumerate** — [`Parallelism::steal_spans`] cuts the target
    ///    list into contiguous chunks of near-equal endpoint-degree mass;
    ///    each chunk enumerates its targets' instances and routes every
    ///    (instance, edge) pair straight to the owning shard's posting
    ///    fragment under chunk-local instance ids;
    /// 2. **merge** — each shard (shards are independent state) folds its
    ///    fragments together **in chunk order**, shifting local ids by the
    ///    chunk's global offset.
    ///
    /// Chunks are ascending target ranges and ids shift by chunk-order
    /// offsets, so instances are numbered in target order and every posting
    /// id list ascends: instance ids, posting id lists, alive counts, and
    /// candidate lists are **bit-identical for every chunk, shard, and
    /// thread count** — pinned by the differential build tests. The handle
    /// also becomes the index's commit-phase executor (as
    /// [`set_parallelism`](Self::set_parallelism)).
    ///
    /// # Panics
    /// Panics if `parts == 0` or any target edge is still present in `g`.
    #[must_use]
    pub fn build_parallel<G: NeighborAccess + Sync>(
        g: &G,
        targets: &[Edge],
        motif: Motif,
        parts: usize,
        exec: &Parallelism,
    ) -> Self {
        assert!(parts >= 1, "need at least one partition");
        let stats = exec.recorder().stats();
        let build_span = tpp_obs::SpanTimer::counter(stats.map(|s| &s.index.build_ns));
        assert_phase_one(g, targets);
        let bounds = degree_balanced_bounds(g, parts);
        let shard_count = bounds.len() - 1;
        let shard_of = |u: NodeId| -> usize { owner_shard(&bounds, u) };

        // Chunks are weighted by endpoint degree mass (the
        // enumeration-cost proxy).
        let n = g.node_count();
        let degree_of = |u: NodeId| -> usize {
            if (u as usize) < n {
                g.degree(u)
            } else {
                0
            }
        };
        let indexed: Vec<(usize, Edge)> = targets.iter().copied().enumerate().collect();
        let weights: Vec<usize> = targets
            .iter()
            .map(|t| degree_of(t.u()) + degree_of(t.v()) + 1)
            .collect();

        // Phase 1: enumerate chunk targets directly into per-shard posting
        // fragments under chunk-local instance ids.
        struct ChunkBuild {
            /// The chunk's instance arena (chunk-local ids).
            instance_edges: Vec<Edge>,
            instance_target: Vec<u32>,
            per_target: Vec<usize>,
            /// Shard -> edge -> chunk-local ids of instances containing it.
            fragments: Vec<FastMap<Edge, Vec<InstanceId>>>,
        }
        // The per-worker state is the k-path join's bucket scratch, so a
        // worker allocates it once, not once per target.
        let enumerate_chunk = |join: &mut PathJoin, chunk: &[(usize, Edge)]| -> ChunkBuild {
            let mut out = ChunkBuild {
                instance_edges: Vec::new(),
                instance_target: Vec::new(),
                per_target: Vec::with_capacity(chunk.len()),
                fragments: vec![FastMap::default(); shard_count],
            };
            for &(ti, t) in chunk {
                let before = out.instance_target.len();
                crate::enumerate::for_each_target_subgraph(g, t.u(), t.v(), motif, join, |edges| {
                    let local = out.instance_target.len() as InstanceId;
                    for &e in push_instance(&mut out.instance_edges, edges) {
                        out.fragments[shard_of(e.u())]
                            .entry(e)
                            .or_default()
                            .push(local);
                    }
                    out.instance_target.push(ti as u32);
                });
                out.per_target.push(out.instance_target.len() - before);
            }
            out
        };
        // Executor dispatch: chunks are claimed work-stealing and the
        // results come back in chunk order — which worker enumerated a
        // chunk is scheduling noise; chunk order is the deterministic
        // target order.
        let enumerate_span =
            tpp_obs::SpanTimer::counter(stats.map(|s| &s.index.build_enumerate_ns));
        let chunk_outs =
            exec.steal_spans(&indexed, Some(&weights), PathJoin::default, enumerate_chunk);
        enumerate_span.stop();

        // Chunk-order id offsets: concatenating chunk outputs numbers the
        // instances in target order.
        let mut offsets = Vec::with_capacity(chunk_outs.len());
        let mut total_instances = 0usize;
        for out in &chunk_outs {
            offsets.push(total_instances as InstanceId);
            total_instances += out.instance_target.len();
        }

        // Phase 2: fold fragments into each shard in chunk order (per-edge
        // id lists ascend); shards are disjoint state, chunked across the
        // worker budget.
        let mut shards: Vec<IndexShard> = vec![IndexShard::default(); shard_count];
        let merge_shard = |s: usize, shard: &mut IndexShard| {
            for (out, &off) in chunk_outs.iter().zip(&offsets) {
                for (&e, local_ids) in &out.fragments[s] {
                    let po = shard.postings.entry(e).or_default();
                    po.ids.extend(local_ids.iter().map(|&id| id + off));
                    po.alive += local_ids.len() as u32;
                }
            }
            shard.alive_candidates = shard.postings.keys().copied().collect();
            shard.alive_candidates.sort_unstable();
        };
        let merge_span = tpp_obs::SpanTimer::counter(stats.map(|s| &s.index.build_merge_ns));
        exec.for_each_mut(&mut shards, |s, shard| merge_shard(s, shard));
        merge_span.stop();

        let mut instance_edges = Vec::with_capacity(total_instances * motif.edges_per_instance());
        let mut instance_target = Vec::with_capacity(total_instances);
        let mut per_target_alive = Vec::with_capacity(targets.len());
        for out in chunk_outs {
            instance_edges.extend_from_slice(&out.instance_edges);
            instance_target.extend_from_slice(&out.instance_target);
            per_target_alive.extend(out.per_target);
        }
        debug_assert_eq!(per_target_alive.len(), targets.len());

        let op_scratch = vec![Vec::new(); shard_count];
        let built = PartitionedCoverageIndex {
            motif,
            targets_by_node: invert_targets(targets),
            targets: targets.to_vec(),
            alive: vec![true; total_instances],
            instance_edges,
            instance_target,
            per_target_alive,
            alive_total: total_instances,
            bounds,
            shards,
            exec: exec.clone(),
            kill_scratch: Vec::new(),
            op_scratch,
        };
        if let Some(st) = stats {
            st.index.builds.inc();
        }
        build_span.stop();
        #[cfg(debug_assertions)]
        built.check_invariants();
        built
    }

    /// Sets the executor handle for the per-shard commit phase (a
    /// sequential handle runs commits inline). Purely a performance knob —
    /// deletions produce bit-identical state for every handle.
    pub fn set_parallelism(&mut self, exec: Parallelism) {
        self.exec = exec;
    }

    /// Number of partitions.
    #[must_use]
    pub fn parts(&self) -> usize {
        self.shards.len()
    }

    /// The partition boundaries as node ranges (ascending, covering the
    /// node space the index was built over).
    #[must_use]
    pub fn shard_ranges(&self) -> Vec<std::ops::Range<NodeId>> {
        self.bounds.windows(2).map(|w| w[0]..w[1]).collect()
    }

    /// Alive-candidate count per shard (reporting / balance diagnostics).
    #[must_use]
    pub fn shard_candidate_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.alive_candidates.len())
            .collect()
    }

    #[inline]
    fn shard_of(&self, u: NodeId) -> usize {
        owner_shard(&self.bounds, u)
    }

    /// The sorted edges of instance `id`: its stride of the arena.
    #[inline]
    fn instance(&self, id: usize) -> &[Edge] {
        let stride = self.motif.edges_per_instance();
        &self.instance_edges[id * stride..(id + 1) * stride]
    }

    /// The motif this index was built for.
    #[must_use]
    pub fn motif(&self) -> Motif {
        self.motif
    }

    /// The target set, in index order.
    #[must_use]
    pub fn targets(&self) -> &[Edge] {
        &self.targets
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

    /// Initial total similarity `s(∅, T)` (instances ever indexed).
    #[must_use]
    pub fn initial_similarity(&self) -> usize {
        self.instance_target.len()
    }

    /// Dissimilarity gain `Δ_p`: `O(1)` lookup of the maintained alive
    /// count in `p`'s owner shard.
    #[must_use]
    pub fn gain(&self, p: Edge) -> usize {
        self.shards[self.shard_of(p.u())]
            .postings
            .get(&p)
            .map_or(0, |po| po.alive as usize)
    }

    /// Split gain for CT/WT-Greedy: `(own, cross)` where `own` counts alive
    /// instances of `target_idx` containing `p` and `cross` counts alive
    /// instances of every other target containing `p`. The paper's score is
    /// `Δ_t^p = own + cross / C`, i.e. lexicographic `(own, cross)`.
    #[must_use]
    pub fn gain_split(&self, p: Edge, target_idx: usize) -> (usize, usize) {
        let (mut own, mut cross) = (0usize, 0usize);
        for id in self.alive_ids_of(p) {
            if self.instance_target[id as usize] as usize == target_idx {
                own += 1;
            } else {
                cross += 1;
            }
        }
        (own, cross)
    }

    /// Per-target gain vector: entry `t` counts the alive instances of
    /// target `t` containing `p`. One pass over `p`'s posting list.
    #[must_use]
    pub fn gain_vector(&self, p: Edge) -> Vec<usize> {
        let mut v = vec![0usize; self.targets.len()];
        for id in self.alive_ids_of(p) {
            v[self.instance_target[id as usize] as usize] += 1;
        }
        v
    }

    /// The alive entries of `p`'s posting list, in posting order.
    fn alive_ids_of(&self, p: Edge) -> impl Iterator<Item = InstanceId> + '_ {
        self.shards[self.shard_of(p.u())]
            .postings
            .get(&p)
            .into_iter()
            .flat_map(|po| po.ids.iter().copied())
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
    /// Three phases:
    ///
    /// 1. **kill** (sequential, tiny): walk each edge's posting list in its
    ///    owner shard, flip alive flags, update per-target counters;
    /// 2. **route**: group one alive-count decrement per killed instance ×
    ///    instance edge by the edge's owner shard;
    /// 3. **apply**: each dirty shard decrements its counts and compacts
    ///    its candidate list — chunked across at most `threads` worker
    ///    threads when the batch is large enough to amortize the spawns.
    ///
    /// Only the dirty shards are touched, and the result is bit-identical
    /// for every shard and thread count.
    pub fn delete_edges(&mut self, ps: &[Edge]) -> Vec<usize> {
        let stats = self.exec.recorder().stats();
        let mut killed = std::mem::take(&mut self.kill_scratch);
        killed.clear();
        let mut broken_out = Vec::with_capacity(ps.len());

        // Phase 1: kill, in input order (disjoint-field borrows: postings
        // live in `shards`, flags in `alive` — no posting-list clone).
        for &p in ps {
            let s = self.shard_of(p.u());
            let before = killed.len();
            if let Some(po) = self.shards[s].postings.get(&p) {
                for &id in &po.ids {
                    let idx = id as usize;
                    if self.alive[idx] {
                        self.alive[idx] = false;
                        self.per_target_alive[self.instance_target[idx] as usize] -= 1;
                        self.alive_total -= 1;
                        killed.push(id);
                    }
                }
            }
            broken_out.push(killed.len() - before);
        }

        // Phase 2: route decrements to owner shards.
        let mut ops = std::mem::take(&mut self.op_scratch);
        for v in &mut ops {
            v.clear();
        }
        for &id in &killed {
            for &e in self.instance(id as usize) {
                ops[self.shard_of(e.u())].push(e);
            }
        }

        // Phase 3: apply per dirty shard. Shard states are disjoint, so
        // the outcome cannot depend on scheduling; the pooled dispatch is
        // gated on the commit being big enough to amortize waking the
        // executor's workers (single greedy picks decrement a handful of
        // counters — below even a pooled dispatch's cost). Each dirty
        // shard is claimed by exactly one worker of the shared pool.
        let mut dirty: Vec<(&mut IndexShard, &Vec<Edge>)> = self
            .shards
            .iter_mut()
            .zip(&ops)
            .filter(|(_, shard_ops)| !shard_ops.is_empty())
            .collect();
        let total_ops: usize = dirty.iter().map(|(_, o)| o.len()).sum();
        let dirty_count = dirty.len();
        let parallel =
            !self.exec.is_sequential() && dirty.len() > 1 && total_ops >= MIN_PARALLEL_COMMIT_OPS;
        if parallel {
            self.exec.for_each_mut(&mut dirty, |_, (shard, shard_ops)| {
                // Counters are atomic, so compactions report safely from
                // whichever worker claimed the shard.
                if shard.apply_decrements(shard_ops) {
                    if let Some(st) = stats {
                        st.index.compactions.inc();
                    }
                }
            });
        } else {
            for (shard, shard_ops) in dirty {
                if shard.apply_decrements(shard_ops) {
                    if let Some(st) = stats {
                        st.index.compactions.inc();
                    }
                }
            }
        }
        if let Some(st) = stats {
            st.index.commits.inc();
            st.index.instances_killed.record(killed.len() as u64);
            st.index.dirty_shards.record(dirty_count as u64);
            if parallel {
                st.index.parallel_commits.inc();
            }
        }

        self.kill_scratch = killed;
        self.op_scratch = ops;
        #[cfg(debug_assertions)]
        self.check_invariants();
        broken_out
    }

    /// Applies an edge **insertion** to the index: localized enumeration
    /// around `e` (see
    /// [`enumerate_target_subgraphs_through`](crate::enumerate_target_subgraphs_through))
    /// discovers exactly the instances the insertion created, and each one
    /// is appended as a fresh alive instance — postings append in the
    /// owning shard of each instance edge, alive counts increment, and
    /// retired-then-revived candidate edges re-enter their shard's sorted
    /// candidate list in place. The mirror image of the kill-flag delete
    /// path: deletes only flip instances dead, inserts only append live
    /// ones, and neither renumbers existing instances.
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
            !self.targets.contains(&e),
            "cannot insert target edge {e}: targets stay deleted (phase 1)"
        );
        // A genuinely new edge cannot already sit in an alive instance:
        // an alive posting here means `e` was present (and indexed) before
        // the claimed insertion, and enumerating would double-count.
        assert!(
            self.shards[owner_shard(&self.bounds, e.u())]
                .postings
                .get(&e)
                .is_none_or(|po| po.alive == 0),
            "insert_edge({e}): edge already participates in alive instances (double insertion)"
        );
        let stats = self.exec.recorder().stats();
        let mut discovered = 0usize;
        let mut appended = 0u64;
        // Radius-1 locality: only targets with an endpoint within one hop
        // of `e` can gain instances through it (sound for every motif but
        // KPath(5) — see `enumerate::locality_filter_applies`). Probing
        // the ball's nodes against the inverted target map keeps the cost
        // degree-local: O(deg(u) + deg(v)) map lookups instead of a scan
        // over every target.
        let tids: Vec<u32> = if crate::enumerate::locality_filter_applies(self.motif) {
            let mut tids = Vec::new();
            for n in [e.u(), e.v()]
                .into_iter()
                .chain(g.neighbors(e.u()).iter().copied())
                .chain(g.neighbors(e.v()).iter().copied())
            {
                if let Some(hits) = self.targets_by_node.get(&n) {
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
            (0..self.targets.len() as u32).collect()
        };
        let Self {
            motif,
            targets,
            instance_edges,
            instance_target,
            alive,
            per_target_alive,
            alive_total,
            bounds,
            shards,
            ..
        } = self;
        for ti in tids {
            let t = targets[ti as usize];
            crate::enumerate::for_each_target_subgraph_through(
                g,
                t.u(),
                t.v(),
                *motif,
                e,
                |edges| {
                    let id = instance_target.len() as InstanceId;
                    for &edge in push_instance(instance_edges, edges) {
                        let shard = &mut shards[owner_shard(bounds, edge.u())];
                        let po = shard.postings.entry(edge).or_default();
                        if po.alive == 0 {
                            // Compaction keeps candidate lists exactly the
                            // alive>0 edges, so a zero-count posting is never
                            // listed: insert at the sorted position.
                            match shard.alive_candidates.binary_search(&edge) {
                                Ok(_) => unreachable!("dead edge {edge} still listed as candidate"),
                                Err(pos) => shard.alive_candidates.insert(pos, edge),
                            }
                        }
                        // `id` exceeds every existing id, so the posting's id
                        // list stays ascending without a sort.
                        po.ids.push(id);
                        po.alive += 1;
                        appended += 1;
                    }
                    instance_target.push(ti);
                    alive.push(true);
                    per_target_alive[ti as usize] += 1;
                    *alive_total += 1;
                    discovered += 1;
                },
            );
        }
        if let Some(st) = stats {
            st.update.inserts.inc();
            st.update.instances_discovered.add(discovered as u64);
            st.update.postings_appended.add(appended);
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
        discovered
    }

    /// Edges participating in at least one alive instance, sorted
    /// canonically: the concatenation of the per-shard candidate lists
    /// (shard ownership follows ascending lower-endpoint ranges, so the
    /// concatenation is globally sorted without any merge).
    #[must_use]
    pub fn alive_candidate_edges(&self) -> Vec<Edge> {
        let total: usize = self.shards.iter().map(|s| s.alive_candidates.len()).sum();
        let mut out = Vec::with_capacity(total);
        for shard in &self.shards {
            out.extend_from_slice(&shard.alive_candidates);
        }
        out
    }

    /// The per-shard alive-candidate slices, in shard order (zero-copy
    /// alternative to [`alive_candidate_edges`](Self::alive_candidate_edges)).
    pub fn alive_candidate_slices(&self) -> impl Iterator<Item = &[Edge]> + '_ {
        self.shards.iter().map(|s| s.alive_candidates.as_slice())
    }

    /// All edges that ever participated in an instance (alive or dead),
    /// sorted.
    #[must_use]
    pub fn all_candidate_edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.postings.keys().copied());
        }
        out.sort_unstable();
        out
    }

    /// Iterates alive instances as `(target index, sorted edges)`, in
    /// instance-id order (for reporting / verification).
    pub fn alive_instances(&self) -> impl Iterator<Item = (usize, &[Edge])> + '_ {
        self.instance_target
            .iter()
            .enumerate()
            .filter(|&(id, _)| self.alive[id])
            .map(|(id, &ti)| (ti as usize, self.instance(id)))
    }

    /// Verifies internal consistency: counters vs alive flags, per-shard
    /// alive counts vs posting walks, candidate lists, and edge ownership.
    /// Runs automatically after every deletion in debug builds; release
    /// rounds never pay this walk.
    pub fn check_invariants(&self) {
        let alive_count = self.alive.iter().filter(|&&a| a).count();
        assert_eq!(alive_count, self.alive_total, "alive_total out of sync");
        let mut per_target = vec![0usize; self.targets.len()];
        for (id, &ti) in self.instance_target.iter().enumerate() {
            if self.alive[id] {
                per_target[ti as usize] += 1;
            }
        }
        assert_eq!(per_target, self.per_target_alive, "per-target out of sync");
        assert_eq!(self.alive.len(), self.instance_target.len(), "alive arity");
        assert_eq!(
            self.instance_edges.len(),
            self.instance_target.len() * self.motif.edges_per_instance(),
            "instance arena stride"
        );
        assert_eq!(self.bounds.len(), self.shards.len() + 1, "bounds arity");
        for (s, shard) in self.shards.iter().enumerate() {
            for &e in shard.postings.keys() {
                assert_eq!(self.shard_of(e.u()), s, "edge {e} posted off-shard");
            }
            let mut candidates = Vec::new();
            for (&e, po) in &shard.postings {
                let walked = po.ids.iter().filter(|&&id| self.alive[id as usize]).count();
                assert_eq!(walked, po.alive as usize, "alive count of {e} out of sync");
                if walked > 0 {
                    candidates.push(e);
                }
            }
            candidates.sort_unstable();
            assert_eq!(
                candidates, shard.alive_candidates,
                "candidate list of shard {s} out of sync"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::count_all_targets;
    use tpp_graph::Graph;

    /// The index on the calling thread, as every sequential caller builds it.
    fn build_seq(
        g: &Graph,
        targets: &[Edge],
        motif: Motif,
        parts: usize,
    ) -> PartitionedCoverageIndex {
        PartitionedCoverageIndex::build_parallel(
            g,
            targets,
            motif,
            parts,
            &Parallelism::sequential(),
        )
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

    /// Shard cuts over a graph that keeps a degree prefix (a snapshot's
    /// offset table, an overlay's base's) cover `0..n` in order, like the
    /// cuts of a graph whose degrees are summed here, and for a snapshot
    /// they are those cuts.
    #[test]
    fn cuts_from_the_offset_table_cover_the_node_space() {
        let mut g = tpp_graph::generators::holme_kim(300, 3, 0.4, 11);
        for _ in 0..3 {
            g.add_node();
        }
        let csr = tpp_store::CsrGraph::from_graph(&g);
        let mut view = tpp_store::DeltaView::new(&csr);
        for e in g.edge_vec().into_iter().step_by(7) {
            view.delete_edge(e);
        }
        assert_eq!(view.degree_prefix(), Some(csr.offsets()));
        assert_eq!(g.degree_prefix(), None);
        let n = g.node_count() as NodeId;
        for parts in [1usize, 2, 3, 8, 64, 1000] {
            let computed = degree_balanced_bounds(&g, parts);
            for bounds in [
                computed.clone(),
                degree_balanced_bounds(&csr, parts),
                degree_balanced_bounds(&view, parts),
            ] {
                assert_eq!((bounds[0], *bounds.last().unwrap()), (0, n), "{parts}");
                assert!(
                    bounds.windows(2).all(|w| w[0] <= w[1]),
                    "{parts}: {bounds:?}"
                );
                assert!(bounds.len() <= parts + 1, "{parts}");
            }
            assert_eq!(degree_balanced_bounds(&csr, parts), computed, "{parts}");
        }
        let empty = tpp_store::CsrGraph::from_graph(&Graph::new(0));
        assert_eq!(degree_balanced_bounds(&empty, 8), vec![0, 0]);
    }

    #[test]
    fn build_counts_instances() {
        let (g, targets) = shared_protector_graph();
        for parts in [1usize, 3] {
            let idx = build_seq(&g, &targets, Motif::Triangle, parts);
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
        for parts in [1usize, 3] {
            let idx = build_seq(&g, &targets, Motif::Triangle, parts);
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
        for parts in [1usize, 3] {
            let mut idx = build_seq(&g, &targets, Motif::Triangle, parts);
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
        for parts in [1usize, 3] {
            let mut idx = build_seq(&g, &targets, Motif::Triangle, parts);
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
        let exec = Parallelism::sequential();
        let _ = PartitionedCoverageIndex::build_parallel(
            &g,
            &[Edge::new(0, 1)],
            Motif::Triangle,
            1,
            &exec,
        );
    }

    #[test]
    #[should_panic(expected = "phase 1")]
    fn build_parallel_rejects_unremoved_targets() {
        let g = Graph::from_edges([(0u32, 1u32), (0, 2), (2, 1)]);
        let exec = Parallelism::new(2);
        let _ = PartitionedCoverageIndex::build_parallel(
            &g,
            &[Edge::new(0, 1)],
            Motif::Triangle,
            3,
            &exec,
        );
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
            for parts in [1usize, 3] {
                let idx = build_seq(&g, &targets, motif, parts);
                assert_eq!(idx.total_similarity(), before);
                for p in idx.all_candidate_edges() {
                    let mut g2 = g.clone();
                    g2.remove_edge(p.u(), p.v());
                    let after: usize = count_all_targets(&g2, &targets, motif).iter().sum();
                    assert_eq!(
                        idx.gain(p),
                        before - after,
                        "motif {motif} x{parts} edge {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn alive_instances_iterator() {
        let (g, targets) = shared_protector_graph();
        for parts in [1usize, 3] {
            let mut idx = build_seq(&g, &targets, Motif::Triangle, parts);
            assert_eq!(idx.alive_instances().count(), 2);
            idx.delete_edge(Edge::new(2, 3));
            assert_eq!(idx.alive_instances().count(), 1);
            assert_eq!(idx.alive_instances().next().unwrap().0, 0);
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
        for parts in [1usize, 3] {
            let mut idx = build_seq(&g, &targets, Motif::Triangle, parts);
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

    /// Every shard count reads exactly like the one-shard (monolithic)
    /// layout, which itself agrees with the brute-force recount.
    #[test]
    fn matches_monolithic_index_at_every_part_count() {
        let (g, targets) = fixture();
        for motif in Motif::ALL {
            let mono = build_seq(&g, &targets, motif, 1);
            assert_eq!(mono.similarities(), count_all_targets(&g, &targets, motif));
            for parts in [2usize, 3, 7] {
                let part = build_seq(&g, &targets, motif, parts);
                assert_eq!(part.total_similarity(), mono.total_similarity());
                assert_eq!(part.similarities(), mono.similarities());
                assert_eq!(part.all_candidate_edges(), mono.all_candidate_edges());
                assert_eq!(
                    part.alive_candidate_edges(),
                    mono.alive_candidate_edges(),
                    "{motif} x{parts}"
                );
                for p in mono.alive_candidate_edges() {
                    assert_eq!(part.gain(p), mono.gain(p), "{motif} gain({p})");
                    assert_eq!(part.gain_vector(p), mono.gain_vector(p));
                    assert_eq!(part.gain_split(p, 0), mono.gain_split(p, 0));
                }
                part.check_invariants();
            }
        }
    }

    /// A full teardown driven by the sequential one-shard (monolithic)
    /// layout breaks the same counts at every shard and thread count.
    #[test]
    fn deletions_agree_with_monolithic_for_all_parts_and_threads() {
        let (g, targets) = fixture();
        let mut mono = build_seq(&g, &targets, Motif::Triangle, 1);
        let mut parted: Vec<PartitionedCoverageIndex> = Vec::new();
        for parts in [1usize, 4, 8] {
            for threads in [1usize, 3] {
                let mut idx = build_seq(&g, &targets, Motif::Triangle, parts);
                idx.set_parallelism(Parallelism::new(threads));
                parted.push(idx);
            }
        }
        while let Some(&p) = mono.alive_candidate_edges().first() {
            let broken = mono.delete_edge(p);
            for idx in &mut parted {
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
        let base = build_seq(&g, &targets, Motif::Triangle, 4);
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
        let mut idx = build_seq(&g, &[Edge::new(0, 1)], Motif::Triangle, 2);
        let broken = idx.delete_edges(&[Edge::new(0, 2), Edge::new(1, 2)]);
        assert_eq!(broken, vec![1, 0]);
        assert_eq!(idx.total_similarity(), 0);
    }

    #[test]
    fn empty_and_unknown_edges_are_harmless() {
        let (g, targets) = fixture();
        let mut idx = build_seq(&g, &targets, Motif::Triangle, 3);
        let before = idx.total_similarity();
        let mono = build_seq(&g, &targets, Motif::Triangle, 1);
        assert_eq!(idx.gain(Edge::new(70, 79)), mono.gain(Edge::new(70, 79)));
        assert_eq!(idx.gain(Edge::new(1000, 2000)), 0, "out-of-range edge");
        assert_eq!(idx.delete_edges(&[]), Vec::<usize>::new());
        assert_eq!(idx.delete_edge(Edge::new(1000, 2000)), 0);
        assert_eq!(idx.total_similarity(), before);
        let empty = build_seq(&Graph::new(0), &[], Motif::Triangle, 4);
        assert_eq!(empty.total_similarity(), 0);
        assert!(empty.alive_candidate_edges().is_empty());
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
        let exec = tpp_exec::Parallelism::with_recorder(2, rec.clone());
        let mut observed =
            PartitionedCoverageIndex::build_parallel(&g, &targets, Motif::Triangle, 4, &exec);
        let mut reference = Reference::new(&g, &targets, Motif::Triangle);
        let st = rec.stats().unwrap();
        assert_eq!(st.index.builds.get(), 1);
        assert!(st.index.build_ns.get() >= st.index.build_enumerate_ns.get());
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
        assert!(st.index.compactions.get() > 0, "full teardown must compact");
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
            for parts in [1usize, 3, 8] {
                let mut idx = build_seq(&g, &targets, motif, parts);
                let mut g2 = g.clone();
                for &e in &adds {
                    assert!(!g2.contains(e), "fixture add {e} must be a non-edge");
                    g2.add_edge(e.u(), e.v());
                    idx.insert_edge(&g2, e);
                }
                let rebuilt = build_seq(&g2, &targets, motif, parts);
                assert_matches_rebuild(&idx, &rebuilt);
            }
        }
    }

    #[test]
    fn insert_returns_the_similarity_increase() {
        let (g, targets) = fixture();
        let mut idx = build_seq(&g, &targets, Motif::Triangle, 4);
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
        let mut idx = build_seq(&g, &targets, Motif::Triangle, 4);
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
        let rebuilt = build_seq(&live, &targets, Motif::Triangle, 4);
        assert_matches_rebuild(&idx, &rebuilt);
    }

    #[test]
    #[should_panic(expected = "post-insert graph")]
    fn insert_rejects_absent_edges() {
        let (g, targets) = fixture();
        let mut idx = build_seq(&g, &targets, Motif::Triangle, 2);
        let absent = non_edges(&g, &targets, 1)[0];
        let _ = idx.insert_edge(&g, absent);
    }

    #[test]
    #[should_panic(expected = "target edge")]
    fn insert_rejects_target_edges() {
        let (mut g, targets) = fixture();
        let mut idx = build_seq(&g, &targets, Motif::Triangle, 2);
        g.add_edge(0, 1);
        let _ = idx.insert_edge(&g, Edge::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "double insertion")]
    fn insert_rejects_already_indexed_edges() {
        let (g, targets) = fixture();
        let mut idx = build_seq(&g, &targets, Motif::Triangle, 2);
        let present = idx.alive_candidate_edges()[0];
        let _ = idx.insert_edge(&g, present);
    }

    #[test]
    fn insert_records_update_stats() {
        let (g, targets) = fixture();
        let rec = tpp_obs::Recorder::enabled();
        let mut idx = build_seq(&g, &targets, Motif::Triangle, 4);
        idx.set_parallelism(Parallelism::with_recorder(1, rec.clone()));
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
        let mut set: Vec<(usize, Vec<Edge>)> = idx
            .alive_instances()
            .map(|(ti, edges)| (ti, edges.to_vec()))
            .collect();
        set.sort();
        set
    }

    #[test]
    fn alive_instances_after_deletes_and_insert_equal_a_fresh_build() {
        let (g, targets) = fixture();
        let add = non_edges(&g, &targets, 1)[0];
        for motif in Motif::ALL {
            let mut idx = build_seq(&g, &targets, motif, 3);
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
            let rebuilt = build_seq(&live, &targets, motif, 3);
            assert_eq!(alive_set(&idx), alive_set(&rebuilt), "{motif}");
            assert_eq!(idx.alive_instances().count(), idx.total_similarity());
        }
    }

    #[test]
    fn shard_ranges_cover_and_candidates_partition() {
        let (g, targets) = fixture();
        let idx = build_seq(&g, &targets, Motif::Rectangle, 5);
        let ranges = idx.shard_ranges();
        assert_eq!(ranges.len(), idx.parts());
        assert_eq!(ranges[0].start, 0);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let counts = idx.shard_candidate_counts();
        let flat: Vec<Edge> = idx.alive_candidate_slices().flatten().copied().collect();
        assert_eq!(counts.iter().sum::<usize>(), flat.len());
        assert_eq!(flat, idx.alive_candidate_edges());
    }
}
