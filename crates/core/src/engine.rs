//! The unified round engine: one implementation of the greedy
//! argmax-per-round loop shared by every protector-selection algorithm.
//!
//! The paper's algorithms (SGB/CT/WT, their `-R` variants, CELF, the
//! parallel and weighted extensions) all share the same skeleton — scan
//! every candidate protector, score it through a gain oracle, commit the
//! argmax with a canonical tie-break, record the step — and previously
//! each reimplemented it. [`RoundEngine`] owns that skeleton once over one
//! boxed [`GainOracle`], and the algorithms shrink to strategy configs:
//! which rounds run, which targets are open, how a candidate is scored.
//!
//! ## Parallelism for every oracle
//!
//! Every full candidate scan fans out across worker threads for **any**
//! oracle: gain queries are `&self` reads of the committed state, so every
//! worker scores candidates through the one shared oracle, with no
//! per-worker scratch. SGB and CELF scan once per run (the lazy queue's
//! bound sweep, their only parallel scan); CT/WT scan once per round. The
//! scan is **work-stealing**: candidates
//! are pre-cut into contiguous weight-balanced spans (the same
//! partition-range discipline as `tpp_store::CsrGraph::shard_ranges`, but
//! several spans per worker), and workers claim spans through one atomic
//! cursor — a worker that drew cheap spans steals the remaining ones
//! instead of idling, so skewed scans no longer serialize on the worker
//! that inherited the hubs. Span results still reduce in span order, so
//! the selected protector is **bit-identical to the sequential
//! left-to-right scan for every thread count**. The determinism proptests
//! pin this across every oracle.
//!
//! The workers themselves belong to a persistent [`Parallelism`] pool
//! (`tpp-exec`), created **once** per run and plumbed through the engine
//! into the oracle's commit and build phases — a k-round greedy run pays
//! thread creation once, not once per round. [`Parallelism::steal_spans`]
//! owns the span plan (the workspace's one span rule: four
//! weight-balanced spans per worker) and the claim-and-reduce scaffold;
//! the engine only supplies candidate weights, scoring, and the reduce.
//!
//! ## One lazy gain queue for the global budget
//!
//! Deleting an edge only kills motif instances, so a candidate's gain
//! never rises (Lemmas 1–2). SGB and CELF therefore pop their picks from
//! one lazy gain queue (the accelerated greedy of Minoux 1978; CELF,
//! Leskovec et al. 2007): one sharded bound sweep fills a max-heap of
//! cached gains, a stale heap top is refreshed and pushed back, and a
//! fresh top is the round's next pick in `(gain desc, edge asc)` order —
//! the order a full scan-and-sort of the current gains would give. Fresh
//! tops are offered to one disjoint-gain-set acceptance rule
//! ([`GainOracle::gain_set`]); a pick set with pairwise-disjoint gain sets
//! keeps every cached gain exact at commit, and an oracle that cannot
//! enumerate gain sets degrades to one commit per round (the sequential
//! fallback). The two entry points differ only in a skipped (conflicting)
//! top: SGB sets it aside for the round and keeps offering the
//! next-ranked candidates; CELF pushes it back and closes the round. With
//! room for one pick neither enumerates a gain set, so at `j = 1` both
//! are the sequential greedy.
//!
//! ## One CT/WT selection round
//!
//! CT and WT rounds, single-pick or batched, run through one private
//! `round(open, room)`. It scores every candidate once, charges it to the
//! first open target maximizing its `(own, cross)` split, ranks the
//! candidates by that split descending with ties to the canonically
//! smallest edge, accepts picks through the same disjoint-gain-set rule
//! (a pick must also fit its charged target's remaining budget) and
//! commits them together through [`GainOracle::commit_batch`]. A round
//! with room for one pick keeps the first maximizer of a fused scan fold:
//! no sort and no gain-set probe. A conflicting candidate is skipped for
//! the round and rescored in the next one.
//!
//! The entry points are [`RoundEngine::run_global`] (SGB, up to `j`
//! picks per round), [`RoundEngine::run_global_lazy`] (CELF, up to `j`
//! picks per round) and [`RoundEngine::select_for_targets`] (one CT/WT
//! round over the open targets).

use crate::oracle::{CandidatePolicy, GainOracle};
use crate::plan::{AlgorithmKind, ProtectionPlan, StepRecord};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;
use tpp_exec::Parallelism;
use tpp_graph::{Edge, FastSet};
use tpp_motif::InstanceId;
use tpp_obs::Recorder;

/// Conflict budget per batch-round pick slot: a batch round stops probing
/// for more disjoint picks after `room ×` this many gain-set conflicts and
/// commits what it has. Each conflict probe walks a posting list and
/// allocates its id set, so an unbounded skip loop on a hub-dominated
/// instance (where most gain sets overlap the top pick) could cost more
/// than the sequential rounds the batch replaces. Purely a performance
/// valve: a round always accepts at least the top pick, so progress and
/// the documented greedy-feasibility are unaffected.
const BATCH_CONFLICTS_PER_SLOT: usize = 16;

/// First-maximizer-wins argmax over `items`, scanned by `exec`'s workers
/// under **work stealing**: [`Parallelism::steal_spans`] cuts the items
/// into contiguous weight-balanced spans (the same boundary discipline as
/// `tpp_store::CsrGraph::shard_ranges`) and workers claim spans through
/// one atomic cursor until none remain. Skewed rounds — where one span's
/// candidates are far more expensive than predicted — therefore do not
/// serialize on the unlucky worker. The workers belong to the persistent
/// executor pool: spawned once per pool, not once per scan.
///
/// Each worker builds one private context with `make_ctx` (reused across
/// every span it claims), scores spans left-to-right with `eval` (`None`
/// skips an item), and keeps the first strict maximum under
/// `better(new, best)`; span maxima reduce in span order. The result is
/// therefore **identical to a sequential left-to-right scan** for every
/// thread count and claim interleaving — the property all the engine's
/// determinism guarantees rest on.
pub fn sharded_argmax<T, C, S, M, E, B>(
    items: &[T],
    exec: &Parallelism,
    weights: Option<&[usize]>,
    make_ctx: M,
    eval: E,
    better: B,
) -> Option<(S, T)>
where
    T: Copy + Send + Sync,
    S: Send,
    M: Fn() -> C + Sync,
    E: Fn(&mut C, T) -> Option<S> + Sync,
    B: Fn(&S, &S) -> bool + Sync,
{
    let span_best = exec.steal_spans(items, weights, &make_ctx, |ctx, span| {
        first_max(
            span.iter()
                .filter_map(|&item| eval(ctx, item).map(|s| (s, item))),
            &better,
        )
    });
    // Canonical-order reduce over the span-ordered maxima.
    first_max(span_best.into_iter().flatten(), &better)
}

/// The first strict maximum of `scored` under `better(new, best)` — the
/// canonical tie-break every argmax scan and every span reduce shares.
fn first_max<S, T>(
    scored: impl IntoIterator<Item = (S, T)>,
    better: &impl Fn(&S, &S) -> bool,
) -> Option<(S, T)> {
    scored.into_iter().fold(None, |best, next| match best {
        Some(b) if !better(&next.0, &b.0) => Some(b),
        _ => Some(next),
    })
}

/// Maps `eval` over `items` with the same per-worker-context,
/// work-stealing span claiming as [`sharded_argmax`]; results come back in
/// item order regardless of thread count or claim interleaving.
pub fn sharded_map<T, C, R, M, E>(
    items: &[T],
    exec: &Parallelism,
    weights: Option<&[usize]>,
    make_ctx: M,
    eval: E,
) -> Vec<R>
where
    T: Copy + Send + Sync,
    R: Send,
    M: Fn() -> C + Sync,
    E: Fn(&mut C, T) -> R + Sync,
{
    let per_span = exec.steal_spans(items, weights, &make_ctx, |ctx, span| {
        span.iter().map(|&item| eval(ctx, item)).collect::<Vec<R>>()
    });
    per_span.into_iter().flatten().collect()
}

/// Charges a per-target gain vector to the first `open` target maximizing
/// lexicographic `(own, cross)` — the CT/WT round score. `open` holds
/// `(target, remaining budget)` pairs. Returns `(own, cross, target)`;
/// `None` when the deletion breaks nothing.
fn charge_to_open(v: &[usize], open: &[(usize, usize)]) -> Option<(usize, usize, usize)> {
    let total: usize = v.iter().sum();
    if total == 0 {
        return None;
    }
    let mut best: Option<(usize, usize, usize)> = None;
    for &(t, _) in open {
        let (own, cross) = (v[t], total - v[t]);
        if best.is_none_or(|(bo, bc, _)| (own, cross) > (bo, bc)) {
            best = Some((own, cross, t));
        }
    }
    best
}

/// What a [`BatchAcceptor`] did with an offered candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Joins the batch.
    Accepted,
    /// Conflicts with the batch: skipped this round, rescored next round.
    Skipped,
    /// Nothing more can join: the gain sets are unknowable, or the
    /// round's conflict budget is spent.
    Closed,
}

/// What the lazy gain queue does with a fresh top its batch skipped — the
/// one difference between the SGB and CELF entry points.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Requeue {
    /// SGB: set the top aside until the round commits and keep offering
    /// the next-ranked candidates, as a scan-and-sort round would.
    SetAside,
    /// CELF: push the top back and close the round; the top is
    /// re-evaluated in the next one.
    Close,
}

/// Disjoint-gain-set admission for one batch round — the one acceptance
/// rule of the CT/WT round and the lazy gain queue, which differ only in
/// what they do with a non-accepted candidate.
///
/// The first offer is always accepted: it is exactly the pick the
/// sequential round would commit. Later offers are accepted iff their gain
/// set ([`GainOracle::gain_set`]) is disjoint from every accepted pick's,
/// which makes every accepted scanned gain exact at commit.
struct BatchAcceptor {
    room: usize,
    /// Accepted picks in commit order: `(protector, charged target, own)`.
    picks: Vec<(Edge, Option<usize>, Option<usize>)>,
    /// The scanned gain of each accepted pick.
    gains: Vec<usize>,
    /// Instances in the accepted picks' gain sets.
    claimed: FastSet<InstanceId>,
    /// `true` once a pick's gain set is unknown: nothing further can be
    /// proven disjoint, so the round degrades to one sequential commit.
    opaque: bool,
    /// Conflict probes left before the batch closes
    /// (`room × BATCH_CONFLICTS_PER_SLOT`).
    conflicts_left: usize,
}

impl BatchAcceptor {
    fn new(room: usize) -> Self {
        BatchAcceptor {
            room,
            // `room` comes from the caller's `--batch`: grow with the
            // accepted picks instead of reserving it.
            picks: Vec::new(),
            gains: Vec::new(),
            claimed: FastSet::default(),
            opaque: false,
            conflicts_left: room.saturating_mul(BATCH_CONFLICTS_PER_SLOT),
        }
    }

    fn is_full(&self) -> bool {
        self.picks.len() >= self.room
    }

    /// Offers the next candidate in the round's canonical order.
    fn offer(
        &mut self,
        oracle: &dyn GainOracle,
        obs: &Recorder,
        pick: (Edge, Option<usize>, Option<usize>),
        gain: usize,
    ) -> Admission {
        if self.picks.is_empty() {
            // Only a batch with room for a second pick needs the top
            // pick's gain set.
            if self.room > 1 {
                match oracle.gain_set(pick.0) {
                    Some(ids) => self.claimed.extend(ids),
                    None => {
                        self.opaque = true;
                        if let Some(st) = obs.stats() {
                            st.round.sequential_fallbacks.inc();
                        }
                    }
                }
            }
        } else if self.opaque {
            return Admission::Closed;
        } else {
            match oracle.gain_set(pick.0) {
                Some(ids) if ids.iter().all(|id| !self.claimed.contains(id)) => {
                    self.claimed.extend(ids);
                }
                // Conflict (or unknowable). Each probe walks a posting
                // list, so a bounded number of them keeps a hub-dominated
                // round from out-costing the sequential rounds it
                // replaces.
                _ => {
                    if let Some(st) = obs.stats() {
                        st.round.batch_conflicts.inc();
                    }
                    self.conflicts_left -= 1;
                    return if self.conflicts_left == 0 {
                        Admission::Closed
                    } else {
                        Admission::Skipped
                    };
                }
            }
        }
        self.picks.push(pick);
        self.gains.push(gain);
        Admission::Accepted
    }
}

/// The shared selection loop: candidate scan (sequential or sharded
/// across threads), canonical tie-break, commit, and step recording over
/// one boxed gain oracle.
///
/// Algorithms drive it through four entry points:
///
/// * [`run_global`](Self::run_global) — SGB-Greedy rounds (argmax total
///   gain), up to `j` disjoint picks per round;
/// * [`run_global_lazy`](Self::run_global_lazy) — CELF rounds (identical
///   output at `j = 1`; a batch conflict closes the round);
/// * [`select_for_targets`](Self::select_for_targets) — one CT/WT round
///   maximizing lexicographic `(own, cross)` over the open targets;
/// * [`select_custom`](Self::select_custom) + [`commit_pick`](Self::commit_pick)
///   — bring-your-own score (the weighted extension).
///
/// The first two share one private lazy gain queue, CT/WT rounds one
/// private round (see the module docs), and every commit goes through one
/// batch commit.
pub struct RoundEngine<'a> {
    oracle: Box<dyn GainOracle + Sync + 'a>,
    policy: CandidatePolicy,
    /// The persistent executor every scan dispatches on (and, via
    /// [`GainOracle::set_parallelism`], every commit too).
    exec: Parallelism,
    initial_similarity: usize,
    protectors: Vec<Edge>,
    steps: Vec<StepRecord>,
    per_target: Vec<Vec<Edge>>,
    /// Telemetry sink, taken from the executor handle at construction so
    /// one `--stats` knob observes scans, commits, and dispatches alike.
    /// Disabled recorders cost one branch per round, nothing per
    /// candidate, and no allocation on the scan hot path.
    obs: Recorder,
}

impl<'a> RoundEngine<'a> {
    /// Builds an engine over `oracle` dispatching on `exec` — the one
    /// executor handle shared by the scan, the oracle's commit phase
    /// (plumbed via [`GainOracle::set_parallelism`]), and whatever built
    /// the oracle. Every thread count produces bit-identical plans.
    #[must_use]
    pub fn new(
        mut oracle: Box<dyn GainOracle + Sync + 'a>,
        policy: CandidatePolicy,
        exec: Parallelism,
    ) -> Self {
        // The oracle's commits report to the scan's executor's recorder.
        oracle.set_parallelism(&exec);
        let initial_similarity = oracle.total_similarity();
        let targets = oracle.target_count();
        let obs = exec.recorder().clone();
        RoundEngine {
            oracle,
            policy,
            exec,
            initial_similarity,
            protectors: Vec::new(),
            steps: Vec::new(),
            per_target: vec![Vec::new(); targets],
            obs,
        }
    }

    /// **The** full candidate scan (the lazy queue's bound sweep, every
    /// CT/WT round, [`select_custom`](Self::select_custom)): runs `span` over
    /// contiguous spans of `candidates` and returns the span results in
    /// span order. Workers claim the spans of [`Parallelism::steal_spans`]
    /// and all score through the one shared oracle; a sequential executor
    /// runs the whole list as one inline span, so only a parallel one pays
    /// for candidate weights. Either way the round stats record one scan.
    fn scan<R: Send>(
        &self,
        candidates: &[Edge],
        span: impl Fn(&dyn GainOracle, &[Edge]) -> R + Sync,
    ) -> Vec<R> {
        let t0 = self.obs.is_enabled().then(Instant::now);
        let oracle = self.oracle.as_ref();
        let weights: Option<Vec<usize>> = (!self.exec.is_sequential()).then(|| {
            candidates
                .iter()
                .map(|&p| oracle.candidate_weight(p))
                .collect()
        });
        let out = self.exec.steal_spans(
            candidates,
            weights.as_deref(),
            || (),
            |(), chunk| span(oracle, chunk),
        );
        if let (Some(t0), Some(st)) = (t0, self.obs.stats()) {
            st.round.scans.inc();
            st.round.candidates_probed.add(candidates.len() as u64);
            st.round.scan_ns.record_duration(t0.elapsed());
        }
        out
    }

    /// `eval` for every candidate, in candidate order, through
    /// [`scan`](Self::scan).
    fn scan_map<R: Send>(
        &self,
        candidates: &[Edge],
        eval: impl Fn(&dyn GainOracle, Edge) -> R + Sync,
    ) -> Vec<R> {
        let per_span = self.scan(candidates, |oracle, span| {
            span.iter().map(|&p| eval(oracle, p)).collect::<Vec<R>>()
        });
        per_span.into_iter().flatten().collect()
    }

    /// Number of committed picks so far.
    #[must_use]
    pub fn picks(&self) -> usize {
        self.protectors.len()
    }

    /// Number of picks charged to target `t` so far.
    #[must_use]
    pub fn charged(&self, t: usize) -> usize {
        self.per_target[t].len()
    }

    /// Scans the current candidate set and returns the first maximizer of
    /// `eval` under `better` **without committing it**. `None` from `eval`
    /// skips a candidate; `None` overall means no candidate scored.
    pub fn select_custom<S: Send>(
        &self,
        eval: impl Fn(&dyn GainOracle, Edge) -> Option<S> + Sync,
        better: impl Fn(&S, &S) -> bool + Sync,
    ) -> Option<(S, Edge)> {
        let candidates = self.oracle.candidates(self.policy);
        // One fused first-maximizer fold per span (no per-round score
        // vector), then the canonical reduce over the span maxima.
        let span_best = self.scan(&candidates, |oracle, span| {
            first_max(
                span.iter().filter_map(|&p| eval(oracle, p).map(|s| (s, p))),
                &better,
            )
        });
        first_max(span_best.into_iter().flatten(), &better)
    }

    /// Commits protector `p`: deletes it through the oracle, pushes it to
    /// the plan, and records the audit step. Returns the realized break
    /// count.
    pub fn commit_pick(&mut self, p: Edge, charged: Option<usize>, own: Option<usize>) -> usize {
        self.commit_picks(&[(p, charged, own)])[0]
    }

    /// **The** commit path of every round mode: deletes `picks` —
    /// `(protector, charged target, own breaks)` — through one
    /// [`GainOracle::commit_batch`] and records one audit step per pick,
    /// `own` defaulting to the
    /// realized total. Returns the realized break counts in pick order.
    fn commit_picks(&mut self, picks: &[(Edge, Option<usize>, Option<usize>)]) -> Vec<usize> {
        let edges: Vec<Edge> = picks.iter().map(|&(e, ..)| e).collect();
        let mut sim = self.oracle.total_similarity();
        let t0 = self.obs.is_enabled().then(Instant::now);
        let broken = self.oracle.commit_batch(&edges);
        if let (Some(t0), Some(st)) = (t0, self.obs.stats()) {
            st.round.rounds.inc();
            st.round.commit_ns.record_duration(t0.elapsed());
            if picks.len() > 1 {
                st.round.batch_commits.inc();
            }
        }
        for (&(p, charged, own), &broken) in picks.iter().zip(&broken) {
            sim -= broken;
            if let Some(t) = charged {
                self.per_target[t].push(p);
            }
            self.protectors.push(p);
            self.steps.push(StepRecord {
                round: self.steps.len(),
                protector: p,
                charged_target: charged,
                own_broken: own.unwrap_or(broken),
                total_broken: broken,
                similarity_after: sim,
            });
        }
        debug_assert_eq!(sim, self.oracle.total_similarity());
        broken
    }

    /// Commits the batch `accepted` holds (nothing when it is empty) and
    /// returns its size.
    fn commit_accepted(&mut self, accepted: &BatchAcceptor) -> usize {
        if accepted.picks.is_empty() {
            return 0;
        }
        let broken = self.commit_picks(&accepted.picks);
        debug_assert_eq!(
            broken, accepted.gains,
            "disjoint batch gains must be exact at commit"
        );
        broken.len()
    }

    /// **The** CT/WT selection round, single-pick or batched: charges
    /// every candidate to the first `open` target maximizing its
    /// `(own, cross)` split, ranks the candidates by that split descending
    /// with ties to the canonically smallest edge, and commits up to
    /// `room` of them together. Returns the number committed (0 when no
    /// candidate breaks anything, or no pick fits).
    ///
    /// With `room == 1` the round keeps the first maximizer of the fused
    /// [`select_custom`](Self::select_custom) fold and never enumerates a
    /// gain set. With more room it sorts the scanned scores and accepts
    /// picks through a [`BatchAcceptor`]: each accepted gain set
    /// ([`GainOracle::gain_set`]) is disjoint from the others, which keeps
    /// every accepted `(own, cross)` split exact at commit, per target. A
    /// pick must also fit its charged target's remaining budget: a
    /// candidate whose target is full this round is skipped and rescored
    /// next round, when the target has left the open set.
    fn round(&mut self, open: &[(usize, usize)], room: usize) -> usize {
        let eval = |oracle: &dyn GainOracle, p| charge_to_open(&oracle.gain_vector(p), open);
        let split = |&(own, cross, _): &(usize, usize, usize)| (own, cross);
        let ranked: Vec<((usize, usize, usize), Edge)> = if room == 1 {
            self.select_custom(eval, |a, b| split(a) > split(b))
                .into_iter()
                .collect()
        } else {
            let candidates = self.oracle.candidates(self.policy);
            let scores = self.scan_map(&candidates, eval);
            let mut ranked: Vec<_> = scores
                .into_iter()
                .zip(candidates)
                .filter_map(|(s, p)| Some((s?, p)))
                .collect();
            ranked.sort_unstable_by_key(|&(s, p)| (Reverse(split(&s)), p));
            ranked
        };
        // Per-target room left this round, indexed by target id (`open`
        // is in ascending target order).
        let mut budget_left = vec![0usize; open.last().map_or(0, |&(t, _)| t + 1)];
        for &(t, remaining) in open {
            budget_left[t] = remaining;
        }
        let mut batch = BatchAcceptor::new(room);
        // `charge_to_open` scores only breakers, so every `own + cross > 0`.
        for ((own, cross, t), p) in ranked {
            if batch.is_full() {
                break;
            }
            if budget_left[t] == 0 {
                continue; // target full this round: rescored next round
            }
            let pick = (p, Some(t), Some(own));
            match batch.offer(self.oracle.as_ref(), &self.obs, pick, own + cross) {
                Admission::Accepted => budget_left[t] -= 1,
                Admission::Skipped => {}
                Admission::Closed => break,
            }
        }
        self.commit_accepted(&batch)
    }

    /// The lazy gain queue behind both global-budget entry points (Minoux's
    /// accelerated greedy; CELF, Leskovec et al. 2007): one sharded bound
    /// sweep, then rounds that pop their picks from a max-heap of
    /// `(cached gain, Reverse(edge), round evaluated)` until `k` picks are
    /// committed or gains are exhausted, each round committing up to `j`.
    ///
    /// A stale top is refreshed through [`GainOracle::gain`] and pushed
    /// back; deletions never raise a gain, so every cached gain bounds the
    /// current one and a fresh top is the round's next pick in
    /// `(gain desc, edge asc)` order — the order a full scan-and-sort of
    /// the current gains would give. Fresh tops are offered to one
    /// [`BatchAcceptor`]; `requeue` says what happens to a skipped one.
    /// A closed batch or a cached gain of 0 ends the round.
    fn run_queue(&mut self, k: usize, j: usize, requeue: Requeue) {
        let j = j.max(1);
        if self.picks() >= k {
            return;
        }
        let candidates = self.oracle.candidates(self.policy);
        let gains = self.scan_map(&candidates, |oracle, p| oracle.gain(p));
        // Ordering by Reverse(edge) second pops the canonically smallest
        // edge on gain ties — the scan's tie-break exactly. A zero gain
        // never rises, so it never enters the heap.
        let mut heap: BinaryHeap<(usize, Reverse<Edge>, usize)> = candidates
            .into_iter()
            .zip(gains)
            .filter(|&(_, g)| g > 0)
            .map(|(p, g)| (g, Reverse(p), 0usize))
            .collect();
        let mut set_aside = Vec::new();
        let mut round = 0usize;
        while self.picks() < k {
            let t0 = self.obs.is_enabled().then(Instant::now);
            let mut refreshed = 0u64;
            let mut batch = BatchAcceptor::new(j.min(k - self.picks()));
            while !batch.is_full() {
                let Some(top) = heap.pop() else {
                    break;
                };
                let (cached, Reverse(p), evaluated_at) = top;
                if cached == 0 {
                    break; // all remaining upper bounds are 0
                }
                if evaluated_at < round {
                    // Stale bound: refresh and reinsert.
                    let fresh = self.oracle.gain(p);
                    refreshed += 1;
                    debug_assert!(fresh <= cached, "a deletion raised a gain");
                    heap.push((fresh, Reverse(p), round));
                    continue;
                }
                match batch.offer(self.oracle.as_ref(), &self.obs, (p, None, None), cached) {
                    Admission::Accepted => {}
                    Admission::Skipped if requeue == Requeue::SetAside => set_aside.push(top),
                    Admission::Skipped | Admission::Closed => {
                        heap.push(top);
                        break;
                    }
                }
            }
            if let (Some(t0), Some(st)) = (t0, self.obs.stats()) {
                st.round.candidates_probed.add(refreshed);
                st.round.scan_ns.record_duration(t0.elapsed());
            }
            // Set-aside tops go stale at the commit below and are
            // refreshed before they can win again.
            heap.extend(set_aside.drain(..));
            match self.commit_accepted(&batch) {
                0 => break,
                committed => round += committed,
            }
        }
    }

    /// Runs SGB rounds until `k` picks are committed or gains are
    /// exhausted, committing up to `j` picks per round.
    ///
    /// `j = 1` is the sequential greedy: each round commits the candidate
    /// with the highest total gain (ties to the canonically smallest
    /// edge). Larger `j` accepts, per round, the top candidates whose
    /// current gain sets are pairwise disjoint, trading strict greedy
    /// order for up to `j`× fewer commits; the accepted picks of one round
    /// are a greedy-feasible commit order because their gain sets do not
    /// interact. A conflicting candidate is set aside for the round and
    /// the next-ranked ones are offered instead. Oracles without gain sets
    /// commit one pick per round.
    ///
    /// The rounds pop their picks from the lazy gain queue rather than
    /// rescanning every candidate: one sharded sweep, then only stale
    /// heap tops are re-evaluated. The plan equals a per-round
    /// scan-and-sort of the current gains.
    pub fn run_global(&mut self, k: usize, j: usize) {
        self.run_queue(k, j, Requeue::SetAside);
    }

    /// Runs CELF rounds (Leskovec et al. 2007) until `k` picks are
    /// committed or gains are exhausted, committing up to `j` picks per
    /// round from the same lazy gain queue as [`run_global`](Self::run_global).
    ///
    /// Each round pops up to `j` **fresh** heap tops whose gain sets are
    /// pairwise disjoint and commits them as one batch through
    /// [`GainOracle::commit_batch`]. Unlike SGB, a popped fresh top whose
    /// gain set conflicts with the accepted set (or cannot be enumerated)
    /// is pushed back and the batch commits early — the conflicting
    /// candidate is re-evaluated in the next round, exactly like a stale
    /// bound. The round counter advances by the batch size at commit, so
    /// every cached bound predating the batch is re-verified before it can
    /// win.
    ///
    /// Disjointness makes every accepted cached gain exact at commit. A
    /// round with room for one pick never enumerates a gain set, so
    /// `j = 1` is the classic CELF loop — bit-identical to
    /// `run_global(k, 1)` for every oracle and thread count.
    pub fn run_global_lazy(&mut self, k: usize, j: usize) {
        self.run_queue(k, j, Requeue::Close);
    }

    /// One CT/WT round: charges every candidate to the first `open`
    /// target maximizing its lexicographic `(own, cross)` split (ascending
    /// target order breaks own-level ties) and commits up to `room` of the
    /// best, each within its target's remaining budget. `open` lists
    /// `(target, remaining budget)` pairs in ascending target order (every
    /// `remaining >= 1`).
    ///
    /// `room == 1` commits the first maximizer; larger rooms accept only
    /// picks with pairwise-disjoint gain sets, which keeps every recorded
    /// split exact. Returns the number of committed picks; 0 means global
    /// exhaustion (no candidate breaks anything) or an empty `open`/`room`.
    pub fn select_for_targets(&mut self, open: &[(usize, usize)], room: usize) -> usize {
        if open.is_empty() || room == 0 {
            return 0;
        }
        self.round(open, room)
    }

    /// Finishes a global-budget run (SGB/CELF shape: no per-target
    /// bookkeeping in the plan).
    #[must_use]
    pub fn into_global_plan(self, algorithm: AlgorithmKind) -> ProtectionPlan {
        ProtectionPlan {
            algorithm,
            protectors: self.protectors,
            initial_similarity: self.initial_similarity,
            final_similarity: self.oracle.total_similarity(),
            steps: self.steps,
            per_target: Vec::new(),
        }
    }

    /// Finishes a local-budget run (CT/WT shape: the plan carries the
    /// per-target protector assignment).
    #[must_use]
    pub fn into_targeted_plan(self, algorithm: AlgorithmKind) -> ProtectionPlan {
        ProtectionPlan {
            algorithm,
            protectors: self.protectors,
            initial_similarity: self.initial_similarity,
            final_similarity: self.oracle.total_similarity(),
            steps: self.steps,
            per_target: self.per_target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tpp_exec::balanced_ranges;

    #[test]
    fn balanced_ranges_cover_and_balance() {
        let weights = vec![1usize, 9, 1, 1, 9, 1, 1, 9, 1, 1];
        for parts in 1..=6 {
            let ranges = balanced_ranges(&weights, parts);
            assert!(ranges.len() <= parts);
            let mut cursor = 0usize;
            for r in &ranges {
                assert_eq!(r.start, cursor);
                assert!(r.end > r.start, "empty range");
                cursor = r.end;
            }
            assert_eq!(cursor, weights.len());
        }
        // Degenerate inputs.
        assert!(balanced_ranges(&[], 4).is_empty());
        assert_eq!(balanced_ranges(&[5], 4), vec![0..1]);
    }

    #[test]
    fn sharded_argmax_matches_sequential_scan_exactly() {
        // Scores with many ties: first maximizer must win at every
        // thread count, including ones that don't divide the length.
        let items: Vec<Edge> = (0..97u32).map(|i| Edge::new(i, i + 1)).collect();
        let score = |e: &Edge| usize::from(e.u() % 7 == 3);
        let seq =
            items
                .iter()
                .map(|e| (score(e), *e))
                .fold(None::<(usize, Edge)>, |best, (s, e)| {
                    if best.is_none_or(|(b, _)| s > b) {
                        Some((s, e))
                    } else {
                        best
                    }
                });
        for threads in [1usize, 2, 3, 4, 8, 16] {
            let exec = Parallelism::new(threads);
            let got = sharded_argmax(
                &items,
                &exec,
                None,
                || (),
                |(), e| Some(score(&e)),
                |a, b| a > b,
            );
            assert_eq!(got, seq, "threads = {threads}");
        }
        // Weighted splitting must not change the winner either.
        let weights: Vec<usize> = items.iter().map(|e| 1 + e.u() as usize % 5).collect();
        let got = sharded_argmax(
            &items,
            &Parallelism::new(4),
            Some(&weights),
            || (),
            |(), e| Some(score(&e)),
            |a, b| a > b,
        );
        assert_eq!(got, seq);
    }

    #[test]
    fn single_slot_batch_rounds_never_fall_back() {
        // With room for one pick there is nothing to prove disjoint, so an
        // oracle without gain sets must not count a sequential fallback.
        type Strategy =
            fn(&crate::TppInstance, usize, usize, &crate::GreedyConfig) -> ProtectionPlan;
        let g = tpp_graph::generators::holme_kim(80, 3, 0.4, 3);
        let instance = crate::TppInstance::with_random_targets(g, 4, 3);
        let strategies: [(&str, Strategy); 2] = [
            ("sgb", crate::sgb_greedy_batch),
            ("celf", crate::celf_greedy_batch),
        ];
        for (name, strategy) in strategies {
            let recorder = Recorder::enabled();
            let config = crate::GreedyConfig::snapshot(tpp_motif::Motif::Triangle)
                .with_obs(recorder.clone());
            let plan = strategy(&instance, 1, 4, &config);
            assert_eq!(plan.deletions(), 1, "{name}");
            let fallbacks = recorder.stats().unwrap().round.sequential_fallbacks.get();
            assert_eq!(fallbacks, 0, "{name}");
        }
    }

    #[test]
    fn unbounded_batch_room_equals_the_candidate_count() {
        // `j` is caller-supplied (`tpp protect --batch`): a room far past
        // the candidate supply must neither reserve it nor overflow the
        // conflict budget, and must commit what a room of every candidate
        // commits.
        let g = tpp_graph::generators::holme_kim(120, 3, 0.4, 7);
        let instance = crate::TppInstance::with_random_targets(g, 6, 7);
        let motif = tpp_motif::Motif::Triangle;
        let run = |k: usize, j: usize| {
            let oracle = crate::IndexOracle::new(instance.released(), instance.targets(), motif);
            let mut engine = RoundEngine::new(
                Box::new(oracle),
                CandidatePolicy::SubgraphEdges,
                Parallelism::sequential(),
            );
            engine.run_global(k, j);
            engine.into_global_plan(AlgorithmKind::SgbGreedy)
        };
        let candidates = crate::IndexOracle::new(instance.released(), instance.targets(), motif)
            .candidates(CandidatePolicy::SubgraphEdges)
            .len();
        assert!(candidates > 1);
        for k in [1, 5, usize::MAX] {
            let unbounded = run(k, usize::MAX);
            assert_eq!(unbounded, run(k, candidates), "k = {k}");
            unbounded.check_invariants();
        }
    }

    /// An [`IndexOracle`](crate::IndexOracle) that counts its `gain` calls.
    struct CountingOracle<'a> {
        inner: crate::IndexOracle<'a>,
        gains: &'a AtomicUsize,
    }

    impl GainOracle for CountingOracle<'_> {
        fn total_similarity(&self) -> usize {
            self.inner.total_similarity()
        }

        fn gain(&self, p: Edge) -> usize {
            self.gains.fetch_add(1, Ordering::Relaxed);
            self.inner.gain(p)
        }

        fn gain_vector(&self, p: Edge) -> Vec<usize> {
            self.inner.gain_vector(p)
        }

        fn candidates(&self, policy: CandidatePolicy) -> Vec<Edge> {
            self.inner.candidates(policy)
        }

        fn commit(&mut self, p: Edge) -> usize {
            self.inner.commit(p)
        }

        fn commit_batch(&mut self, edges: &[Edge]) -> Vec<usize> {
            self.inner.commit_batch(edges)
        }

        fn gain_set(&self, p: Edge) -> Option<Vec<InstanceId>> {
            self.inner.gain_set(p)
        }

        fn set_parallelism(&mut self, exec: &Parallelism) {
            self.inner.set_parallelism(exec);
        }

        fn target_count(&self) -> usize {
            self.inner.target_count()
        }

        fn candidate_weight(&self, p: Edge) -> usize {
            self.inner.candidate_weight(p)
        }
    }

    #[test]
    fn candidates_probed_counts_every_gain_evaluation() {
        // The sweep and every lazy refresh are gain evaluations; the stats
        // must count each one, for SGB and CELF rounds alike.
        let g = tpp_graph::generators::holme_kim(300, 4, 0.5, 5);
        let instance = crate::TppInstance::with_random_targets(g, 30, 5);
        let motif = tpp_motif::Motif::Triangle;
        for (name, lazy) in [("sgb", false), ("celf", true)] {
            for (j, threads) in [(1, 1), (1, 2), (4, 1), (4, 2)] {
                let gains = AtomicUsize::new(0);
                let oracle = CountingOracle {
                    inner: crate::IndexOracle::new(instance.released(), instance.targets(), motif),
                    gains: &gains,
                };
                let recorder = Recorder::enabled();
                let mut engine = RoundEngine::new(
                    Box::new(oracle),
                    CandidatePolicy::SubgraphEdges,
                    Parallelism::new(threads).attach_recorder(recorder.clone()),
                );
                if lazy {
                    engine.run_global_lazy(20, j);
                } else {
                    engine.run_global(20, j);
                }
                assert_eq!(engine.picks(), 20, "{name}");
                let st = recorder.stats().unwrap();
                let probed = st.round.candidates_probed.get();
                let label = format!("{name} j={j} x{threads}");
                assert_eq!(probed, gains.load(Ordering::Relaxed) as u64, "{label}");
                assert_eq!(st.round.scans.get(), 1, "{label}: one sweep");
                // One sample for the sweep, one per round's selection.
                let samples = 1 + st.round.rounds.get();
                assert_eq!(st.round.scan_ns.snapshot().count, samples, "{label}");
            }
        }
    }

    #[test]
    fn sharded_map_preserves_item_order() {
        let items: Vec<Edge> = (0..41u32).map(|i| Edge::new(i, i + 1)).collect();
        let expect: Vec<u32> = items.iter().map(|e| e.u() * 2).collect();
        for threads in [1usize, 2, 5, 16] {
            let exec = Parallelism::new(threads);
            let got = sharded_map(&items, &exec, None, || (), |(), e: Edge| e.u() * 2);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn sharded_argmax_skips_none_scores() {
        let items: Vec<Edge> = (0..10u32).map(|i| Edge::new(i, i + 1)).collect();
        let exec = Parallelism::new(3);
        let none_at_all = sharded_argmax(
            &items,
            &exec,
            None,
            || (),
            |(), _| None::<usize>,
            |a, b| a > b,
        );
        assert_eq!(none_at_all, None);
        assert_eq!(
            sharded_argmax::<Edge, (), usize, _, _, _>(
                &[],
                &exec,
                None,
                || (),
                |(), _| Some(1),
                |a, b| a > b
            ),
            None
        );
    }
}
