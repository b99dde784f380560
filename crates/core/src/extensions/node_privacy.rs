//! Target *node* privacy — the paper's §VII future-work item (2): protect a
//! person rather than a single link.
//!
//! Two regimes, both reduced to TPP instances so every guarantee carries
//! over:
//!
//! * **Full isolation** ([`node_instance`], [`protect_node`]): every
//!   incident link is a target. A useful structural fact falls out — after
//!   phase 1 the victim is isolated, and since *every* path motif instance
//!   for a target `(victim, x)` must start with an edge incident to the
//!   victim (all of which are targets, hence deleted), **no motif evidence
//!   can survive**. `k* = 0`: isolation alone already defeats every
//!   subgraph-pattern attacker. [`full_isolation_is_self_protecting`] keeps
//!   this observation executable.
//! * **Partial disclosure** ([`partial_node_instance`]): the person hides
//!   only the *sensitive subset* of their links (the cancer-doctor link)
//!   and keeps the rest public. The public incident links now feed motif
//!   evidence about the hidden ones — this is the realistic, non-trivial
//!   case the protectors fight.

use crate::algorithms::{sgb_greedy, GreedyConfig};
use crate::error::TppError;
use crate::plan::ProtectionPlan;
use crate::problem::TppInstance;
use tpp_graph::{Edge, Graph, NodeId};
use tpp_motif::Motif;

/// A node-protection result.
#[derive(Debug, Clone)]
pub struct NodeProtection {
    /// The TPP instance whose targets are the node's incident edges.
    pub instance: TppInstance,
    /// The protector plan.
    pub plan: ProtectionPlan,
    /// The protected node.
    pub node: NodeId,
}

impl NodeProtection {
    /// The graph to publish: node's links removed plus protectors deleted.
    #[must_use]
    pub fn released_graph(&self) -> crate::Release {
        self.instance.apply_protectors(&self.plan.protectors)
    }
}

/// Builds the TPP instance for hiding `node`: targets = all incident edges.
///
/// # Errors
/// [`TppError::NoTargets`] when the node is already isolated.
pub fn node_instance(g: Graph, node: NodeId) -> Result<TppInstance, TppError> {
    let targets: Vec<Edge> = g
        .neighbors(node)
        .iter()
        .map(|&nbr| Edge::new(node, nbr))
        .collect();
    TppInstance::new(g, targets)
}

/// Protects `node` with SGB-Greedy(-R) under budget `k`.
///
/// # Errors
/// Propagates [`node_instance`] errors.
pub fn protect_node(
    g: Graph,
    node: NodeId,
    k: usize,
    motif: Motif,
) -> Result<NodeProtection, TppError> {
    let instance = node_instance(g, node)?;
    let plan = sgb_greedy(&instance, k, &GreedyConfig::scalable(motif));
    Ok(NodeProtection {
        instance,
        plan,
        node,
    })
}

/// Verifies the structural fact documented above: with every incident link
/// a target, phase 1 alone drives motif evidence to zero for any motif.
/// Returns the (always-zero) residual evidence; callers can assert on it.
#[must_use]
pub fn full_isolation_is_self_protecting(g: &Graph, node: NodeId, motif: Motif) -> usize {
    match node_instance(g.clone(), node) {
        Err(_) => 0, // already isolated
        Ok(instance) => instance.initial_similarity(motif),
    }
}

/// Builds the *partial-disclosure* instance: only the links from `node` to
/// `sensitive` neighbors are hidden; the rest of the node's links stay
/// public and can leak motif evidence about the hidden ones.
///
/// # Errors
/// [`TppError::TargetNotInGraph`] if some `sensitive` neighbor is not
/// actually adjacent, [`TppError::NoTargets`] for an empty subset.
pub fn partial_node_instance(
    g: Graph,
    node: NodeId,
    sensitive: &[NodeId],
) -> Result<TppInstance, TppError> {
    let targets: Vec<Edge> = sensitive.iter().map(|&nbr| Edge::new(node, nbr)).collect();
    TppInstance::new(g, targets)
}

/// Protects the sensitive subset of `node`'s links with SGB-Greedy(-R).
///
/// # Errors
/// Propagates [`partial_node_instance`] errors.
pub fn protect_node_links(
    g: Graph,
    node: NodeId,
    sensitive: &[NodeId],
    k: usize,
    motif: Motif,
) -> Result<NodeProtection, TppError> {
    let instance = partial_node_instance(g, node, sensitive)?;
    let plan = sgb_greedy(&instance, k, &GreedyConfig::scalable(motif));
    Ok(NodeProtection {
        instance,
        plan,
        node,
    })
}

/// Residual inference risk for the hidden node: the summed motif evidence
/// over its (removed) incident links in the published graph. Zero means a
/// motif-based adversary cannot reconstruct any of the node's links.
#[must_use]
pub fn node_exposure(protection: &NodeProtection, motif: Motif) -> usize {
    let released = protection.released_graph();
    protection
        .instance
        .targets()
        .iter()
        .map(|t| tpp_motif::count_target_subgraphs(&released, t.u(), t.v(), motif))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::generators::holme_kim;
    use tpp_graph::NeighborAccess;

    #[test]
    fn node_instance_targets_every_incident_edge() {
        let g = holme_kim(60, 3, 0.4, 5);
        let node = 0u32;
        let degree = g.degree(node);
        let inst = node_instance(g, node).unwrap();
        assert_eq!(inst.target_count(), degree);
        assert_eq!(inst.released().degree(node), 0, "node isolated in phase 1");
    }

    #[test]
    fn isolated_node_is_an_error() {
        let mut g = holme_kim(30, 3, 0.3, 1);
        let lonely = g.add_node();
        assert_eq!(node_instance(g, lonely).unwrap_err(), TppError::NoTargets);
    }

    #[test]
    fn full_isolation_needs_no_protectors() {
        // The structural degeneracy, executable: isolating the node removes
        // every motif instance before any protector is spent.
        let g = holme_kim(80, 3, 0.5, 9);
        for motif in Motif::ALL {
            assert_eq!(
                full_isolation_is_self_protecting(&g, 5, motif),
                0,
                "{motif}"
            );
        }
        let protection = protect_node(g, 5, usize::MAX, Motif::Triangle).unwrap();
        assert!(protection.plan.is_full_protection());
        assert_eq!(protection.plan.deletions(), 0, "k* = 0 under isolation");
        assert_eq!(node_exposure(&protection, Motif::Triangle), 0);
        assert_eq!(protection.released_graph().degree(5), 0);
    }

    #[test]
    fn partial_disclosure_is_the_hard_case() {
        // Hiding only some links leaves public incident links feeding
        // evidence; protectors are genuinely needed.
        let g = holme_kim(120, 4, 0.6, 2);
        // pick a hub and hide links to its two highest-degree neighbors
        let hub = (0..g.node_count() as u32)
            .max_by_key(|&u| g.degree(u))
            .unwrap();
        let mut nbrs: Vec<u32> = g.neighbors(hub).to_vec();
        nbrs.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
        let sensitive = &nbrs[..2];

        let inst = partial_node_instance(g.clone(), hub, sensitive).unwrap();
        assert!(
            inst.initial_similarity(Motif::Triangle) > 0,
            "public links must leak evidence for this fixture"
        );
        let protection =
            protect_node_links(g, hub, sensitive, usize::MAX, Motif::Triangle).unwrap();
        assert!(
            protection.plan.deletions() > 0,
            "protectors genuinely needed"
        );
        assert!(protection.plan.is_full_protection());
        assert_eq!(node_exposure(&protection, Motif::Triangle), 0);
    }

    #[test]
    fn partial_instance_validates_neighbors() {
        let g = holme_kim(40, 3, 0.3, 4);
        // a non-neighbor must be rejected
        let node = 0u32;
        let non_neighbor = (1..40u32)
            .find(|&v| !g.has_edge(node, v))
            .expect("sparse graph has a non-neighbor");
        assert!(matches!(
            partial_node_instance(g, node, &[non_neighbor]),
            Err(TppError::TargetNotInGraph(_))
        ));
    }
}
