//! Extensions beyond the paper's core contribution: the §VII future-work
//! items (Katz-aware defense, target-node privacy), importance-weighted
//! targets, and the link-switching anti-baseline of §VI-D.

mod katz_defense;
mod node_privacy;
mod switching;
mod weighted;

pub use katz_defense::{
    katz_defense_greedy, katz_pair_score, total_katz_exposure, KatzDefenseConfig,
};
pub use node_privacy::{
    full_isolation_is_self_protecting, node_exposure, node_instance, partial_node_instance,
    protect_node, protect_node_links, NodeProtection,
};
pub use switching::{backfire_rate, backfire_rate_parallel, random_switch, SwitchOutcome};
pub use weighted::{weighted_celf_greedy_batch, WeightedIndexOracle};
