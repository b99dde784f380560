//! Budget division strategies for the Multi-Local-Budget TPP problem
//! (paper §V-A): TBD (target-subgraph-based) and DBD (degree-product-based).

use crate::problem::TppInstance;
use serde::{Deserialize, Serialize};
use std::fmt;
use tpp_graph::NeighborAccess;
use tpp_motif::Motif;

/// How a global budget `k` is divided into per-target sub-budgets `k_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BudgetDivision {
    /// Target-subgraph-based division: `k_t ∝ |W_t|`, capped at `|W_t|`.
    /// More vulnerable targets (more motif evidence) get more budget.
    Tbd,
    /// Degree-product-based division: `k_t ∝ d_u · d_v` for `t = (u, v)`
    /// (endpoint degrees in the released graph), capped at `|W_t|`.
    Dbd,
}

impl BudgetDivision {
    /// Stable lowercase name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BudgetDivision::Tbd => "tbd",
            BudgetDivision::Dbd => "dbd",
        }
    }
}

impl fmt::Display for BudgetDivision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Divides the global budget `k` into per-target budgets using `division`.
///
/// Properties guaranteed:
/// * `Σ k_t ≤ k`;
/// * `k_t ≤ |W_t|` for every target (the paper's constriction — budget
///   beyond a target's instance count cannot be spent);
/// * apportionment follows the largest-remainder method on the strategy's
///   weights, so the split is deterministic and as proportional as integer
///   budgets allow;
/// * leftover budget (from caps) is redistributed to targets with headroom,
///   in descending-weight order.
#[must_use]
pub fn divide_budget(
    division: BudgetDivision,
    k: usize,
    instance: &TppInstance,
    motif: Motif,
) -> Vec<usize> {
    let subgraph_counts: Vec<usize> =
        tpp_motif::count_all_targets(instance.released(), instance.targets(), motif);
    let weights: Vec<f64> = match division {
        BudgetDivision::Tbd => subgraph_counts.iter().map(|&c| c as f64).collect(),
        BudgetDivision::Dbd => instance
            .targets()
            .iter()
            .map(|t| (instance.released().degree(t.u()) * instance.released().degree(t.v())) as f64)
            .collect(),
    };
    apportion(k, &weights, &subgraph_counts)
}

/// Largest-remainder apportionment of `k` units across `weights`, with
/// per-slot caps.
fn apportion(k: usize, weights: &[f64], caps: &[usize]) -> Vec<usize> {
    let n = weights.len();
    debug_assert_eq!(n, caps.len());
    let total: f64 = weights.iter().sum();
    let mut out = vec![0usize; n];
    if n == 0 || k == 0 {
        return out;
    }
    if total <= 0.0 {
        return out; // no weight anywhere (all targets already similarity 0)
    }
    // Integer floor shares + remainders.
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(n);
    let mut assigned = 0usize;
    for i in 0..n {
        let exact = k as f64 * weights[i] / total;
        let mut floor = exact.floor() as usize;
        if floor > caps[i] {
            floor = caps[i];
        }
        out[i] = floor;
        assigned += floor;
        let frac = if out[i] < caps[i] {
            exact - exact.floor()
        } else {
            -1.0
        };
        remainders.push((frac, i));
    }
    // Hand out the rest by descending remainder (then descending weight,
    // then index for determinism), respecting caps; repeat passes until
    // budget or headroom is exhausted.
    while assigned < k {
        remainders.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    weights[b.1]
                        .partial_cmp(&weights[a.1])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.1.cmp(&b.1))
        });
        let mut progressed = false;
        for &(_, i) in &remainders {
            if assigned == k {
                break;
            }
            if out[i] < caps[i] {
                out[i] += 1;
                assigned += 1;
                progressed = true;
            }
        }
        if !progressed {
            break; // every target is capped; leftover budget is unusable
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_graph::{Edge, Graph};

    /// Star-of-triangles fixture: targets with different evidence counts.
    /// Target (0,1): 3 common neighbors {2,3,4}; target (5,6): 1 common
    /// neighbor {7}.
    fn fixture() -> TppInstance {
        let g = Graph::from_edges([
            (0u32, 1u32), // target A
            (0, 2),
            (2, 1),
            (0, 3),
            (3, 1),
            (0, 4),
            (4, 1),
            (5, 6), // target B
            (5, 7),
            (7, 6),
        ]);
        TppInstance::new(g, vec![Edge::new(0, 1), Edge::new(5, 6)]).unwrap()
    }

    #[test]
    fn tbd_proportional_to_subgraphs() {
        let inst = fixture();
        // |W_A| = 3, |W_B| = 1; k = 4 splits 3/1.
        let k = divide_budget(BudgetDivision::Tbd, 4, &inst, Motif::Triangle);
        assert_eq!(k, vec![3, 1]);
    }

    #[test]
    fn budgets_capped_by_instance_count() {
        let inst = fixture();
        // k = 10 > total evidence 4: every target capped at |W_t|.
        let k = divide_budget(BudgetDivision::Tbd, 10, &inst, Motif::Triangle);
        assert_eq!(k, vec![3, 1]);
        let k = divide_budget(BudgetDivision::Dbd, 10, &inst, Motif::Triangle);
        assert_eq!(k, vec![3, 1]);
    }

    #[test]
    fn sum_never_exceeds_k() {
        let inst = fixture();
        for k in 0..8 {
            for div in [BudgetDivision::Tbd, BudgetDivision::Dbd] {
                let parts = divide_budget(div, k, &inst, Motif::Triangle);
                assert!(
                    parts.iter().sum::<usize>() <= k,
                    "k = {k}, {div}: {parts:?}"
                );
            }
        }
    }

    #[test]
    fn dbd_prefers_high_degree_products() {
        let inst = fixture();
        // deg(0) = deg(1) = 3 (after removing the target) => product 9;
        // deg(5) = deg(6) = 1 => product 1. k = 2 should go mostly to A.
        let k = divide_budget(BudgetDivision::Dbd, 2, &inst, Motif::Triangle);
        assert_eq!(k[0], 2);
        assert_eq!(k[1], 0);
    }

    #[test]
    fn leftover_redistributed_to_headroom() {
        let inst = fixture();
        // k = 4 under DBD: exact shares 3.6 / 0.4 -> A floored to cap 3,
        // leftover goes to B (headroom 1).
        let k = divide_budget(BudgetDivision::Dbd, 4, &inst, Motif::Triangle);
        assert_eq!(k, vec![3, 1]);
    }

    #[test]
    fn zero_budget_and_zero_weights() {
        let inst = fixture();
        assert_eq!(
            divide_budget(BudgetDivision::Tbd, 0, &inst, Motif::Triangle),
            vec![0, 0]
        );
        // Rectangle evidence in this fixture is 0 for both targets: all
        // weights zero -> zero budgets regardless of k.
        let k = divide_budget(BudgetDivision::Tbd, 5, &inst, Motif::Rectangle);
        assert_eq!(k.iter().sum::<usize>(), 0);
    }

    #[test]
    fn names() {
        assert_eq!(BudgetDivision::Tbd.to_string(), "tbd");
        assert_eq!(BudgetDivision::Dbd.to_string(), "dbd");
    }
}
