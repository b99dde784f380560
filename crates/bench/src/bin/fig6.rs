//! Fig. 6: running time as a function of budget `k` at DBLP scale,
//! `|T| = 50`, `k ≤ 25` — scalable `-R` algorithms and the RD/RDT
//! baselines only (plain algorithms are infeasible at this scale, as the
//! paper reports). The SGB series time lazy selection (one sweep, then
//! stale-top refreshes from the round engine's lazy gain queue).

use tpp_bench::{run_timing, timing_csv, ExpArgs, TimingConfig};
use tpp_datasets::dblp_like;
use tpp_motif::Motif;

fn main() {
    let args = ExpArgs::parse(1);
    let k_grid: Vec<usize> = if args.quick {
        vec![2, 5]
    } else {
        vec![5, 10, 15, 20, 25]
    };
    println!(
        "Fig. 6 — DBLP substitute ({:?} scale), |T| = 50, running time over k = {k_grid:?}",
        args.scale
    );

    for motif in Motif::ALL {
        let config = TimingConfig {
            motif,
            targets: 50,
            include_plain: false,
            seed: args.seed,
        };
        let result = run_timing(|| dblp_like(args.scale, args.seed), &k_grid, &config);
        println!("motif {}", result.motif);
        for series in &result.series {
            let total: f64 = series.points.iter().map(|&(_, t)| t).sum();
            println!("  {:<22} total {total:>9.3}s", series.label);
        }
        tpp_bench::write_result_file(
            &args.out_dir,
            &format!("fig6_{}.csv", result.motif),
            &timing_csv(&result),
        );
    }
}
