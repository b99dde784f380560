//! Fig. 5: running time as a function of budget `k` on the Arenas-email
//! graph — the plain greedy algorithms vs. their scalable `-R`
//! implementations (the paper reports roughly a 20× gap), plus RD/RDT.
//! The SGB series time lazy selection: SGB pops its picks from the
//! round engine's lazy gain queue (one sweep, then stale-top refreshes)
//! instead of rescanning every candidate per round as the paper's cost
//! model does.

use tpp_bench::{run_timing, speedup, timing_csv, ExpArgs, TimingConfig};
use tpp_datasets::arenas_email_like;
use tpp_motif::Motif;

fn main() {
    let args = ExpArgs::parse(1);
    let k_grid: Vec<usize> = if args.quick {
        vec![2, 5]
    } else {
        vec![5, 10, 15, 20, 25]
    };
    println!("Fig. 5 — Arenas-email substitute, |T| = 20, running time over k = {k_grid:?}");

    for motif in Motif::ALL {
        let config = TimingConfig {
            motif,
            targets: 20,
            include_plain: true,
            seed: args.seed,
        };
        let result = run_timing(|| arenas_email_like(args.seed), &k_grid, &config);
        println!("motif {}", result.motif);
        for series in &result.series {
            let total: f64 = series.points.iter().map(|&(_, t)| t).sum();
            println!("  {:<22} total {total:>9.3}s", series.label);
        }
        for (plain, scalable) in [
            ("SGB-Greedy", "SGB-Greedy-R"),
            ("CT-Greedy:TBD", "CT-Greedy-R:TBD"),
            ("WT-Greedy:TBD", "WT-Greedy-R:TBD"),
        ] {
            if let Some(s) = speedup(&result, plain, scalable) {
                println!("  speedup {plain} -> {scalable}: {s:.1}x");
            }
        }
        tpp_bench::write_result_file(
            &args.out_dir,
            &format!("fig5_{}.csv", result.motif),
            &timing_csv(&result),
        );

        // One instrumented SGB-R run per motif, emitting the same stats
        // schema as `tpp protect --stats` for bench-driver ingestion.
        let obs = tpp_obs::Recorder::enabled();
        let cfg = tpp_core::GreedyConfig::scalable(motif).with_obs(obs.clone());
        let instance =
            tpp_core::TppInstance::with_random_targets(arenas_email_like(args.seed), 20, args.seed);
        let _ = tpp_core::sgb_greedy(&instance, *k_grid.last().unwrap(), &cfg);
        tpp_bench::write_stats_json(
            &args.out_dir,
            &format!("fig5_{}_stats.json", result.motif),
            &obs,
        );
    }
}
