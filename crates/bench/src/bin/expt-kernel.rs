//! `expt-kernel` — kernel vectorization acceptance: per-stencil row
//! GFLOP/s (scalar vs SIMD) and the level-9 steady-state step wall under
//! scalar / SIMD / SIMD+bands (see `ftsg_bench::experiments::kernel`).
//! Also times the d = 3 row kernels (the median wall of one level-6³
//! step). Emits `BENCH_pr8.json` (override the path with `BENCH_OUT`),
//! `BENCH_pr12.json` (`BENCH_pr12_smoke.json` under `--quick`) and
//! `results/kernel.csv`.
//!
//! Accepts the standard experiment flags; only `--reps` (timing samples,
//! scaled ×10) and `--quick` matter here.

use ftsg_bench::experiments::kernel;
use ftsg_bench::table::utc_today;
use ftsg_bench::Opts;

fn main() {
    let opts = Opts::from_args();
    let iters = if opts.quick { 10 } else { opts.reps.max(3) * 10 };
    let report = kernel::run(".", iters);
    report.table().emit("results/kernel.csv");
    assert!(report.bitwise_ok, "SIMD/banded paths drifted from the scalar reference");
    println!(
        "level-9 step: simd {:.2}x vs scalar, simd+bands {:.2}x vs scalar (isa: {})",
        report.simd_speedup_vs_scalar, report.bands_speedup_vs_scalar, report.isa
    );
    if let Some(v) = report.speedup_vs_pr1_fast {
        println!("vs committed BENCH_pr1 fast path: {v:.2}x (required: 2.0x)");
    }
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_pr8.json".into());
    std::fs::write(&out, report.to_json(&utc_today())).expect("write bench json");
    println!("wrote {out}");
    let nd_out = if opts.quick { "BENCH_pr12_smoke.json" } else { "BENCH_pr12.json" };
    std::fs::write(nd_out, report.to_json_nd(&utc_today())).expect("write nd bench json");
    println!("wrote {nd_out}");
}
