//! Closed-loop measurement of the direct workloads and the end-to-end
//! figures every workload reports.

use std::time::Instant;

use crate::stats::{mean, median_of_medians, percentile, supported_tail};
use crate::workload::{
    check_o3, execute, layout, reference, run_config, virt_recovery, Executed, Fault, Workload,
};

/// Runtime counters of one run, read from the always-on `Report.metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub msgs: f64,
    pub bytes: f64,
    pub retries: f64,
    pub msgs_recvd: f64,
    pub procs_created: f64,
    pub trace_dropped: f64,
}

impl Counts {
    pub fn of(report: &ulfm_sim::Report) -> Self {
        let m = &report.metrics;
        Counts {
            msgs: m.total_messages() as f64,
            bytes: m.total_bytes() as f64,
            retries: m.total_retries() as f64,
            msgs_recvd: m.ranks.iter().map(|r| r.msgs_recvd).sum::<u64>() as f64,
            procs_created: report.procs_created as f64,
            trace_dropped: report.trace_dropped as f64,
        }
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the run in the workload cycle (or the job index).
    pub index: usize,
    /// Host wall of the run, seconds.
    pub wall: f64,
    /// Virtual makespan, seconds (`None` when the run produced no report).
    pub makespan: Option<f64>,
    /// Virtual recovery time, failure runs only.
    pub virt_recovery: Option<f64>,
    /// `err / healthy err` of a passing run.
    pub ratio: Option<f64>,
    pub fault: Option<Fault>,
    pub counts: Counts,
}

impl Sample {
    /// Build the sample of a checked direct run.
    pub fn of(index: usize, ex: &Executed, checked: Result<f64, Fault>) -> Self {
        let r = &ex.report;
        Sample {
            index,
            wall: ex.wall,
            makespan: Some(r.makespan),
            virt_recovery: (r.procs_failed > 0).then(|| virt_recovery(r)),
            ratio: checked.as_ref().ok().copied(),
            fault: checked.err(),
            counts: Counts::of(r),
        }
    }
}

/// `(cycle entry, host wall)` of every passing run.
pub fn passing_walls(samples: &[Sample]) -> Vec<(usize, f64)> {
    samples.iter().filter(|s| s.fault.is_none()).map(|s| (s.index, s.wall)).collect()
}

/// Healthy reference error of every reference run.
pub fn references(w: &Workload, seed: u64) -> Vec<Option<f64>> {
    w.refs.iter().map(|r| reference(&r.label, &r.cfg, run_config(r.shape, r.world, seed))).collect()
}

/// The set-up of a direct workload: layout/grid-system construction for
/// every configuration of the cycle plus one warm-up run of the first
/// configuration in canonical order.
pub fn setup(w: &Workload, seed: u64) {
    for r in &w.runs {
        std::hint::black_box(layout(r.shape, r.technique).world_size());
    }
    let first = w.runs.iter().min_by_key(|r| r.label.clone()).expect("workload has runs");
    std::hint::black_box(execute(first, seed).report.makespan);
}

/// Run the cycle round-robin until `seconds` have passed, checking every
/// output.
pub fn timed_loop(
    w: &Workload,
    refs: &[Option<f64>],
    seed: u64,
    seconds: f64,
) -> (Vec<Sample>, f64) {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0usize;
    while t0.elapsed().as_secs_f64() < seconds {
        let k = i % w.runs.len();
        let r = &w.runs[k];
        let ex = execute(r, seed);
        let checked = check_o3(r.technique, r.policy, &ex.report, refs[r.reference]);
        samples.push(Sample::of(k, &ex, checked));
        i += 1;
    }
    (samples, t0.elapsed().as_secs_f64())
}

/// The nine end-to-end figures of one workload.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub wall_p50: f64,
    /// `(value, percentile, passing runs, runs beyond the value)`.
    pub wall_tail: (f64, f64, usize, usize),
    /// The highest percentile with ten runs beyond it, `(value, pct)`
    /// (printed only: it swings with a handful of runs).
    pub wall_extreme: (f64, f64),
    pub runs_per_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub virt_makespan: f64,
    pub virt_recovery: f64,
    pub err_ratio_max: f64,
    pub attempted: usize,
    /// Runs that produced no output.
    pub no_output: usize,
    /// Runs whose output failed the O3 check.
    pub wrong: usize,
}

impl EndToEnd {
    /// Aggregate samples measured over `elapsed` seconds, reporting the
    /// wall tail at the workload's `tail_pct` percentile. Latency and
    /// throughput count passing runs only; every other run is counted in
    /// [`EndToEnd::failed_frac`].
    pub fn from_samples(samples: &[Sample], elapsed: f64, setup_s: f64, tail_pct: f64) -> Self {
        let ok: Vec<&Sample> = samples.iter().filter(|s| s.fault.is_none()).collect();
        let walls: Vec<f64> = ok.iter().map(|s| s.wall).collect();
        let (tail, beyond) = percentile(&walls, tail_pct);
        let makespans: Vec<f64> = samples.iter().filter_map(|s| s.makespan).collect();
        let recs: Vec<f64> = samples.iter().filter_map(|s| s.virt_recovery).collect();
        let count = |f: fn(&Fault) -> bool| {
            samples.iter().filter(|s| s.fault.as_ref().is_some_and(f)).count()
        };
        EndToEnd {
            wall_p50: median_of_medians(&passing_walls(samples)),
            wall_tail: (tail, tail_pct, walls.len(), beyond),
            wall_extreme: supported_tail(&walls),
            runs_per_s: ok.len() as f64 / elapsed,
            setup_s,
            peak_rss_mb: crate::pins::peak_rss_mb(),
            virt_makespan: mean(&makespans),
            virt_recovery: mean(&recs),
            err_ratio_max: ok.iter().filter_map(|s| s.ratio).fold(f64::NAN, f64::max),
            attempted: samples.len(),
            no_output: count(|f| matches!(f, Fault::NoOutput(_))),
            wrong: count(|f| matches!(f, Fault::Wrong(_))),
        }
    }

    /// Every run passed, at least one run was made and every set-up
    /// completed.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.wall_p50.is_finite() && self.setup_s.is_finite()
    }

    pub fn failed(&self) -> usize {
        self.no_output + self.wrong
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable lines: every figure by name, unit and clock.
    pub fn print(&self, name: &str) {
        let (tv, tp, tn, tb) = self.wall_tail;
        let (ev, ep) = self.wall_extreme;
        let rows: [(&str, String, &str); 9] = [
            ("host_run_wall_p50_s", format!("{:.6}", self.wall_p50), "s"),
            (
                "host_run_wall_tail_s",
                format!(
                    "{tv:.6}  (p{tp} of {tn} runs, {tb} beyond; p{ep:.1} = {ev:.6} with 10 beyond)"
                ),
                "s",
            ),
            ("runs_per_s", format!("{:.4}", self.runs_per_s), "1/s"),
            ("setup_s", format!("{:.6}", self.setup_s), "s"),
            ("peak_rss_mb", format!("{:.1}", self.peak_rss_mb), "MB"),
            ("virt_makespan_s", format!("{:.6}", self.virt_makespan), "virtual s"),
            ("virt_recovery_s", format!("{:.6}", self.virt_recovery), "virtual s"),
            ("err_l1_ratio_max", format!("{:.6}", self.err_ratio_max), "ratio"),
            (
                "failed_runs_frac",
                format!(
                    "{:.6}  ({} of {} runs: {} without output, {} failed O3)",
                    self.failed_frac(),
                    self.failed(),
                    self.attempted,
                    self.no_output,
                    self.wrong,
                ),
                "ratio",
            ),
        ];
        println!("-- end-to-end: {name} ----------------------------------------");
        for (k, v, u) in rows {
            println!("{k:<22} {u:<10} {v}");
        }
    }

    /// The metrics object of the result line (the `BENCHMARK.json`
    /// end-to-end set).
    pub fn json_metrics(&self) -> String {
        let m = [
            ("host_run_wall_p50_s", self.wall_p50, "s"),
            ("host_run_wall_tail_s", self.wall_tail.0, "s"),
            ("runs_per_s", self.runs_per_s, "1/s"),
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
        ];
        crate::json_metrics(m.iter().map(|(k, v, u)| (k.to_string(), *v, u.to_string())))
    }
}
