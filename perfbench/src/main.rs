//! `perfbench` — the ftsg benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper2d|solve3d|recover|campaign --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload from the seed, runs it closed-loop for `S`
//! seconds through the public entry points (`ulfm_sim::run` +
//! `ftsg_core::run_app`, or `ftsg_service::Service` for `campaign`),
//! checks every output with the chaos engine's O3 oracle, and prints the
//! figures by name and unit. `--trace 0` reports the end-to-end figures;
//! `--trace 1` reports the per-layer figures of a traced run. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` next
//! to this package for the workloads and the metric definitions. The
//! benchmark re-runs itself with `--setup-only` to time cold set-ups.

mod campaign;
mod e2e;
mod layers;
mod pins;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use e2e::{EndToEnd, Sample};

const WORKLOADS: [&str; 4] = ["paper2d", "solve3d", "recover", "campaign"];

/// Cold set-ups measured per run (this process's own plus fresh child
/// processes'): at least this many, and more until they add up to
/// [`SETUP_MIN_S`]; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Set-up wall a run measures at least, so that a workload whose set-up
/// takes milliseconds still reports a steady median.
const SETUP_MIN_S: f64 = 1.0;

/// Prefix of the line a `--setup-only` child reports its set-up with.
const SETUP_LINE: &str = "setup_s=";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Stop after the set-up and print its wall (a child measuring one
    /// cold set-up for its parent).
    setup_only: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload paper2d|solve3d|recover|campaign --seed N \
         --seconds S --trace 0|1 [--setup-only]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, setup_only: false };
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--setup-only" {
            a.setup_only = true;
            i += 1;
            continue;
        }
        let val = argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&a.workload.as_str()) || a.seconds.is_nan() || a.seconds <= 0.0 {
        usage();
    }
    a
}

/// Render `(name, value, unit)` triples as the result line's metrics
/// object. Values keep every digit; a non-finite value (no sample) is
/// written as 0 and the run is reported incorrect by its caller.
pub fn json_metrics(m: impl Iterator<Item = (String, f64, String)>) -> String {
    let body: Vec<String> = m
        .map(|(k, v, u)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &str) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    );
}

/// Checkout-relative working directory for checkpoints and span dumps
/// (ignored by git).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn echo_pins(a: &Args, service_workers: usize) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap_or(Path::new("."));
    let knobs = pins::env_knobs();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} git={} nproc={} sim_workers={} \
         service_workers={} simd_isa={} env=[{}]",
        a.workload,
        a.seed,
        a.seconds,
        a.trace as u8,
        pins::git_revision(root),
        pins::nproc(),
        if a.workload == "campaign" { campaign::SIM_WORKERS } else { workload::SIM_WORKERS },
        service_workers,
        advect2d::simd_isa_label(),
        knobs.join(" ")
    );
}

fn main() {
    let start = Instant::now();
    let a = parse_args();
    let out = out_dir();
    let run_dir = out.join(format!("{}-{}", a.workload, std::process::id()));
    if !a.setup_only {
        echo_pins(&a, if a.workload == "campaign" { campaign::SERVICE_WORKERS } else { 0 });
    }
    if a.workload == "campaign" {
        campaign::main(&a, start, &run_dir, &out);
    } else {
        direct_main(&a, start, &run_dir, &out);
    }
    let _ = std::fs::remove_dir_all(&run_dir);
}

/// `setup_s` of this run, once this process has finished its own set-up:
/// the median of cold set-ups (see [`SETUP_REPS`]), each timed from
/// process start to the end of the set-up — this process's and those of
/// fresh `--setup-only` children run one after another. A `--setup-only` child
/// prints its own figure and gets `None`; a traced run, which reports no
/// `setup_s`, starts no children. NaN when a child fails.
fn setup_s(a: &Args, start: Instant) -> Option<f64> {
    let own = start.elapsed().as_secs_f64();
    if a.setup_only {
        println!("{SETUP_LINE}{own}");
        return None;
    }
    if a.trace {
        return Some(own);
    }
    let mut walls = vec![own];
    while walls.len() < SETUP_REPS || walls.iter().sum::<f64>() < SETUP_MIN_S {
        let child = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args(["--workload", &a.workload, "--seed", &a.seed.to_string(), "--setup-only"])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
        });
        let wall = match &child {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                .lines()
                .filter_map(|l| l.strip_prefix(SETUP_LINE))
                .next_back()
                .and_then(|v| v.parse().ok()),
            _ => None,
        };
        match wall {
            Some(w) => walls.push(w),
            None => {
                eprintln!("perfbench: set-up child failed: {:?}", child.map(|o| o.status));
                return Some(f64::NAN);
            }
        }
    }
    Some(stats::median(&walls))
}

fn direct_main(a: &Args, start: Instant, run_dir: &Path, out: &Path) {
    let w = match a.workload.as_str() {
        "paper2d" => workload::paper2d(a.seed, run_dir),
        "solve3d" => workload::solve3d(a.seed, run_dir),
        "recover" => workload::recover(a.seed, run_dir),
        _ => unreachable!("workload validated by parse_args"),
    };
    e2e::setup(&w, a.seed);
    let Some(setup_s) = setup_s(a, start) else { return };
    println!("# cycle: {} runs, {} healthy references", w.runs.len(), w.refs.len());
    let refs = e2e::references(&w, a.seed);

    if a.trace {
        let rep = layers::trace_direct(&w, &refs, a.seed, a.seconds, out);
        rep.print(w.name);
        print_result(rep.correct(), rep.attempted, rep.failed, &rep.json_metrics());
        return;
    }
    let (samples, elapsed) = e2e::timed_loop(&w, &refs, a.seed, a.seconds);
    report_faults(&samples, |k| w.runs[k].label.clone());
    let walls = e2e::passing_walls(&samples);
    for (k, m) in stats::entry_medians(&walls) {
        let n = walls.iter().filter(|s| s.0 == k).count();
        println!("# p50 {:<28} {m:.6} s over {n} runs", w.runs[k].label);
    }
    let e = EndToEnd::from_samples(&samples, elapsed, setup_s, w.tail_pct);
    e.print(w.name);
    print_result(e.correct(), e.attempted, e.failed(), &e.json_metrics());
}

/// Print each distinct fault once (its first rank's message), with how
/// often it struck and the first run it struck.
pub fn report_faults(samples: &[Sample], label: impl Fn(usize) -> String) {
    let mut seen: Vec<(String, usize, usize)> = Vec::new();
    for s in samples {
        if let Some(f) = &s.fault {
            let text = match f {
                workload::Fault::NoOutput(m) => format!("no output: {m}"),
                workload::Fault::Wrong(m) => format!("wrong output: {m}"),
            };
            let head: String = text.split("; ").next().unwrap_or("").chars().take(200).collect();
            match seen.iter_mut().find(|(l, _, _)| *l == head) {
                Some((_, n, _)) => *n += 1,
                None => seen.push((head, 1, s.index)),
            }
        }
    }
    for (head, n, first) in seen {
        println!("# fault x{n} (first: {}): {head}", label(first));
    }
}
