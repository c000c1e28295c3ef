//! The `campaign` workload: many tiny chaos-grammar solve jobs submitted
//! to `ftsg_service::Service` the way `ftsg-serve` does, closed loop with
//! a bounded number in flight.
//!
//! The timed mix holds d = 2 jobs only. The d = 3 specs, which the
//! service cannot run today (it sizes every world with the 2D
//! `ProcLayout`), go through the same service in an untimed probe after
//! the loop: every run reports how many of them fail, and fails its
//! result if one fails in any other way.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ftsg_bench::chaos::{sample_case, CaseShape, ChaosCase, SITE_KINDS, TECHNIQUES};
use ftsg_core::{AppConfig, RecoveryPolicy};
use ftsg_service::{
    JobEvent, JobId, JobOutput, JobSpec, JobWork, Service, ServiceConfig, SolveSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ulfm_sim::{Report, RunConfig};

use crate::e2e::{Counts, EndToEnd, Sample};
use crate::workload::{
    check_o3, execute_on, known_d3_defect, known_d3_message, policy_class, reference,
    virt_recovery, Fault, POLICIES, STALL,
};
use crate::{print_result, report_faults, Args};

/// Service worker threads.
pub const SERVICE_WORKERS: usize = 2;
/// Fiber-pool workers inside each job's simulated world.
pub const SIM_WORKERS: usize = 1;
/// Jobs submitted and not yet terminal (closed loop).
pub const IN_FLIGHT: usize = 4;
/// Bounded service queue depth.
const QUEUE_DEPTH: usize = 8;
/// Jobs one service instance takes. The service keeps a record of every
/// job for its lifetime, so its job table, and with it the peak RSS,
/// would step up wherever a run's job count crosses a resize; every batch
/// of this size crosses the same resizes, and a run completes at least
/// one batch.
const BATCH_JOBS: usize = 4096;
/// Jobs a run's sample vectors hold without growing (a 26 s run makes
/// about 15 000 on a 2-vCPU host).
const SAMPLE_CAPACITY: usize = 1 << 16;
/// Distinct d = 2 jobs sampled per seed; the loop cycles through them.
const POOL: usize = 256;
/// d = 3 jobs sampled per seed for the known-defect probe.
pub const D3_PROBE: usize = 8;
/// Percentile reported as the job latency tail. Checkpoint/Restart jobs
/// (a quarter of the pool, three times the median exec) fill the top
/// decile; higher percentiles swing with single host stalls.
const TAIL_PCT: f64 = 90.0;
/// One d = 2 job in this many runs without any kill.
const HEALTHY_EVERY: usize = 6;

/// One sampled job.
pub struct Job {
    pub spec: String,
    pub case: ChaosCase,
    pub cfg: AppConfig,
    pub world: usize,
    pub seed: u64,
    pub reference: usize,
}

/// The sampled job pool, the d = 3 probe jobs and their healthy
/// references.
pub struct Campaign {
    pub jobs: Vec<Job>,
    pub d3_probe: Vec<Job>,
    pub refs: Vec<Job>,
    dir: PathBuf,
}

fn job_of(case: ChaosCase, seed: u64) -> Job {
    let (cfg, world) = case.solve_config();
    Job { spec: case.spec(), case, cfg, world, seed, reference: usize::MAX }
}

impl Campaign {
    /// Sample the pool from `seed` with the chaos engine's case generator:
    /// n 4–6 (d = 2) or the 3D chaos shape (the probe), 2^4–2^5 steps, 0–3
    /// kills, every technique, policy and fault-site kind.
    pub fn sample(seed: u64, dir: &Path) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut jobs: Vec<Job> = Vec::with_capacity(POOL + D3_PROBE);
        let mut refs: Vec<Job> = Vec::new();
        for j in 0..POOL + D3_PROBE {
            let d3 = j >= POOL;
            let shape = if d3 {
                CaseShape { dim: 3, l: 4, n: 4, ..CaseShape::small() }
            } else {
                CaseShape { n: rng.gen_range(4..=6), ..CaseShape::small() }
            };
            let shape = CaseShape { log2_steps: rng.gen_range(4..=5), ..shape };
            let technique = TECHNIQUES[j % TECHNIQUES.len()];
            let kind = SITE_KINDS[(j / TECHNIQUES.len()) % SITE_KINDS.len()];
            let mut case = sample_case(&mut rng, technique, kind, shape);
            case.policy = POLICIES[rng.gen_range(0..POLICIES.len())];
            if !d3 && j % HEALTHY_EVERY == 0 {
                case.victims.clear();
            }
            let mut job = job_of(case, seed.wrapping_add(j as u64));
            let found = refs.iter().position(|r| {
                r.case.technique == job.case.technique
                    && r.case.policy == policy_class(job.case.policy)
                    && r.case.shape == job.case.shape
            });
            job.reference = found.unwrap_or_else(|| {
                let mut clean = job.case.clone();
                clean.victims.clear();
                clean.policy = policy_class(clean.policy);
                refs.push(job_of(clean, seed));
                refs.len() - 1
            });
            jobs.push(job);
        }
        let d3_probe = jobs.split_off(POOL);
        Campaign { jobs, d3_probe, refs, dir: dir.join("campaign") }
    }

    /// Healthy reference error per reference (run directly, outside the
    /// service, with the correct world of each dimension).
    pub fn references(&self) -> Vec<Option<f64>> {
        self.refs
            .iter()
            .map(|r| {
                let cfg = AppConfig { ckpt_dir: self.dir.join("ref"), ..r.cfg.clone() };
                reference(&r.spec, &cfg, local_config(r, crate::workload::SIM_WORKERS))
            })
            .collect()
    }
}

/// The job as the service receives it, checkpointing under `ckpt`.
fn job_spec(job: &Job, ckpt: PathBuf) -> JobSpec {
    let mut cfg = job.cfg.clone();
    cfg.ckpt_dir = ckpt;
    JobSpec {
        name: job.spec.clone(),
        work: JobWork::Solve(Box::new(SolveSpec {
            cfg,
            seed: job.seed,
            stall: Some(STALL),
            sim_workers: SIM_WORKERS,
        })),
        cancel: None,
    }
}

/// The runtime the service gives a job: `RunConfig::local` on the job's
/// world.
fn local_config(job: &Job, workers: usize) -> RunConfig {
    let mut rc = RunConfig::local(job.world).with_seed(job.seed).with_workers(workers);
    rc.stall_timeout = STALL;
    rc
}

/// Run a job's solve directly (no service) with the runtime the service
/// uses, returning the report and the host wall.
pub fn run_direct(job: &Job, ckpt: PathBuf, workers: usize) -> (Report, f64) {
    let cfg = AppConfig { ckpt_dir: ckpt, ..job.cfg.clone() };
    let ex = execute_on(&cfg, local_config(job, workers));
    (ex.report, ex.wall)
}

/// Service-side timing of one job.
#[derive(Debug, Clone, Copy)]
pub struct JobTiming {
    pub job: usize,
    /// Submit → `Started`, seconds.
    pub queue_wait: f64,
    /// `Started` → terminal, seconds.
    pub exec: f64,
}

struct InFlight {
    job: usize,
    ckpt: PathBuf,
    submitted: Instant,
    started: Option<Instant>,
}

/// Closed loop through the service, one batch at a time: each batch is a
/// fresh service that takes [`BATCH_JOBS`] jobs, cycling through the
/// pool, the way one `ftsg-serve` run takes one campaign file. It keeps
/// [`IN_FLIGHT`] jobs open and submits the next job whenever one turns
/// terminal. Batches follow one another until `seconds` have passed;
/// then the open batch stops submitting and drains. Every Done output is
/// O3-checked.
pub fn timed_loop(
    c: &Campaign,
    refs: &[Option<f64>],
    seconds: f64,
) -> (Vec<Sample>, Vec<JobTiming>, f64) {
    // Reserved up front: a vector that doubles while the loop runs would
    // put a step into the peak RSS at whichever job count crosses it.
    let mut samples = Vec::with_capacity(SAMPLE_CAPACITY);
    let mut timings = Vec::with_capacity(SAMPLE_CAPACITY);
    let mut submitted = 0usize;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let (svc, rx) =
            Service::start(ServiceConfig { workers: SERVICE_WORKERS, queue_depth: QUEUE_DEPTH });
        let mut open: HashMap<JobId, InFlight> = HashMap::new();
        let batch_end = submitted + BATCH_JOBS;
        let submit = |n: usize, open: &mut HashMap<JobId, InFlight>| {
            let k = n % c.jobs.len();
            let ckpt = c.dir.join(format!("job{n}"));
            let spec = job_spec(&c.jobs[k], ckpt.clone());
            let submitted = Instant::now();
            let id = svc.submit(spec).expect("the benchmark's service stays open until drained");
            open.insert(id, InFlight { job: k, ckpt, submitted, started: None });
        };
        while open.len() < IN_FLIGHT && submitted < batch_end {
            submit(submitted, &mut open);
            submitted += 1;
        }
        while !open.is_empty() {
            let ev = rx.recv().expect("the service streams events until shut down");
            let now = Instant::now();
            match &ev {
                JobEvent::Started { id } => {
                    if let Some(f) = open.get_mut(id) {
                        f.started = Some(now);
                    }
                    continue;
                }
                e if !e.is_terminal() => continue,
                _ => {}
            }
            let Some(f) = open.remove(&ev.id()) else { continue };
            let started = f.started.unwrap_or(now);
            let (report, checked) = outcome(&svc, &ev, &c.jobs[f.job], refs);
            let _ = std::fs::remove_dir_all(&f.ckpt);
            samples.push(Sample {
                index: f.job,
                wall: (now - f.submitted).as_secs_f64(),
                makespan: report.as_ref().map(|r| r.makespan),
                virt_recovery: report.as_ref().filter(|r| r.procs_failed > 0).map(virt_recovery),
                ratio: checked.as_ref().ok().copied(),
                fault: checked.err(),
                counts: report.as_ref().map(Counts::of).unwrap_or_default(),
            });
            timings.push(JobTiming {
                job: f.job,
                queue_wait: (started - f.submitted).as_secs_f64(),
                exec: (now - started).as_secs_f64(),
            });
            if submitted < batch_end && t0.elapsed().as_secs_f64() < seconds {
                submit(submitted, &mut open);
                submitted += 1;
            }
        }
        svc.shutdown();
    }
    (samples, timings, t0.elapsed().as_secs_f64())
}

/// The report and the O3 verdict of a job that turned terminal with `ev`.
fn outcome(
    svc: &Service,
    ev: &JobEvent,
    job: &Job,
    refs: &[Option<f64>],
) -> (Option<Report>, Result<f64, Fault>) {
    match ev {
        JobEvent::Done { .. } => match svc.take_output(ev.id()) {
            Some(JobOutput::Solve(report)) => {
                let checked =
                    check_o3(job.case.technique, job.case.policy, &report, refs[job.reference]);
                (Some(report), checked)
            }
            _ => (None, Err(Fault::NoOutput("done without a solve report".into()))),
        },
        JobEvent::Failed { error, .. } => (None, Err(Fault::NoOutput(error.clone()))),
        _ => (None, Err(Fault::NoOutput("cancelled".into()))),
    }
}

/// Outcome of the untimed d = 3 probe.
pub struct D3Probe {
    pub jobs: usize,
    /// Jobs that failed with the known defect.
    pub known: usize,
    /// Every other failure (wrong output, another error): each makes the
    /// run's result incorrect.
    pub other: Vec<String>,
}

impl D3Probe {
    pub fn print(&self) {
        println!(
            "# known defect, d3 probe (untimed, outside the measured mix): {} of {} d3 jobs \
             failed with \"world size W does not match layout size L\"; {} other failures",
            self.known,
            self.jobs,
            self.other.len()
        );
        for f in &self.other {
            println!("# d3 probe failed otherwise: {f}");
        }
    }
}

/// Submit every d = 3 probe job to a fresh service, one at a time, and
/// classify how each ends. A job that completes is O3-checked like any
/// other, so the probe turns into a plain check once the defect is fixed.
pub fn probe_d3(c: &Campaign, refs: &[Option<f64>]) -> D3Probe {
    let (svc, rx) = Service::start(ServiceConfig { workers: SERVICE_WORKERS, queue_depth: 1 });
    let mut p = D3Probe { jobs: c.d3_probe.len(), known: 0, other: Vec::new() };
    for (k, job) in c.d3_probe.iter().enumerate() {
        let ckpt = c.dir.join(format!("d3probe{k}"));
        let id = svc.submit(job_spec(job, ckpt.clone())).expect("fresh service accepts a job");
        let ev = loop {
            let ev = rx.recv().expect("the service streams events until shut down");
            if ev.id() == id && ev.is_terminal() {
                break ev;
            }
        };
        let _ = std::fs::remove_dir_all(&ckpt);
        match outcome(&svc, &ev, job, refs).1 {
            Ok(_) => {}
            Err(f) if known_d3_defect(&f) => p.known += 1,
            Err(f) => p.other.push(format!("{}: {f:?}", job.spec)),
        }
    }
    svc.shutdown();
    p
}

/// The set-up: sample the pool (layouts included), start a service, run
/// one fixed healthy warm-up job through it, shut it down.
pub fn setup(seed: u64, dir: &Path) -> Campaign {
    let c = Campaign::sample(seed, dir);
    let warm = job_of(
        ChaosCase {
            technique: TECHNIQUES[0],
            policy: RecoveryPolicy::Respawn,
            shape: CaseShape::small(),
            victims: Vec::new(),
            corruption: None,
        },
        seed,
    );
    let (svc, _rx) = Service::start(ServiceConfig { workers: SERVICE_WORKERS, queue_depth: 1 });
    let id =
        svc.submit(job_spec(&warm, c.dir.join("warmup"))).expect("fresh service accepts a job");
    std::hint::black_box(svc.wait(id));
    svc.shutdown();
    let _ = std::fs::remove_dir_all(c.dir.join("warmup"));
    c
}

/// Keep the panic hook quiet for the known d = 3 defect: every d3 job
/// panics with it, and printing (with `RUST_BACKTRACE` set, symbolising)
/// a thousand backtraces per run would load the host being measured.
/// Every other panic still reaches the previous hook.
fn quiet_known_defect() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg: Option<&str> = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied());
        if !msg.is_some_and(known_d3_message) {
            prev(info);
        }
    }));
}

pub fn main(a: &Args, start: Instant, run_dir: &Path, out: &Path) {
    quiet_known_defect();
    let c = setup(a.seed, run_dir);
    let Some(setup_s) = crate::setup_s(a, start) else { return };
    let refs = c.references();
    println!(
        "# pool: {} d2 jobs (+{} d3 probe jobs), {} healthy references; {} service workers x \
         {} sim worker, {} in flight",
        c.jobs.len(),
        c.d3_probe.len(),
        c.refs.len(),
        SERVICE_WORKERS,
        SIM_WORKERS,
        IN_FLIGHT
    );
    if a.trace {
        let rep = crate::layers::trace_campaign(&c, &refs, a.seed, a.seconds, out);
        rep.print("campaign");
        let probe = probe_d3(&c, &refs);
        probe.print();
        let correct = rep.correct() && probe.other.is_empty();
        print_result(correct, rep.attempted, rep.failed, &rep.json_metrics());
        return;
    }
    let (samples, _, elapsed) = timed_loop(&c, &refs, a.seconds);
    report_faults(&samples, |k| c.jobs[k].spec.clone());
    let probe = probe_d3(&c, &refs);
    probe.print();
    let e = EndToEnd::from_samples(&samples, elapsed, setup_s, TAIL_PCT);
    e.print("campaign");
    let correct = e.correct() && probe.other.is_empty();
    print_result(correct, e.attempted, e.failed(), &e.json_metrics());
}
