//! The direct workloads (`paper2d`, `solve3d`, `recover`): application
//! runs generated from the seed, executed through `ulfm_sim::run` +
//! `ftsg_core::run_app`, and checked with the chaos engine's O3 oracle.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use advect2d::ndproblem::ProblemN;
use ftsg_bench::chaos::{
    CaseLayout, CaseShape, ChaosCase, APPROX_ENVELOPE, CHAOS_SPARES, SHRINK_ERR_CAP,
};
use ftsg_bench::runner::{emulate_paper_scale, random_victims};
use ftsg_core::app::keys;
use ftsg_core::{run_app, AppConfig, ProcLayout, ProcLayoutN, RecoveryPolicy, Technique};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ulfm_sim::{run, BetaUlfm, ClusterProfile, FaultPlan, FaultSite, Report, RunConfig};

/// Fiber-pool workers inside every simulated world the benchmark runs
/// directly (sized for a 2-core host).
pub const SIM_WORKERS: usize = 2;

/// Stall watchdog for every run: a wedged collective becomes an
/// application error (a failed run) instead of hanging the benchmark.
pub const STALL: Duration = Duration::from_secs(60);

/// The four recovery policies, in rotation order.
pub const POLICIES: [RecoveryPolicy; 4] = [
    RecoveryPolicy::Respawn,
    RecoveryPolicy::ShrinkRedistribute,
    RecoveryPolicy::SpareSubstitute,
    RecoveryPolicy::DeferRepair,
];

/// Which PDE a d ≥ 3 run solves (d = 2 is always the paper's advection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pde {
    Advection,
    Elliptic,
}

/// Structural shape of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub dim: usize,
    pub n: u32,
    pub l: u32,
    pub scale: usize,
    pub log2_steps: u32,
    pub pde: Pde,
}

impl Shape {
    pub fn steps(&self) -> u64 {
        1 << self.log2_steps
    }

    pub fn label(&self) -> String {
        let pde = match (self.dim, self.pde) {
            (2, _) => "",
            (_, Pde::Advection) => "/adv",
            (_, Pde::Elliptic) => "/ell",
        };
        format!("d{}n{}l{}s{}k{}{pde}", self.dim, self.n, self.l, self.scale, self.log2_steps)
    }

    pub fn problem_nd(&self) -> ProblemN {
        match self.pde {
            Pde::Advection => ProblemN::standard_advection(self.dim),
            Pde::Elliptic => ProblemN::standard_elliptic(self.dim),
        }
    }
}

/// One application run of a workload's cycle.
#[derive(Debug, Clone)]
pub struct AppRun {
    pub label: String,
    pub shape: Shape,
    pub technique: Technique,
    pub policy: RecoveryPolicy,
    /// Full configuration, fault plan included.
    pub cfg: AppConfig,
    /// Launch world (layout slots plus spares).
    pub world: usize,
    pub victims: Vec<usize>,
    /// Index of this run's healthy reference in [`Workload::refs`].
    pub reference: usize,
}

/// A direct workload: the run cycle and the healthy references its
/// outputs are checked against.
pub struct Workload {
    pub name: &'static str,
    pub runs: Vec<AppRun>,
    pub refs: Vec<AppRun>,
    /// Percentile reported as the wall tail: the highest of p75/p80/p90
    /// that leaves at least ten runs beyond it in a 20 s run, so more than
    /// ten in the 26 s runs `BENCHMARK.json` asks for (fixed per
    /// workload, so the figure does not change meaning with the count).
    pub tail_pct: f64,
}

/// Healthy twins share a reference when they share the shape, the
/// technique and the policy class (respawn and defer take
/// bitwise-identical healthy runs; shrink and substitute differ).
pub fn policy_class(p: RecoveryPolicy) -> RecoveryPolicy {
    match p {
        RecoveryPolicy::DeferRepair => RecoveryPolicy::Respawn,
        other => other,
    }
}

/// The configuration of one run of `shape` under `technique`/`policy`,
/// checkpointing under `ckpt_dir`.
pub fn app_config(
    shape: Shape,
    technique: Technique,
    policy: RecoveryPolicy,
    ckpt_dir: PathBuf,
) -> AppConfig {
    let mut cfg = AppConfig::paper_shaped(technique, shape.n, shape.scale, shape.log2_steps)
        .with_dim(shape.dim)
        .with_recovery_policy(policy);
    cfg.l = shape.l;
    cfg.ckpt_dir = ckpt_dir;
    if shape.dim >= 3 {
        cfg = cfg.with_problem_nd(shape.problem_nd());
    }
    if policy == RecoveryPolicy::SpareSubstitute {
        cfg = cfg.with_spares(CHAOS_SPARES);
    }
    cfg
}

/// The process layout of `shape` under `technique`, in its own
/// dimension: the 2D `ProcLayout` for d = 2, `ProcLayoutN` otherwise.
pub fn layout(shape: Shape, technique: Technique) -> CaseLayout {
    if shape.dim >= 3 {
        CaseLayout::Nd(ProcLayoutN::new(
            shape.dim,
            shape.n,
            shape.l,
            technique.layout(),
            shape.scale,
        ))
    } else {
        CaseLayout::D2(ProcLayout::new(shape.n, shape.l, technique.layout(), shape.scale))
    }
}

/// The emulated machine of the direct workloads: the paper's OPL cluster
/// at paper scale with the beta-ULFM cost model (as in Figs. 9 and 11).
pub fn run_config(shape: Shape, world: usize, seed: u64) -> RunConfig {
    let profile = emulate_paper_scale(ClusterProfile::opl(), shape.n, shape.log2_steps);
    let mut rc = RunConfig::cluster(profile, world)
        .with_model(Arc::new(BetaUlfm))
        .with_seed(seed)
        .with_workers(SIM_WORKERS);
    rc.stall_timeout = STALL;
    rc
}

struct Cycle {
    name: &'static str,
    dir: PathBuf,
    runs: Vec<AppRun>,
    refs: Vec<AppRun>,
}

impl Cycle {
    fn new(name: &'static str, dir: &Path) -> Self {
        Cycle { name, dir: dir.join(name), runs: Vec::new(), refs: Vec::new() }
    }

    fn push(
        &mut self,
        shape: Shape,
        technique: Technique,
        policy: RecoveryPolicy,
        kill: Option<(Vec<usize>, u64)>,
    ) {
        let k = self.runs.len();
        let tag = match policy {
            RecoveryPolicy::Respawn => technique.label().to_string(),
            p => format!("{}+{}", technique.label(), p.label()),
        };
        let label = format!("{}/{tag}", shape.label());
        let healthy = |dir: PathBuf| app_config(shape, technique, policy_class(policy), dir);
        let reference = match self.refs.iter().position(|r| {
            r.shape == shape && r.technique == technique && r.policy == policy_class(policy)
        }) {
            Some(i) => i,
            None => {
                let cfg = healthy(self.dir.join(format!("ref{}", self.refs.len())));
                let world = cfg.world_size(layout(shape, technique).world_size());
                self.refs.push(AppRun {
                    label: format!("{}/{tag}/healthy", shape.label()),
                    shape,
                    technique,
                    policy: policy_class(policy),
                    cfg,
                    world,
                    victims: Vec::new(),
                    reference: self.refs.len(),
                });
                self.refs.len() - 1
            }
        };
        let mut cfg = app_config(shape, technique, policy, self.dir.join(format!("run{k}")));
        let mut victims = Vec::new();
        if let Some((v, step)) = kill {
            cfg.plan = FaultPlan::new(v.iter().map(|&r| (r, step)).collect());
            victims = v;
        }
        let world = cfg.world_size(layout(shape, technique).world_size());
        self.runs.push(AppRun { label, shape, technique, policy, cfg, world, victims, reference });
    }

    fn finish(self, tail_pct: f64) -> Workload {
        Workload { name: self.name, runs: self.runs, refs: self.refs, tail_pct }
    }
}

const TECHS3: [Technique; 3] =
    [Technique::CheckpointRestart, Technique::ResamplingCopying, Technique::AlternateCombination];

/// Rotate `v` left by a seed-chosen offset: the seed decides the order in
/// which a healthy workload's configurations are visited.
fn rotate<T>(mut v: Vec<T>, seed: u64) -> Vec<T> {
    let k = (seed % v.len() as u64) as usize;
    v.rotate_left(k);
    v
}

/// `paper2d`: the paper's 2D configuration, healthy, rotating CR/RC/AC.
pub fn paper2d(seed: u64, dir: &Path) -> Workload {
    let shape = Shape { dim: 2, n: 10, l: 4, scale: 1, log2_steps: 8, pde: Pde::Advection };
    let mut b = Cycle::new("paper2d", dir);
    for t in rotate(TECHS3.to_vec(), seed) {
        b.push(shape, t, RecoveryPolicy::Respawn, None);
    }
    b.finish(80.0)
}

/// `solve3d`: the d = 3 stack, healthy, {advection, elliptic} × {CR, RC, AC}.
pub fn solve3d(seed: u64, dir: &Path) -> Workload {
    let mut combos = Vec::new();
    for pde in [Pde::Advection, Pde::Elliptic] {
        for t in TECHS3 {
            combos.push((pde, t));
        }
    }
    let mut b = Cycle::new("solve3d", dir);
    for (pde, t) in rotate(combos, seed) {
        let shape = Shape { dim: 3, n: 7, l: 4, scale: 1, log2_steps: 6, pde };
        b.push(shape, t, RecoveryPolicy::Respawn, None);
    }
    b.finish(75.0)
}

/// The 2D and 3D shapes of `recover`.
pub const RECOVER_2D: Shape =
    Shape { dim: 2, n: 7, l: 4, scale: 32, log2_steps: 6, pde: Pde::Advection };
pub const RECOVER_3D: Shape =
    Shape { dim: 3, n: 5, l: 4, scale: 8, log2_steps: 6, pde: Pde::Advection };

/// Two distinct victims (never rank 0) of `shape`'s layout under
/// `technique`, honouring the RC conflict constraint when `technique` is
/// RC: `runner::random_victims` in 2D, and in d ≥ 3 (which that sampler's
/// 2D layout cannot describe) the chaos engine's admissibility check.
pub fn draw_victims(shape: Shape, technique: Technique, rng: &mut StdRng) -> Vec<usize> {
    if shape.dim == 2 {
        let lay = ProcLayout::new(shape.n, shape.l, technique.layout(), shape.scale);
        return random_victims(&lay, 2, technique == Technique::ResamplingCopying, rng.gen());
    }
    let active = layout(shape, technique).world_size();
    loop {
        let a = rng.gen_range(1..active);
        let b = rng.gen_range(1..active);
        let case = ChaosCase {
            technique,
            policy: RecoveryPolicy::Respawn,
            shape: CaseShape {
                n: shape.n,
                l: shape.l,
                scale: shape.scale,
                log2_steps: shape.log2_steps,
                checkpoints: 4,
                dim: shape.dim,
            },
            victims: vec![(a, FaultSite::Step(0)), (b, FaultSite::Step(0))],
            corruption: None,
        };
        if case.victims_valid() {
            let mut v = vec![a, b];
            v.sort_unstable();
            return v;
        }
    }
}

/// `recover`: small grids at many ranks, two real kills per run at a
/// seeded mid-run step, cycling {CR, RC, AC, BC (d = 2 only)} × the four
/// policies in both dimensions.
pub fn recover(seed: u64, dir: &Path) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Cycle::new("recover", dir);
    for (shape, techs) in
        [(RECOVER_2D, ftsg_bench::chaos::TECHNIQUES.to_vec()), (RECOVER_3D, TECHS3.to_vec())]
    {
        let steps = shape.steps();
        for t in techs {
            for p in POLICIES {
                let step = rng.gen_range(steps / 4..=3 * steps / 4);
                let victims = draw_victims(shape, t, &mut rng);
                b.push(shape, t, p, Some((victims, step)));
            }
        }
    }
    b.finish(90.0)
}

/// One executed run: host wall plus the runtime report.
pub struct Executed {
    pub wall: f64,
    pub report: Report,
}

/// Run one application to completion on `rc` and time it (host wall of
/// `ulfm_sim::run`). The run's checkpoint directory is removed after the
/// clock stops.
pub fn execute_on(cfg: &AppConfig, rc: RunConfig) -> Executed {
    let app = cfg.clone();
    let t0 = Instant::now();
    let report = run(rc, move |ctx| run_app(&app, ctx));
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&cfg.ckpt_dir);
    Executed { wall, report }
}

/// [`execute_on`] on the direct workloads' emulated machine.
pub fn execute(r: &AppRun, seed: u64) -> Executed {
    execute_on(&r.cfg, run_config(r.shape, r.world, seed))
}

/// Healthy reference error of one configuration run on `rc` (`None` when
/// the reference itself failed, which fails every run checked against it).
pub fn reference(label: &str, cfg: &AppConfig, rc: RunConfig) -> Option<f64> {
    let report = execute_on(cfg, rc).report;
    if !report.app_errors.is_empty() {
        eprintln!("perfbench: healthy reference {label} failed: {:?}", report.app_errors);
        return None;
    }
    report.get_f64(keys::ERR_L1)
}

/// Why a run does not count as a correct completion.
#[derive(Debug, Clone)]
pub enum Fault {
    /// No output: application errors, a stall, a missing error value, or
    /// a service `Failed` state.
    NoOutput(String),
    /// An output that violates the O3 error envelope.
    Wrong(String),
}

/// Whether `fault` is the known service defect: a d ≥ 3 solve job the
/// service launches on a world sized by the 2D `ProcLayout`, which the
/// application rejects ("world size W does not match layout size L").
pub fn known_d3_defect(fault: &Fault) -> bool {
    matches!(fault, Fault::NoOutput(m) if known_d3_message(m))
}

/// Whether an error or panic message is the known d ≥ 3 service defect's.
pub fn known_d3_message(m: &str) -> bool {
    m.contains("world size") && m.contains("does not match layout size")
}

/// The chaos engine's O3 oracle for one run: a run in which no process
/// failed, and every CR/BC run, must reproduce the healthy reference
/// bitwise; RC/AC stay within [`APPROX_ENVELOPE`] of it; shrink stays
/// under [`SHRINK_ERR_CAP`]. Returns `err / reference` on success.
pub fn check_o3(
    technique: Technique,
    policy: RecoveryPolicy,
    report: &Report,
    reference: Option<f64>,
) -> Result<f64, Fault> {
    if !report.app_errors.is_empty() {
        return Err(Fault::NoOutput(report.app_errors.join("; ")));
    }
    let Some(err) = report.get_f64(keys::ERR_L1) else {
        return Err(Fault::NoOutput("no err_l1 reported".into()));
    };
    let Some(base) = reference else {
        return Err(Fault::NoOutput("healthy reference run failed".into()));
    };
    if !err.is_finite() {
        return Err(Fault::Wrong(format!("non-finite l1 error {err}")));
    }
    let bitwise = err.to_bits() == base.to_bits();
    let ok = if report.procs_failed == 0 {
        bitwise
    } else if policy == RecoveryPolicy::ShrinkRedistribute {
        err <= SHRINK_ERR_CAP
    } else if matches!(technique, Technique::CheckpointRestart | Technique::BuddyCheckpoint) {
        bitwise
    } else {
        err <= APPROX_ENVELOPE * base
    };
    if ok {
        Ok(err / base)
    } else {
        Err(Fault::Wrong(format!(
            "{}+{}: err {err:e} vs healthy {base:e} ({} procs failed)",
            technique.label(),
            policy.label(),
            report.procs_failed
        )))
    }
}

/// Virtual recovery time of a failure run: failed-list creation plus
/// communicator reconstruction plus data recovery (Figs. 8/9).
pub fn virt_recovery(report: &Report) -> f64 {
    [keys::T_LIST, keys::T_RECONSTRUCT, keys::T_RECOVERY]
        .iter()
        .map(|k| report.get_f64(k).unwrap_or(0.0))
        .sum()
}
