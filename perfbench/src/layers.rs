//! The traced run: per-layer figures measured outside in.
//!
//! A traced run first repeats the workload untraced, then traced (every
//! application run inside an `app.run` span), then times calls into each
//! crate's public functions on the workload's own inputs — the same
//! level vectors, group geometries, world sizes and loss sets — each call
//! inside a span named after the layer metric. The `ulfm.*` counts are
//! read from the always-on `Report.metrics` of the untraced runs.
//!
//! Every layer metric comes with its calls per run. A layer the workload
//! does not execute is still measured — on the workload's own shape where
//! the layer accepts it, else on its 2D or 3D twin — and reports zero
//! calls per run. The `other` residual is the median run wall minus the
//! layers' explained wall, Σ(self time × calls per run) spread over the
//! simulated world's worker pool.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use advect2d::ndproblem::TimeGridN;
use advect2d::{AdvectionProblem, KernelConfig, LocalSolver, SolverN, TimeGrid};
use ftsg_bench::chaos::CaseLayout;
use ftsg_core::checkpoint::CheckpointStore;
use ftsg_core::gather::{binomial_combine, gather_grid, split_grid};
use ftsg_core::gather_nd::{binomial_combine_n, gather_grid_n, split_grid_n};
use ftsg_core::psolve::DistributedSolver;
use ftsg_core::recovery::{buddy_exchange, recover, BuddyStore};
use ftsg_core::recovery_nd::{buddy_exchange_n, recover_n, BuddyStoreN};
use ftsg_core::{
    communicator_reconstruct_with, detect_and_repair, DistributedSolverN, ReconstructTimings,
    RecoveryPolicy, RespawnPolicy, Technique,
};
use ftsg_service::{JobEvent, JobOutput, JobSpec, JobWork, Service, ServiceConfig, SolveSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsegrid::{
    combine_binomial, combine_onto, combine_onto_nd, robust_coefficients, robust_coefficients_nd,
    CombinationTerm, CombinationTermN, Grid2, GridN, GridSystem, GridSystemN, LevelPair, LevelSet,
    LevelSetN, LevelVecN,
};
use ulfm_sim::{comm_spawn_multiple, run, Ctx, Report, RunConfig, SpawnSpec};

use crate::campaign::{self, Campaign};
use crate::e2e::{passing_walls, Counts, Sample};
use crate::stats::{self, mean, median};
use crate::trace::Tracer;
use crate::workload::{self, app_config, layout, AppRun, Pde, Shape, Workload, STALL};

/// Repetitions of every layer probe; each figure is the median.
const REPS: usize = 3;
/// Steps per kernel probe call (capped by the workload's step count).
const PROBE_STEPS: u64 = 16;
/// Ping-pong round trips of the point-to-point probe.
const P2P_ROUND_TRIPS: usize = 500;
/// Message tag of the probes' private worlds.
const PROBE_TAG: i32 = 4242;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("advect2d.step_ns_per_cell", "ns"),
    ("advect2d.nd_step_ns_per_cell", "ns"),
    ("advect2d.cell_updates_per_run", "count"),
    ("advect2d.bytes_per_cell_computed", "B"),
    ("sparsegrid.combine_us", "us"),
    ("sparsegrid.robust_coeffs_us", "us"),
    ("core.psolve.step_us", "us"),
    ("core.psolve.halo_us", "us"),
    ("core.gather.combine_us", "us"),
    ("core.checkpoint.write_us", "us"),
    ("core.checkpoint.read_us", "us"),
    ("core.checkpoint.bytes", "B"),
    ("core.repair_us", "us"),
    ("core.recover_us", "us"),
    ("core.layout_us", "us"),
    ("ulfm.launch_us_per_rank", "us"),
    ("ulfm.p2p_ns_per_msg", "ns"),
    ("ulfm.shrink_us", "us"),
    ("ulfm.agree_us", "us"),
    ("ulfm.spawn_merge_us", "us"),
    ("ulfm.msgs_per_run", "count"),
    ("ulfm.bytes_per_run", "B"),
    ("ulfm.recv_retry_ratio", "ratio"),
    ("ulfm.procs_created_per_run", "count"),
    ("ulfm.trace_dropped_per_run", "count"),
    ("service.queue_wait_ms", "ms"),
    ("service.exec_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("other.residual_share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// One per-layer figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Calls of the measured function per application run (NaN for
    /// counts and derived figures, which have none).
    pub calls: f64,
    /// What it was measured on.
    pub input: String,
    /// Worker-seconds per run this layer explains (self time × calls).
    pub explained: f64,
}

/// Everything the traced run reports.
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub probe_failures: Vec<String>,
    pub run_wall: f64,
    pub workers: usize,
    pub spans: usize,
    pub spans_file: String,
}

impl LayerReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.probe_failures.is_empty()
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
    }

    pub fn print(&self, workload: &str) {
        println!(
            "-- per-layer: {workload} (traced run, {} spans -> {}) --",
            self.spans, self.spans_file
        );
        println!("{:<34} {:>14} {:<6} {:>14}  input", "metric", "value", "unit", "calls/run");
        for (name, unit) in PER_LAYER {
            if let Some(m) = self.metrics.iter().find(|m| m.name == name) {
                let calls =
                    if m.calls.is_nan() { "-".to_string() } else { format!("{:.3}", m.calls) };
                println!("{name:<34} {:>14.4} {unit:<6} {calls:>14}  {}", m.value, m.input);
            }
        }
        println!(
            "# other residual: {:.4} of the {:.6} s median run wall unexplained by the layers \
             ({} sim workers); tracing overhead {:.4} ms per run",
            self.get("other.residual_share"),
            self.run_wall,
            self.workers,
            self.get("trace.overhead_ms")
        );
        for f in &self.probe_failures {
            println!("# probe failed: {f}");
        }
    }

    pub fn json_metrics(&self) -> String {
        crate::json_metrics(
            PER_LAYER
                .iter()
                .map(|(name, unit)| (name.to_string(), self.get(name), unit.to_string())),
        )
    }
}

/// Median of `REPS` calls of `f`.
fn reps(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

/// The probe inputs of a workload: its 2D and d ≥ 3 shapes (or twins),
/// techniques, policies, loss sets and per-run call counts.
struct Inputs {
    shape2: Shape,
    tech2: Technique,
    shapes_nd: Vec<Shape>,
    tech_nd: Technique,
    /// Techniques whose recovery the workload runs (or would run).
    techniques: Vec<Technique>,
    /// Policies whose repair the workload runs (or would run).
    policies: Vec<RecoveryPolicy>,
    /// The workload's own victims per (shape, technique).
    kills: Vec<(Shape, Technique, Vec<usize>)>,
    /// Per-run call counts (cycle averages).
    cells2: f64,
    cells_nd: f64,
    group_steps2: f64,
    group_steps_nd: f64,
    ckpt_writes: f64,
    ckpt_reads: f64,
    robust_calls: f64,
    repairs: f64,
    recovers: f64,
    /// Simulated world of one run and the runtime it launches on.
    world: usize,
    launch: RunConfig,
    seed: u64,
}

/// `(cells, grids, combination grid ids)` of `shape`'s grid system under
/// `t` (the combination grids are the ones Checkpoint/Restart writes).
fn system_stats(shape: Shape, t: Technique) -> (usize, usize, Vec<usize>) {
    if shape.dim >= 3 {
        let sys = GridSystemN::new(shape.dim, shape.n, shape.l, t.layout());
        let cells = sys.grids().iter().map(|g| nd_points(&g.level)).sum();
        (cells, sys.n_grids(), sys.combination_ids())
    } else {
        let sys = GridSystem::new(shape.n, shape.l, t.layout());
        let cells = sys.grids().iter().map(|g| g.level.points()).sum();
        (cells, sys.n_grids(), sys.combination_ids())
    }
}

fn nd_points(level: &[u32]) -> usize {
    level.iter().map(|&l| 1usize << l).product()
}

fn broken(shape: Shape, t: Technique, victims: &[usize]) -> Vec<usize> {
    layout(shape, t).broken_grids(victims)
}

/// One run of a cycle as the probes see it.
struct RunView {
    shape: Shape,
    technique: Technique,
    policy: RecoveryPolicy,
    victims: Vec<usize>,
    checkpoints: u32,
}

impl Inputs {
    fn from_runs(views: &[RunView], launch: RunConfig, world: usize, seed: u64) -> Self {
        let first2 = views.iter().find(|v| v.shape.dim == 2);
        let first_nd = views.iter().find(|v| v.shape.dim >= 3);
        // Twins: the 2D shape of a 3D-only workload keeps (n, l, steps);
        // the 3D twin of a 2D-only workload is the small 3D shape.
        let (shape2, tech2) = match (first2, first_nd) {
            (Some(v), _) => (v.shape, v.technique),
            (None, Some(v)) => (Shape { dim: 2, pde: Pde::Advection, ..v.shape }, v.technique),
            (None, None) => unreachable!("workloads have runs"),
        };
        let mut shapes_nd: Vec<Shape> = Vec::new();
        for v in views.iter().filter(|v| v.shape.dim >= 3) {
            if !shapes_nd.contains(&v.shape) {
                shapes_nd.push(v.shape);
            }
        }
        let tech_nd = first_nd.map_or(tech2, |v| v.technique);
        if shapes_nd.is_empty() {
            shapes_nd.push(Shape {
                dim: 3,
                n: 5,
                l: 4,
                scale: 1,
                log2_steps: 6,
                pde: Pde::Advection,
            });
        }
        let mut techniques: Vec<Technique> = Vec::new();
        let mut policies: Vec<RecoveryPolicy> = Vec::new();
        for v in views {
            if !techniques.contains(&v.technique) {
                techniques.push(v.technique);
            }
            if !v.victims.is_empty() && !policies.contains(&v.policy) {
                policies.push(v.policy);
            }
        }
        if policies.is_empty() {
            policies.push(RecoveryPolicy::Respawn);
        }
        let killed = |v: &RunView| !v.victims.is_empty();
        let kills = views
            .iter()
            .filter(|v| killed(v))
            .map(|v| (v.shape, v.technique, v.victims.clone()))
            .collect();
        let mut inp = Inputs {
            kills,
            shape2,
            tech2,
            shapes_nd,
            tech_nd,
            techniques,
            policies,
            cells2: 0.0,
            cells_nd: 0.0,
            group_steps2: 0.0,
            group_steps_nd: 0.0,
            ckpt_writes: 0.0,
            ckpt_reads: 0.0,
            robust_calls: 0.0,
            repairs: 0.0,
            recovers: 0.0,
            world,
            launch,
            seed,
        };
        // Per-run call counts: averages over the cycle.
        let per = 1.0 / views.len() as f64;
        for v in views {
            let (cells, grids, combining) = system_stats(v.shape, v.technique);
            let steps = v.shape.steps() as f64;
            if v.shape.dim >= 3 {
                inp.cells_nd += per * cells as f64 * steps;
                inp.group_steps_nd += per * grids as f64 * steps;
            } else {
                inp.cells2 += per * cells as f64 * steps;
                inp.group_steps2 += per * grids as f64 * steps;
            }
            let cr = v.technique == Technique::CheckpointRestart;
            let shrink = v.policy == RecoveryPolicy::ShrinkRedistribute;
            if cr {
                inp.ckpt_writes += per * (v.checkpoints as usize * combining.len()) as f64;
            }
            if killed(v) {
                inp.repairs += per;
                if !shrink {
                    inp.recovers += per;
                }
                if cr && !shrink {
                    inp.ckpt_reads += per * broken(v.shape, v.technique, &v.victims).len() as f64;
                }
                if shrink || v.technique == Technique::AlternateCombination {
                    inp.robust_calls += per;
                }
            }
        }
        inp
    }

    /// Victims of a run of `shape` under `t`: the workload's own when it
    /// kills on that layout, else two drawn from the seed (so repair and
    /// recovery of a healthy workload are timed on its own world).
    fn victims_for(&self, shape: Shape, t: Technique) -> Vec<usize> {
        self.kills.iter().find(|k| k.0 == shape && k.1 == t).map(|k| k.2.clone()).unwrap_or_else(
            || workload::draw_victims(shape, t, &mut StdRng::seed_from_u64(self.seed)),
        )
    }

    fn has2(&self) -> bool {
        self.cells2 > 0.0
    }

    fn has_nd(&self) -> bool {
        self.cells_nd > 0.0
    }

    /// The shape used for whole-world probes of the workload's main
    /// dimension.
    fn main_shape(&self) -> (Shape, Technique) {
        if self.has2() {
            (self.shape2, self.tech2)
        } else {
            (self.shapes_nd[0], self.tech_nd)
        }
    }
}

/// Measurement context of one traced run.
struct Probe<'a> {
    inp: &'a Inputs,
    tr: Tracer,
    out: &'a Path,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

/// Run `entry` in a private world of `world` ranks; rank 0 pushes
/// `(start, end)` instants into the returned list. Application errors
/// are returned as text.
fn world_probe(
    rc: RunConfig,
    entry: impl Fn(&mut Ctx, &Mutex<Vec<(Instant, Instant)>>) + Send + Sync + 'static,
) -> Result<Vec<(Instant, Instant)>, String> {
    let times = Arc::new(Mutex::new(Vec::new()));
    let t = Arc::clone(&times);
    let report: Report = run(rc, move |ctx| entry(ctx, &t));
    if !report.app_errors.is_empty() {
        return Err(report.app_errors.join("; "));
    }
    let v = times.lock().expect("probe timing list is never poisoned").clone();
    Ok(v)
}

fn local(world: usize, workers: usize) -> RunConfig {
    let mut rc = RunConfig::local(world).with_workers(workers);
    rc.stall_timeout = STALL;
    rc
}

fn push_time(times: &Mutex<Vec<(Instant, Instant)>>, t0: Instant) {
    times.lock().expect("probe timing list is never poisoned").push((t0, Instant::now()));
}

impl<'a> Probe<'a> {
    fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        calls: f64,
        input: String,
        explained: f64,
    ) {
        self.metrics.push(Metric { name, value, calls, input, explained });
    }

    /// Record `(start, end)` pairs as spans; returns their durations.
    fn record(
        &mut self,
        name: &'static str,
        input: &str,
        times: &[(Instant, Instant)],
    ) -> Vec<f64> {
        times
            .iter()
            .map(|&(a, b)| {
                self.tr.record(name, input, a, b);
                (b - a).as_secs_f64()
            })
            .collect()
    }

    fn world_spans(
        &mut self,
        name: &'static str,
        input: &str,
        rc: RunConfig,
        entry: impl Fn(&mut Ctx, &Mutex<Vec<(Instant, Instant)>>) + Send + Sync + Clone + 'static,
    ) -> Option<Vec<f64>> {
        let mut all = Vec::new();
        for _ in 0..REPS {
            match world_probe(rc.clone(), entry.clone()) {
                Ok(t) => all.extend(self.record(name, input, &t)),
                Err(e) => {
                    self.failures.push(format!("{name} on {input}: {e}"));
                    return None;
                }
            }
        }
        Some(all)
    }

    // ---- advect2d -------------------------------------------------------

    /// Seconds per cell update of the 2D (`LocalSolver`) and nd
    /// (`SolverN`) kernels over every grid of the probe shapes.
    fn kernels(&mut self) -> (f64, f64) {
        let inp = self.inp;
        let s = inp.shape2;
        let sys = GridSystem::new(s.n, s.l, inp.tech2.layout());
        let problem = AdvectionProblem::standard();
        let dt = TimeGrid::for_system(&problem, s.n, s.steps(), 0.4).dt;
        let k = s.steps().min(PROBE_STEPS);
        let label = s.label();
        let per_cell2 = reps(|| {
            let mut t = 0.0;
            let mut cells = 0u64;
            for g in sys.grids() {
                let mut solver =
                    LocalSolver::new(problem, g.level, dt).with_kernel(KernelConfig::global());
                t += self.tr.time("advect2d.step", label.clone(), || {
                    solver.run(k);
                    std::hint::black_box(solver.grid());
                });
                cells += g.level.points() as u64 * k;
            }
            t / cells as f64
        });
        let mut total = 0.0;
        let mut cells = 0u64;
        for s in inp.shapes_nd.clone() {
            let sys = GridSystemN::new(s.dim, s.n, s.l, inp.tech_nd.layout());
            let problem = s.problem_nd();
            let dt = TimeGridN::for_system(&problem, s.n, s.steps(), 0.4).dt;
            let k = s.steps().min(PROBE_STEPS);
            let label = s.label();
            let per = reps(|| {
                let mut t = 0.0;
                let mut c = 0u64;
                for g in sys.grids() {
                    let mut solver = SolverN::new(problem.clone(), &g.level, dt);
                    t += self.tr.time("advect2d.nd_step", label.clone(), || {
                        solver.run(k);
                        std::hint::black_box(solver.grid());
                    });
                    c += nd_points(&g.level) as u64 * k;
                }
                t / c as f64
            });
            let c = system_stats(s, inp.tech_nd).0 as u64;
            total += per * c as f64;
            cells += c;
        }
        let per_cell_nd = total / cells as f64;
        let labels: Vec<String> = inp.shapes_nd.iter().map(Shape::label).collect();
        self.metric(
            "advect2d.step_ns_per_cell",
            per_cell2 * 1e9,
            inp.cells2,
            format!("LocalSolver on every grid of {label}"),
            per_cell2 * inp.cells2,
        );
        self.metric(
            "advect2d.nd_step_ns_per_cell",
            per_cell_nd * 1e9,
            inp.cells_nd,
            format!("SolverN on every grid of {}", labels.join(",")),
            per_cell_nd * inp.cells_nd,
        );
        self.metric(
            "advect2d.cell_updates_per_run",
            inp.cells2 + inp.cells_nd,
            f64::NAN,
            "nominal: grid cells x steps, recomputation excluded".into(),
            0.0,
        );
        self.metric(
            "advect2d.bytes_per_cell_computed",
            self.bytes_per_cell(),
            f64::NAN,
            "computed: padded read + interior write (+ rhs) per cell update".into(),
            0.0,
        );
        (per_cell2, per_cell_nd)
    }

    /// Computed bytes moved per cell update, weighted by the workload's
    /// cell updates: the padded current buffer is read, the interior of
    /// the next buffer written, and Jacobi also reads the padded rhs.
    fn bytes_per_cell(&self) -> f64 {
        let inp = self.inp;
        let padded = |dims: &[usize]| dims.iter().map(|d| d + 2).product::<usize>() as f64;
        let interior = |dims: &[usize]| dims.iter().product::<usize>() as f64;
        let sys2 = GridSystem::new(inp.shape2.n, inp.shape2.l, inp.tech2.layout());
        let (mut b2, mut c2) = (0.0, 0.0);
        for g in sys2.grids() {
            let d = [g.level.nx(), g.level.ny()];
            b2 += 8.0 * (padded(&d) + interior(&d));
            c2 += interior(&d);
        }
        let (mut bn, mut cn) = (0.0, 0.0);
        for s in &inp.shapes_nd {
            let sys = GridSystemN::new(s.dim, s.n, s.l, inp.tech_nd.layout());
            for g in sys.grids() {
                let d: Vec<usize> = g.level.iter().map(|&l| 1usize << l).collect();
                let rhs = if s.pde == Pde::Elliptic { padded(&d) } else { 0.0 };
                bn += 8.0 * (padded(&d) + interior(&d) + rhs);
                cn += interior(&d);
            }
        }
        let (w2, wn) =
            if inp.cells2 + inp.cells_nd > 0.0 { (inp.cells2, inp.cells_nd) } else { (1.0, 0.0) };
        (w2 * b2 / c2 + wn * bn / cn) / (w2 + wn)
    }

    // ---- sparsegrid -----------------------------------------------------

    fn sparsegrid(&mut self) {
        let inp = self.inp;
        let (shape, tech) = inp.main_shape();
        let label = shape.label();
        let us = if shape.dim == 2 {
            let sys = GridSystem::new(shape.n, shape.l, tech.layout());
            let ids = sys.combination_ids();
            let grids: Vec<Grid2> = ids
                .iter()
                .map(|&g| Grid2::from_fn(sys.grid(g).level, |x, y| (6.0 * x).sin() * y))
                .collect();
            let terms: Vec<CombinationTerm> = ids
                .iter()
                .zip(&grids)
                .map(|(&g, grid)| CombinationTerm {
                    coeff: sys.classical_coefficient(g) as f64,
                    grid,
                })
                .collect();
            let target = sys.min_level();
            reps(|| {
                self.tr.time("sparsegrid.combine", label.clone(), || {
                    std::hint::black_box(combine_binomial(target, &terms));
                })
            })
        } else {
            let sys = GridSystemN::new(shape.dim, shape.n, shape.l, tech.layout());
            let ids = sys.combination_ids();
            let grids: Vec<GridN> = ids
                .iter()
                .map(|&g| GridN::from_fn(&sys.grid(g).level, |x| (6.0 * x[0]).sin() * x[1]))
                .collect();
            let terms: Vec<CombinationTermN> = ids
                .iter()
                .zip(&grids)
                .map(|(&g, grid)| CombinationTermN {
                    coeff: sys.classical_coefficient(g) as f64,
                    grid,
                })
                .collect();
            let target = sys.min_level();
            reps(|| {
                self.tr.time("sparsegrid.combine", label.clone(), || {
                    std::hint::black_box(combine_onto_nd(&target, &terms));
                })
            })
        };
        let combine_fn = if shape.dim == 2 { "combine_binomial" } else { "combine_onto_nd" };
        self.metric(
            "sparsegrid.combine_us",
            us * 1e6,
            1.0,
            format!("{combine_fn} over the combination grids of {label}"),
            us,
        );

        // Robust coefficients on the workload's loss sets, each on the
        // layout it was drawn for.
        let mut times = Vec::new();
        let mut times_nd = Vec::new();
        let mut sets = 0usize;
        let draws = [(inp.shape2, inp.tech2), (inp.shapes_nd[0], inp.tech_nd)];
        let mut losses: Vec<(Shape, Technique, Vec<usize>)> = inp.kills.clone();
        for (shape, t) in draws {
            if !losses.iter().any(|k| (k.0.dim >= 3) == (shape.dim >= 3)) {
                losses.push((shape, t, inp.victims_for(shape, t)));
            }
        }
        for (shape, t, victims) in &losses {
            let lost = broken(*shape, *t, victims);
            if lost.is_empty() {
                continue;
            }
            sets += 1;
            let label = format!("{} {} lost {lost:?}", shape.label(), t.label());
            if shape.dim == 2 {
                let sys = GridSystem::new(shape.n, shape.l, t.layout());
                let surviving: LevelSet =
                    sys.grids().iter().filter(|g| !lost.contains(&g.id)).map(|g| g.level).collect();
                let lost_levels: Vec<LevelPair> = lost
                    .iter()
                    .map(|&b| sys.grid(b).level)
                    .filter(|lv| !surviving.contains(lv))
                    .collect();
                let downset = sys.classical_downset();
                for _ in 0..REPS {
                    times.push(self.tr.time("sparsegrid.robust_coeffs", label.clone(), || {
                        std::hint::black_box(robust_coefficients(
                            &downset,
                            &lost_levels,
                            &surviving,
                        ));
                    }));
                }
            } else {
                let sys = GridSystemN::new(shape.dim, shape.n, shape.l, t.layout());
                let mut surviving = LevelSetN::new(sys.dim());
                for g in sys.grids().iter().filter(|g| !lost.contains(&g.id)) {
                    surviving.insert(g.level.clone());
                }
                let lost_levels: Vec<LevelVecN> = lost
                    .iter()
                    .map(|&b| sys.grid(b).level.clone())
                    .filter(|lv| !surviving.contains(lv))
                    .collect();
                let downset = sys.classical_downset();
                for _ in 0..REPS {
                    times_nd.push(self.tr.time("sparsegrid.robust_coeffs", label.clone(), || {
                        std::hint::black_box(robust_coefficients_nd(
                            &downset,
                            &lost_levels,
                            &surviving,
                        ));
                    }));
                }
            }
        }
        // The figure is the main dimension's; the other is in the spans.
        let us = if inp.has2() || !inp.has_nd() { median(&times) } else { median(&times_nd) };
        self.metric(
            "sparsegrid.robust_coeffs_us",
            us * 1e6,
            inp.robust_calls,
            format!("robust_coefficients[_nd] on {sets} loss sets"),
            us * inp.robust_calls,
        );
    }

    // ---- core -----------------------------------------------------------

    /// `DistributedSolver[N]::step` of the workload's largest group, in a
    /// world of that group's size; halo = step wall − kernel share.
    fn psolve(&mut self, per_cell2: f64, per_cell_nd: f64) {
        let inp = self.inp;
        let mut step_s = Vec::new();
        let mut halo_s = Vec::new();
        let mut explained = 0.0;
        let mut inputs = Vec::new();
        for nd in [false, true] {
            if !(if nd { inp.has_nd() } else { inp.has2() }) {
                continue;
            }
            let (shape, tech) =
                if nd { (inp.shapes_nd[0], inp.tech_nd) } else { (inp.shape2, inp.tech2) };
            let k = shape.steps().min(PROBE_STEPS);
            let (size, cells, label, times) = match layout(shape, tech) {
                CaseLayout::Nd(lay) => {
                    let g = (0..lay.system().n_grids())
                        .max_by_key(|&g| lay.group(g).size * nd_points(&lay.system().grid(g).level))
                        .expect("layouts have grids");
                    let mut info = *lay.group(g);
                    info.first = 0;
                    let level = lay.system().grid(g).level.clone();
                    let problem = shape.problem_nd();
                    let dt = TimeGridN::for_system(&problem, shape.n, shape.steps(), 0.4).dt;
                    let label =
                        format!("{} grid {g} {:?} on {} ranks", shape.label(), level, info.size);
                    let cells = nd_points(&level);
                    let entry = move |ctx: &mut Ctx, times: &Mutex<Vec<(Instant, Instant)>>| {
                        let world = ctx.initial_world().expect("launched rank has a world");
                        let mut s = DistributedSolverN::new(
                            problem.clone(),
                            &level,
                            dt,
                            &info,
                            world.rank(),
                        );
                        world.barrier(ctx).expect("healthy barrier");
                        let t0 = Instant::now();
                        for _ in 0..k {
                            s.step(ctx, &world).expect("healthy step");
                        }
                        world.barrier(ctx).expect("healthy barrier");
                        if world.rank() == 0 {
                            push_time(times, t0);
                        }
                    };
                    let t = self.world_spans(
                        "core.psolve.step",
                        &label,
                        local(info.size, workload::SIM_WORKERS),
                        entry,
                    );
                    (info.size, cells, label, t)
                }
                CaseLayout::D2(lay) => {
                    let g = (0..lay.system().n_grids())
                        .max_by_key(|&g| lay.group(g).size * lay.system().grid(g).level.points())
                        .expect("layouts have grids");
                    let mut info = *lay.group(g);
                    info.first = 0;
                    let level = lay.system().grid(g).level;
                    let problem = AdvectionProblem::standard();
                    let dt = TimeGrid::for_system(&problem, shape.n, shape.steps(), 0.4).dt;
                    let label = format!(
                        "{} grid {g} {level:?} on {}x{} ranks",
                        shape.label(),
                        info.px,
                        info.py
                    );
                    let cells = level.points();
                    let entry = move |ctx: &mut Ctx, times: &Mutex<Vec<(Instant, Instant)>>| {
                        let world = ctx.initial_world().expect("launched rank has a world");
                        let mut s = DistributedSolver::new(problem, level, dt, &info, world.rank())
                            .with_kernel(KernelConfig::global());
                        world.barrier(ctx).expect("healthy barrier");
                        let t0 = Instant::now();
                        for _ in 0..k {
                            s.step(ctx, &world).expect("healthy step");
                        }
                        world.barrier(ctx).expect("healthy barrier");
                        if world.rank() == 0 {
                            push_time(times, t0);
                        }
                    };
                    let t = self.world_spans(
                        "core.psolve.step",
                        &label,
                        local(info.size, workload::SIM_WORKERS),
                        entry,
                    );
                    (info.size, cells, label, t)
                }
            };
            let Some(times) = times else { continue };
            let step = median(&times) / k as f64;
            let lanes = size.min(workload::SIM_WORKERS) as f64;
            let kernel = if nd { per_cell_nd } else { per_cell2 } * cells as f64 / lanes;
            let halo = step - kernel;
            let group_steps = if nd { inp.group_steps_nd } else { inp.group_steps2 };
            explained += halo.max(0.0) * group_steps;
            step_s.push((step, group_steps));
            halo_s.push((halo, group_steps));
            inputs.push(label);
        }
        // Weighted by each dimension's group steps per run.
        let weighted = |v: &[(f64, f64)]| {
            v.iter().map(|x| x.0 * x.1).sum::<f64>() / v.iter().map(|x| x.1).sum::<f64>()
        };
        let calls = inp.group_steps2 + inp.group_steps_nd;
        self.metric("core.psolve.step_us", weighted(&step_s) * 1e6, calls, inputs.join("; "), 0.0);
        self.metric(
            "core.psolve.halo_us",
            weighted(&halo_s) * 1e6,
            calls,
            "step - kernel share".into(),
            explained,
        );
    }

    /// Gather every group's grid to its root and binomial-combine the
    /// partials over the group leaders, in a world of the workload's size.
    fn gather_combine(&mut self) {
        let inp = self.inp;
        let (shape, tech) = inp.main_shape();
        let label = format!("{} {} world", shape.label(), tech.label());
        let times = match layout(shape, tech) {
            CaseLayout::D2(lay) => {
                let lay = Arc::new(lay);
                let world = lay.world_size();
                let entry = move |ctx: &mut Ctx, times: &Mutex<Vec<(Instant, Instant)>>| {
                    let world = ctx.initial_world().expect("launched rank has a world");
                    let sys = lay.system();
                    let my = lay.assignment(world.rank());
                    let group = world
                        .split(ctx, Some(my.grid as i64), my.local as i64)
                        .expect("healthy split")
                        .expect("every rank has a color");
                    let info = lay.group(my.grid);
                    let level = sys.grid(my.grid).level;
                    let grid = Grid2::from_fn(level, |x, y| (6.0 * x).sin() * y);
                    let block = split_grid(&grid, info).swap_remove(my.local);
                    let ids = sys.combination_ids();
                    let leaders: Vec<usize> = ids.iter().map(|&g| lay.root_of(g)).collect();
                    let target = sys.min_level();
                    let mut hop_buf = Vec::new();
                    world.barrier(ctx).expect("healthy barrier");
                    let t0 = Instant::now();
                    let full =
                        gather_grid(ctx, &group, info, level, &block).expect("healthy gather");
                    let part = full.and_then(|g| {
                        ids.iter().position(|&id| id == my.grid).map(|k| {
                            let c = sys.classical_coefficient(ids[k]) as f64;
                            combine_onto(target, &[CombinationTerm { coeff: c, grid: &g }])
                        })
                    });
                    binomial_combine(
                        ctx,
                        &world,
                        &leaders,
                        leaders[0],
                        target,
                        part,
                        &mut hop_buf,
                        PROBE_TAG,
                    )
                    .expect("healthy combine");
                    world.barrier(ctx).expect("healthy barrier");
                    if world.rank() == 0 {
                        push_time(times, t0);
                    }
                };
                self.world_spans(
                    "core.gather.combine",
                    &label,
                    local(world, workload::SIM_WORKERS),
                    entry,
                )
            }
            CaseLayout::Nd(lay) => {
                let lay = Arc::new(lay);
                let world = lay.world_size();
                let entry = move |ctx: &mut Ctx, times: &Mutex<Vec<(Instant, Instant)>>| {
                    let world = ctx.initial_world().expect("launched rank has a world");
                    let sys = lay.system();
                    let my = lay.assignment(world.rank());
                    let group = world
                        .split(ctx, Some(my.grid as i64), my.local as i64)
                        .expect("healthy split")
                        .expect("every rank has a color");
                    let info = lay.group(my.grid);
                    let level = sys.grid(my.grid).level.clone();
                    let grid = GridN::from_fn(&level, |x| (6.0 * x[0]).sin() * x[1]);
                    let block = split_grid_n(&grid, info).swap_remove(my.local);
                    let ids = sys.combination_ids();
                    let leaders: Vec<usize> = ids.iter().map(|&g| lay.root_of(g)).collect();
                    let target = sys.min_level();
                    let mut hop_buf = Vec::new();
                    world.barrier(ctx).expect("healthy barrier");
                    let t0 = Instant::now();
                    let full =
                        gather_grid_n(ctx, &group, info, &level, &block).expect("healthy gather");
                    let part = full.and_then(|g| {
                        ids.iter().position(|&id| id == my.grid).map(|k| {
                            let c = sys.classical_coefficient(ids[k]) as f64;
                            combine_onto_nd(&target, &[CombinationTermN { coeff: c, grid: &g }])
                        })
                    });
                    binomial_combine_n(
                        ctx,
                        &world,
                        &leaders,
                        leaders[0],
                        &target,
                        part,
                        &mut hop_buf,
                        PROBE_TAG,
                    )
                    .expect("healthy combine");
                    world.barrier(ctx).expect("healthy barrier");
                    if world.rank() == 0 {
                        push_time(times, t0);
                    }
                };
                self.world_spans(
                    "core.gather.combine",
                    &label,
                    local(world, workload::SIM_WORKERS),
                    entry,
                )
            }
        };
        let us = times.map_or(f64::NAN, |t| median(&t));
        let lanes = workload::SIM_WORKERS as f64;
        self.metric("core.gather.combine_us", us * 1e6, 1.0, label, us * lanes);
    }

    /// `CheckpointStore::write[_nd]` / `read_latest_valid[_nd]` on real
    /// files for every combination grid of the probe shapes.
    fn checkpoint(&mut self) {
        let inp = self.inp;
        let dir = self.out.join(format!("ckpt-probe-{}", std::process::id()));
        let store = match CheckpointStore::new(&dir) {
            Ok(s) => s,
            Err(e) => {
                self.failures.push(format!("checkpoint store at {}: {e}", dir.display()));
                return;
            }
        };
        let (mut w, mut r, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
        let main_nd = !inp.has2() && inp.has_nd();
        let s = if main_nd { inp.shapes_nd[0] } else { inp.shape2 };
        let label = s.label();
        for _ in 0..REPS {
            for g in system_stats(s, if main_nd { inp.tech_nd } else { inp.tech2 }).2 {
                let (written, tw, read, tr) = if main_nd {
                    let sys = GridSystemN::new(s.dim, s.n, s.l, inp.tech_nd.layout());
                    let grid = GridN::from_fn(&sys.grid(g).level, |x| x[0] + x[1]);
                    let (written, tw) =
                        self.tr.span("core.checkpoint.write", label.clone(), || {
                            store.write_nd(g, 8, &grid)
                        });
                    let (read, tr) = self.tr.span("core.checkpoint.read", label.clone(), || {
                        store.read_latest_valid_nd(g).map(|x| x.0.is_some())
                    });
                    (written, tw, read, tr)
                } else {
                    let sys = GridSystem::new(s.n, s.l, inp.tech2.layout());
                    let grid = Grid2::from_fn(sys.grid(g).level, |x, y| x + y);
                    let (written, tw) =
                        self.tr.span("core.checkpoint.write", label.clone(), || {
                            store.write(g, 8, &grid)
                        });
                    let (read, tr) = self.tr.span("core.checkpoint.read", label.clone(), || {
                        store.read_latest_valid(g).map(|x| x.0.is_some())
                    });
                    (written, tw, read, tr)
                };
                match (written, read) {
                    (Ok(b), Ok(true)) => {
                        bytes.push(b as f64);
                        w.push(tw);
                        r.push(tr);
                    }
                    other => self.failures.push(format!("checkpoint grid {g}: {other:?}")),
                }
            }
        }
        let _ = store.clear();
        let _ = std::fs::remove_dir_all(&dir);
        let (wm, rm) = (median(&w), median(&r));
        let input = format!("every combination grid of {label}, real files");
        self.metric(
            "core.checkpoint.write_us",
            wm * 1e6,
            inp.ckpt_writes,
            input.clone(),
            wm * inp.ckpt_writes,
        );
        self.metric(
            "core.checkpoint.read_us",
            rm * 1e6,
            inp.ckpt_reads,
            input,
            rm * inp.ckpt_reads,
        );
        self.metric(
            "core.checkpoint.bytes",
            mean(&bytes),
            inp.ckpt_writes,
            "bytes per checkpoint file".into(),
            0.0,
        );
    }

    /// `detect_and_repair` after the workload's kills, per policy, in a
    /// world of the workload's size.
    fn repair(&mut self) {
        let inp = self.inp;
        let (shape, tech) = inp.main_shape();
        let victims = inp.victims_for(shape, tech);
        let active = layout(shape, tech).world_size();
        let mut per_policy = Vec::new();
        let mut names = Vec::new();
        for &policy in &inp.policies.clone() {
            let spares = if policy == RecoveryPolicy::SpareSubstitute {
                ftsg_bench::chaos::CHAOS_SPARES
            } else {
                0
            };
            let v = victims.clone();
            let entry = move |ctx: &mut Ctx, times: &Mutex<Vec<(Instant, Instant)>>| {
                let mut t = ReconstructTimings::default();
                if ctx.is_spawned() {
                    let parent = ctx.parent();
                    let _ = communicator_reconstruct_with(
                        ctx,
                        None,
                        parent,
                        RespawnPolicy::SameHost,
                        &mut t,
                    );
                    return;
                }
                let world = ctx.initial_world().expect("launched rank has a world");
                world.barrier(ctx).expect("healthy barrier");
                let me = world.rank();
                if v.contains(&me) {
                    ctx.die();
                }
                let t0 = Instant::now();
                let mut members = None;
                detect_and_repair(
                    ctx,
                    world,
                    policy,
                    RespawnPolicy::SameHost,
                    active,
                    &mut members,
                    &mut t,
                )
                .expect("repair succeeds");
                if me == 0 {
                    push_time(times, t0);
                }
            };
            let label = format!(
                "{} {} victims {:?} {}",
                shape.label(),
                tech.label(),
                victims,
                policy.label()
            );
            let rc = local(active + spares, workload::SIM_WORKERS);
            if let Some(t) = self.world_spans("core.repair", &label, rc, entry) {
                per_policy.push(median(&t));
                names.push(policy.label());
            }
        }
        let us = mean(&per_policy);
        let lanes = workload::SIM_WORKERS as f64;
        self.metric(
            "core.repair_us",
            us * 1e6,
            inp.repairs,
            format!("detect_and_repair, mean over {}", names.join("/")),
            us * lanes * inp.repairs,
        );
    }

    /// `recovery::recover[_n]` per technique: every rank steps its grid,
    /// CR checkpoints and BC buddy-exchanges half way, then the
    /// workload's victims' grids are recovered at the later step.
    fn recover(&mut self) {
        let inp = self.inp;
        let (shape, _) = inp.main_shape();
        let mut per = Vec::new();
        let mut names = Vec::new();
        let at = shape.steps().min(PROBE_STEPS);
        let ckpt_at = at / 2;
        for &tech in &inp.techniques.clone() {
            if shape.dim >= 3 && tech == Technique::BuddyCheckpoint {
                continue;
            }
            let victims = inp.victims_for(shape, tech);
            let dir =
                self.out.join(format!("recover-probe-{}-{}", std::process::id(), tech.label()));
            let cfg = Arc::new(app_config(shape, tech, RecoveryPolicy::Respawn, dir.clone()));
            let v = victims.clone();
            let label = format!("{} {} victims {:?}", shape.label(), tech.label(), victims);
            let times = match layout(shape, tech) {
                CaseLayout::D2(lay) => {
                    let lay = Arc::new(lay);
                    let world = lay.world_size();
                    let entry = move |ctx: &mut Ctx, times: &Mutex<Vec<(Instant, Instant)>>| {
                        let world = ctx.initial_world().expect("launched rank has a world");
                        let my = lay.assignment(world.rank());
                        let group = world
                            .split(ctx, Some(my.grid as i64), my.local as i64)
                            .expect("healthy split")
                            .expect("every rank has a color");
                        let info = lay.group(my.grid);
                        let level = lay.system().grid(my.grid).level;
                        let dt = TimeGrid::for_system(&cfg.problem, cfg.n, cfg.steps(), 0.4).dt;
                        let mut s = DistributedSolver::new(cfg.problem, level, dt, info, my.local)
                            .with_kernel(cfg.kernel);
                        let store = CheckpointStore::new(&cfg.ckpt_dir).expect("checkpoint dir");
                        let mut buddy = BuddyStore::default();
                        s.run(ctx, &group, ckpt_at).expect("healthy steps");
                        match cfg.technique {
                            Technique::CheckpointRestart => {
                                if let Some(g) =
                                    gather_grid(ctx, &group, info, level, &s.local_block())
                                        .expect("healthy gather")
                                {
                                    store.write(my.grid, ckpt_at, &g).expect("checkpoint write");
                                }
                            }
                            Technique::BuddyCheckpoint => {
                                buddy_exchange(
                                    ctx, &lay, &world, &group, my, &s, ckpt_at, &mut buddy,
                                )
                                .expect("buddy exchange");
                            }
                            _ => {}
                        }
                        s.run(ctx, &group, at - ckpt_at).expect("healthy steps");
                        world.barrier(ctx).expect("healthy barrier");
                        let t0 = Instant::now();
                        recover(
                            ctx, &cfg, &lay, &world, &group, my, &mut s, &store, &mut buddy, &v, at,
                        )
                        .expect("recovery succeeds");
                        world.barrier(ctx).expect("healthy barrier");
                        if world.rank() == 0 {
                            push_time(times, t0);
                            let _ = store.clear();
                        }
                    };
                    self.world_spans(
                        "core.recover",
                        &label,
                        local(world, workload::SIM_WORKERS),
                        entry,
                    )
                }
                CaseLayout::Nd(lay) => {
                    let lay = Arc::new(lay);
                    let world = lay.world_size();
                    let entry = move |ctx: &mut Ctx, times: &Mutex<Vec<(Instant, Instant)>>| {
                        let world = ctx.initial_world().expect("launched rank has a world");
                        let my = lay.assignment(world.rank());
                        let group = world
                            .split(ctx, Some(my.grid as i64), my.local as i64)
                            .expect("healthy split")
                            .expect("every rank has a color");
                        let info = lay.group(my.grid);
                        let level = lay.system().grid(my.grid).level.clone();
                        let problem = cfg.resolved_problem_nd();
                        let dt = TimeGridN::for_system(&problem, cfg.n, cfg.steps(), 0.4).dt;
                        let mut s = DistributedSolverN::new(problem, &level, dt, info, my.local);
                        let store = CheckpointStore::new(&cfg.ckpt_dir).expect("checkpoint dir");
                        let mut buddy = BuddyStoreN::default();
                        s.run(ctx, &group, ckpt_at).expect("healthy steps");
                        match cfg.technique {
                            Technique::CheckpointRestart => {
                                if let Some(g) =
                                    gather_grid_n(ctx, &group, info, &level, &s.local_block())
                                        .expect("healthy gather")
                                {
                                    store.write_nd(my.grid, ckpt_at, &g).expect("checkpoint write");
                                }
                            }
                            Technique::BuddyCheckpoint => {
                                buddy_exchange_n(
                                    ctx, &lay, &world, &group, my, &s, ckpt_at, &mut buddy,
                                )
                                .expect("buddy exchange");
                            }
                            _ => {}
                        }
                        s.run(ctx, &group, at - ckpt_at).expect("healthy steps");
                        world.barrier(ctx).expect("healthy barrier");
                        let t0 = Instant::now();
                        recover_n(
                            ctx, &cfg, &lay, &world, &group, my, &mut s, &store, &mut buddy, &v, at,
                        )
                        .expect("recovery succeeds");
                        world.barrier(ctx).expect("healthy barrier");
                        if world.rank() == 0 {
                            push_time(times, t0);
                            let _ = store.clear();
                        }
                    };
                    self.world_spans(
                        "core.recover",
                        &label,
                        local(world, workload::SIM_WORKERS),
                        entry,
                    )
                }
            };
            let _ = std::fs::remove_dir_all(&dir);
            if let Some(t) = times {
                per.push(median(&t));
                names.push(tech.label());
            }
        }
        let us = mean(&per);
        let lanes = workload::SIM_WORKERS as f64;
        self.metric(
            "core.recover_us",
            us * 1e6,
            inp.recovers,
            format!("recover[_n] at step {at}, mean over {}", names.join("/")),
            us * lanes * inp.recovers,
        );
    }

    fn layout(&mut self, procs_per_run: f64) {
        let inp = self.inp;
        let (shape, tech) = inp.main_shape();
        let label = shape.label();
        let us = reps(|| {
            self.tr.time("core.layout", label.clone(), || {
                std::hint::black_box(layout(shape, tech));
            })
        });
        self.metric(
            "core.layout_us",
            us * 1e6,
            procs_per_run,
            format!("ProcLayout[N]::new for {label} (once per process)"),
            us * procs_per_run,
        );
    }

    // ---- ulfm-sim -------------------------------------------------------

    fn ulfm(&mut self, counts: &[Counts], op_calls: &OpCalls) {
        let inp = self.inp;
        let world = inp.world;
        let lanes = workload::SIM_WORKERS as f64;
        // Launch + teardown of an empty entry on the workload's runtime.
        let label = format!("{} ranks", world);
        let launch = reps(|| {
            let rc = inp.launch.clone();
            self.tr.time("ulfm.launch", label.clone(), || {
                std::hint::black_box(run(rc, |_ctx| {}).procs_created);
            })
        }) / world as f64;
        self.metric(
            "ulfm.launch_us_per_rank",
            launch * 1e6,
            world as f64,
            format!("run() with an empty entry at {world} ranks"),
            launch * lanes * world as f64,
        );
        // Point-to-point: ping-pong of a halo-row-sized payload.
        let (shape, _) = inp.main_shape();
        let len = 1usize << shape.n.min(12);
        let entry = move |ctx: &mut Ctx, times: &Mutex<Vec<(Instant, Instant)>>| {
            let w = ctx.initial_world().expect("launched rank has a world");
            let data = vec![1.0f64; len];
            w.barrier(ctx).expect("healthy barrier");
            let t0 = Instant::now();
            for _ in 0..P2P_ROUND_TRIPS {
                if w.rank() == 0 {
                    w.send(ctx, 1, PROBE_TAG, &data).expect("send");
                    let _: Vec<f64> = w.recv(ctx, 1, PROBE_TAG).expect("recv");
                } else {
                    let got: Vec<f64> = w.recv(ctx, 0, PROBE_TAG).expect("recv");
                    w.send(ctx, 0, PROBE_TAG, &got).expect("send");
                }
            }
            if w.rank() == 0 {
                push_time(times, t0);
            }
        };
        let msgs_per_run = mean(&counts.iter().map(|c| c.msgs).collect::<Vec<_>>());
        let p2p = self
            .world_spans("ulfm.p2p", &format!("{len} f64"), local(2, workload::SIM_WORKERS), entry)
            .map_or(f64::NAN, |t| median(&t) / (2 * P2P_ROUND_TRIPS) as f64);
        self.metric(
            "ulfm.p2p_ns_per_msg",
            p2p * 1e9,
            msgs_per_run,
            format!("ping-pong of {len} f64 between 2 ranks"),
            0.0,
        );
        // Shrink, agree and spawn+merge after the workload's kills.
        let victims = inp.victims_for(shape, inp.main_shape().1);
        let k = victims.len();
        let entry = move |ctx: &mut Ctx, times: &Mutex<Vec<(Instant, Instant)>>| {
            if ctx.is_spawned() {
                let parent = ctx.parent().expect("spawned rank has a parent");
                parent.merge(ctx, true).expect("child merge");
                return;
            }
            let w = ctx.initial_world().expect("launched rank has a world");
            w.barrier(ctx).expect("healthy barrier");
            if victims.contains(&w.rank()) {
                ctx.die();
            }
            let t0 = Instant::now();
            let s = w.shrink(ctx).expect("shrink");
            let t1 = Instant::now();
            let mut flag = true;
            s.agree(ctx, &mut flag).expect("agree on the shrunk world");
            let t2 = Instant::now();
            let specs = vec![SpawnSpec::anywhere(); k];
            let inter = comm_spawn_multiple(ctx, &s, &specs).expect("spawn");
            inter.merge(ctx, false).expect("parent merge");
            if s.rank() == 0 {
                let t3 = Instant::now();
                let mut v = times.lock().expect("probe timing list is never poisoned");
                v.extend([(t0, t1), (t1, t2), (t2, t3)]);
            }
        };
        let label = format!("{world} ranks, {k} killed");
        let mut sh = Vec::new();
        let mut ag = Vec::new();
        let mut sm = Vec::new();
        for _ in 0..REPS {
            match world_probe(local(world, workload::SIM_WORKERS), entry.clone()) {
                Ok(t) if t.len() == 3 => {
                    sh.extend(self.record("ulfm.shrink", &label, &t[0..1]));
                    ag.extend(self.record("ulfm.agree", &label, &t[1..2]));
                    sm.extend(self.record("ulfm.spawn_merge", &label, &t[2..3]));
                }
                Ok(t) => self.failures.push(format!("ulfm ft ops on {label}: {} timings", t.len())),
                Err(e) => {
                    self.failures.push(format!("ulfm ft ops on {label}: {e}"));
                    break;
                }
            }
        }
        for (name, v, calls) in [
            ("ulfm.shrink_us", &sh, op_calls.shrink),
            ("ulfm.agree_us", &ag, op_calls.agree),
            ("ulfm.spawn_merge_us", &sm, op_calls.spawn),
        ] {
            let s = median(v);
            self.metric(name, s * 1e6, calls, label.clone(), s * lanes * calls);
        }
        // Always-on runtime counters of the untraced runs.
        let avg = |f: fn(&Counts) -> f64| mean(&counts.iter().map(f).collect::<Vec<_>>());
        let retries: f64 = counts.iter().map(|c| c.retries).sum();
        let recvd: f64 = counts.iter().map(|c| c.msgs_recvd).sum();
        let src = "Report.metrics of the untraced runs".to_string();
        self.metric("ulfm.msgs_per_run", avg(|c| c.msgs), f64::NAN, src.clone(), 0.0);
        self.metric("ulfm.bytes_per_run", avg(|c| c.bytes), f64::NAN, src.clone(), 0.0);
        self.metric(
            "ulfm.recv_retry_ratio",
            if recvd > 0.0 { retries / recvd } else { 0.0 },
            f64::NAN,
            "receive retries / messages received".into(),
            0.0,
        );
        self.metric(
            "ulfm.procs_created_per_run",
            avg(|c| c.procs_created),
            f64::NAN,
            src.clone(),
            0.0,
        );
        self.metric("ulfm.trace_dropped_per_run", avg(|c| c.trace_dropped), f64::NAN, src, 0.0);
    }
}

/// Collective fault-tolerance calls per run, from the runtime's per-op
/// counters (summed over ranks, divided by the ranks that take part).
#[derive(Default)]
struct OpCalls {
    shrink: f64,
    agree: f64,
    spawn: f64,
}

impl OpCalls {
    fn observe(&mut self, report: &Report, runs: f64) {
        let procs = report.procs_created.max(1) as f64;
        for (op, n, _) in report.metrics.op_totals() {
            let per = n as f64 / procs / runs;
            match op {
                "shrink" => self.shrink += per,
                "agree" => self.agree += per,
                "spawn_multiple" => self.spawn += per,
                _ => {}
            }
        }
    }
}

/// Service timings for a direct workload: its first configurations as
/// service jobs (1 service worker, the workload's sim workers) against
/// the same configuration run directly.
fn service_probe(
    p: &mut Probe,
    jobs: Vec<(String, ftsg_core::AppConfig, usize)>,
    sim_workers: usize,
    calls: f64,
) {
    let (svc, rx) = Service::start(ServiceConfig { workers: 1, queue_depth: 4 });
    let mut wait = Vec::new();
    let mut exec = Vec::new();
    let mut over = Vec::new();
    for (label, cfg, world) in jobs {
        let (direct_ok, t_direct) = {
            let cfg = cfg.clone();
            let rc = local(world, sim_workers);
            p.tr.span("service.direct", label.clone(), || {
                run(rc, move |ctx| ftsg_core::run_app(&cfg, ctx)).app_errors.is_empty()
            })
        };
        let submitted = Instant::now();
        let id = svc
            .submit(JobSpec {
                name: label.clone(),
                work: JobWork::Solve(Box::new(SolveSpec {
                    cfg: cfg.clone(),
                    seed: p.inp.seed,
                    stall: Some(STALL),
                    sim_workers,
                })),
                cancel: None,
            })
            .expect("fresh service accepts jobs");
        let mut started = submitted;
        let done = loop {
            match rx.recv().expect("service streams events") {
                JobEvent::Started { id: i } if i == id => started = Instant::now(),
                e if e.is_terminal() && e.id() == id => break (Instant::now(), e),
                _ => {}
            }
        };
        let _ = std::fs::remove_dir_all(&cfg.ckpt_dir);
        p.tr.record("service.queue_wait", label.clone(), submitted, started);
        p.tr.record("service.exec", label.clone(), started, done.0);
        let ok = matches!(done.1, JobEvent::Done { .. })
            && matches!(svc.take_output(id), Some(JobOutput::Solve(_)));
        if !ok || !direct_ok {
            p.failures
                .push(format!("service probe {label}: {:?} (direct ok: {direct_ok})", done.1));
            continue;
        }
        wait.push((started - submitted).as_secs_f64());
        exec.push((done.0 - started).as_secs_f64());
        over.push((done.0 - started).as_secs_f64() - t_direct);
    }
    svc.shutdown();
    let o = median(&over);
    p.metric("service.queue_wait_ms", median(&wait) * 1e3, calls, "submit -> Started".into(), 0.0);
    p.metric("service.exec_ms", median(&exec) * 1e3, calls, "Started -> terminal".into(), 0.0);
    p.metric(
        "service.overhead_ms",
        o * 1e3,
        calls,
        "exec - the same spec run directly".into(),
        o.max(0.0) * calls,
    );
}

/// Median wall of each cycle entry's passing runs.
fn entry_medians(samples: &[Sample]) -> std::collections::BTreeMap<usize, f64> {
    stats::entry_medians(&passing_walls(samples)).into_iter().collect()
}

/// Finish a traced run: residual, overhead, span dump.
fn finish(
    mut p: Probe,
    workload: &str,
    seed: u64,
    untraced: &[Sample],
    traced: &[Sample],
    workers: usize,
) -> LayerReport {
    let base = entry_medians(untraced);
    let run_wall = median(&base.values().copied().collect::<Vec<_>>());
    // Overhead per cycle entry (traced - untraced median wall of the same
    // entry), so the mix of the two loops cancels.
    let overhead = median(
        &entry_medians(traced)
            .iter()
            .filter_map(|(k, t)| base.get(k).map(|u| t - u))
            .collect::<Vec<_>>(),
    );
    let explained: f64 = p.metrics.iter().map(|m| m.explained).sum::<f64>() / workers as f64;
    p.metric(
        "other.residual_share",
        (run_wall - explained) / run_wall,
        f64::NAN,
        format!("(run wall - {explained:.6} s explained) / run wall"),
        0.0,
    );
    p.metric(
        "trace.overhead_ms",
        overhead * 1e3,
        f64::NAN,
        "median over configurations of traced - untraced median run wall".into(),
        0.0,
    );
    let file = p.out.join(format!("trace-{workload}-seed{seed}.jsonl"));
    if let Err(e) = p.tr.write_jsonl(&file) {
        p.failures.push(format!("writing {}: {e}", file.display()));
    }
    let all: Vec<&Sample> = untraced.iter().chain(traced).collect();
    LayerReport {
        attempted: all.len(),
        failed: all.iter().filter(|s| s.fault.is_some()).count(),
        probe_failures: p.failures,
        metrics: p.metrics,
        run_wall,
        workers,
        spans: p.tr.len(),
        spans_file: file.display().to_string(),
    }
}

/// Traced run of a direct workload.
pub fn trace_direct(
    w: &Workload,
    refs: &[Option<f64>],
    seed: u64,
    seconds: f64,
    out: &Path,
) -> LayerReport {
    let mut ops = OpCalls::default();
    let mut tr = Tracer::new();
    let (untraced, traced) = paired_loop(w, refs, seed, 2.0 * seconds / 3.0, &mut tr, &mut ops);
    let views: Vec<RunView> = w
        .runs
        .iter()
        .map(|r| RunView {
            shape: r.shape,
            technique: r.technique,
            policy: r.policy,
            victims: r.victims.clone(),
            checkpoints: if r.technique == Technique::CheckpointRestart {
                r.cfg.checkpoints
            } else {
                0
            },
        })
        .collect();
    let first = &w.runs[0];
    let world = w.runs.iter().map(|r| r.world).max().unwrap_or(first.world);
    let widest = w.runs.iter().find(|r| r.world == world).unwrap_or(first);
    let launch = workload::run_config(widest.shape, world, seed);
    let inp = Inputs::from_runs(&views, launch, world, seed);
    let counts: Vec<Counts> = untraced.iter().map(|s| s.counts).collect();
    let mut p = Probe { inp: &inp, tr, out, failures: Vec::new(), metrics: Vec::new() };
    run_probes(&mut p, &counts, &ops);
    // The service path on the workload's own configurations (the 2D twin
    // when the workload is d >= 3 only: d >= 3 service jobs fail today).
    let mut jobs: Vec<(String, ftsg_core::AppConfig, usize)> = Vec::new();
    for r in w.runs.iter().filter(|r| r.shape.dim == 2).take(3) {
        let mut cfg = r.cfg.clone();
        cfg.ckpt_dir = out.join(format!("svc-probe-{}-{}", std::process::id(), jobs.len()));
        jobs.push((r.label.clone(), cfg, r.world));
    }
    if jobs.is_empty() {
        for r in w.runs.iter().take(3) {
            let shape = Shape { dim: 2, pde: Pde::Advection, ..r.shape };
            let dir = out.join(format!("svc-probe-{}-{}", std::process::id(), jobs.len()));
            let cfg = app_config(shape, r.technique, r.policy, dir);
            let world = cfg.world_size(layout(shape, r.technique).world_size());
            jobs.push((format!("{} (2D twin)", r.label), cfg, world));
        }
    }
    service_probe(&mut p, jobs, workload::SIM_WORKERS, 0.0);
    finish(p, w.name, seed, &untraced, &traced, workload::SIM_WORKERS)
}

/// Alternate untraced and traced runs of the same cycle entry until
/// `seconds` have passed, swapping which side goes first every entry, so
/// host noise and run order hit both sides alike. The first untraced run
/// of each entry feeds the per-op call counts.
fn paired_loop(
    w: &Workload,
    refs: &[Option<f64>],
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    ops: &mut OpCalls,
) -> (Vec<Sample>, Vec<Sample>) {
    let t0 = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut i = 0usize;
    while t0.elapsed().as_secs_f64() < seconds {
        let k = i % w.runs.len();
        let r: &AppRun = &w.runs[k];
        let traced_first = i % 2 == 1;
        for traced_side in [traced_first, !traced_first] {
            let ex = if traced_side {
                tr.span("app.run", r.label.clone(), || workload::execute(r, seed)).0
            } else {
                workload::execute(r, seed)
            };
            if !traced_side && i < w.runs.len() {
                ops.observe(&ex.report, w.runs.len() as f64);
            }
            let checked = workload::check_o3(r.technique, r.policy, &ex.report, refs[r.reference]);
            let side = if traced_side { &mut traced } else { &mut untraced };
            side.push(Sample::of(k, &ex, checked));
        }
        i += 1;
    }
    (untraced, traced)
}

fn run_probes(p: &mut Probe, counts: &[Counts], ops: &OpCalls) {
    let (per_cell2, per_cell_nd) = p.kernels();
    p.sparsegrid();
    p.psolve(per_cell2, per_cell_nd);
    p.gather_combine();
    p.checkpoint();
    p.repair();
    p.recover();
    let procs = mean(&counts.iter().map(|c| c.procs_created).collect::<Vec<_>>());
    p.layout(procs);
    p.ulfm(counts, ops);
}

/// Traced run of `campaign`.
pub fn trace_campaign(
    c: &Campaign,
    refs: &[Option<f64>],
    seed: u64,
    seconds: f64,
    out: &Path,
) -> LayerReport {
    let (untraced, _, _) = campaign::timed_loop(c, refs, seconds / 3.0);
    let mut tr = Tracer::new();
    let ((traced, timings, _), _) =
        tr.span("campaign.loop", "traced", || campaign::timed_loop(c, refs, seconds / 3.0));
    let views: Vec<RunView> = c
        .jobs
        .iter()
        .map(|j| RunView {
            shape: Shape {
                dim: j.case.shape.dim,
                n: j.case.shape.n,
                l: j.case.shape.l,
                scale: j.case.shape.scale,
                log2_steps: j.case.shape.log2_steps,
                pde: Pde::Advection,
            },
            technique: j.case.technique,
            policy: j.case.policy,
            victims: j.case.victims.iter().map(|v| v.0).collect(),
            checkpoints: if j.case.technique == Technique::CheckpointRestart {
                j.case.shape.checkpoints
            } else {
                0
            },
        })
        .collect();
    let world = c.jobs.iter().map(|j| j.world).max().unwrap_or(1);
    let inp = Inputs::from_runs(&views, local(world, campaign::SIM_WORKERS), world, seed);
    let counts: Vec<Counts> =
        untraced.iter().filter(|s| s.fault.is_none()).map(|s| s.counts).collect();
    let mut ops = OpCalls::default();
    // Per-op counts of a sample of jobs run directly (the service keeps
    // only the terminal report, which carries them too).
    let mut direct = Vec::new();
    let sample: Vec<usize> = (0..c.jobs.len().min(16)).collect();
    for &k in &sample {
        let job = &c.jobs[k];
        let dir = out.join(format!("direct-probe-{}-{k}", std::process::id()));
        let ((report, wall), _) = tr.span("service.direct", job.spec.clone(), || {
            campaign::run_direct(job, dir, campaign::SIM_WORKERS)
        });
        ops.observe(&report, sample.len() as f64);
        direct.push((k, wall));
    }
    let mut p = Probe { inp: &inp, tr, out, failures: Vec::new(), metrics: Vec::new() };
    run_probes(&mut p, &counts, &ops);
    let wait: Vec<f64> = timings.iter().map(|t| t.queue_wait).collect();
    let exec: Vec<f64> = timings.iter().map(|t| t.exec).collect();
    let over: Vec<f64> = direct
        .iter()
        .filter_map(|&(k, d)| {
            let e: Vec<f64> = timings.iter().filter(|t| t.job == k).map(|t| t.exec).collect();
            (!e.is_empty()).then(|| median(&e) - d)
        })
        .collect();
    let o = median(&over);
    p.metric("service.queue_wait_ms", median(&wait) * 1e3, 1.0, "submit -> Started".into(), 0.0);
    p.metric("service.exec_ms", median(&exec) * 1e3, 1.0, "Started -> terminal".into(), 0.0);
    p.metric(
        "service.overhead_ms",
        o * 1e3,
        1.0,
        format!("exec - the same spec run directly ({} jobs paired)", over.len()),
        o.max(0.0),
    );
    finish(p, "campaign", seed, &untraced, &traced, campaign::SIM_WORKERS)
}
