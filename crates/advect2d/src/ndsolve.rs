//! d-dimensional steppers: first-order upwind advection–diffusion and
//! Jacobi sweeps for the elliptic problem as one row kernel
//! ([`KernelN`]), plus the single-owner [`SolverN`] that drives it over a
//! [`PaddedFieldN`].
//!
//! A kernel is built once per solver from the [`ProblemN`] and the field
//! geometry. The same kernel steps the single-owner solver and the
//! distributed slab solver (`ftsg-core::psolve_nd`), so decomposition
//! cannot change the arithmetic, which keeps decomposed steps bitwise
//! equal to monolithic ones.
//!
//! ## Operation order
//!
//! `KernelN::row` updates one contiguous axis-0 interior row, one axis
//! at a time across the whole row. The first axis pass seeds each point
//! with its centre value (Jacobi: the right-hand side), and the last
//! Jacobi pass applies the `inv_diag` multiply. Per point that is
//! exactly the scalar chain
//!
//! ```text
//! upwind–diffusion: acc = c;  per axis i: acc -= c_i·dx_i;  acc += r_i·(fwd − 2c + bwd)
//! Jacobi:           acc = f;  per axis i: acc += h_i⁻²·(fwd + bwd);  acc·inv_diag
//! ```
//!
//! in axis order, one IEEE `add`/`sub`/`mul` per operator and no FMA.
//! Only the loop nest is interchanged (axes outside, points inside), and
//! no point can observe that. The upwind sign of an axis is a row
//! constant, hoisted to a const generic, so each branch evaluates the
//! selected difference literally. The bodies are generic over the SIMD
//! lane types of [`crate::simd`] and dispatch through its ISA selection,
//! so its argument (DESIGN.md §13) carries over: every lane and every
//! scalar tail computes the same bits, whatever the backend and wherever
//! a row is split. `tests/nd_kernel_props.rs` pins the rows bit for bit
//! to per-point reference closures.

use sparsegrid::GridN;

#[cfg(target_arch = "x86_64")]
use crate::simd::F64x8;
use crate::simd::{isa, F64x4, Isa, Lanes};

use crate::ndfield::PaddedFieldN;
use crate::ndproblem::ProblemN;

/// The stepping kernel of one solver: the problem's coefficients over a
/// field's padded strides, applied one axis-0 row at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelN {
    pstride: Vec<usize>,
    op: RowOp,
}

#[derive(Debug, Clone, PartialEq)]
enum RowOp {
    /// Courant numbers `c_i = a_i Δt / h_i` and diffusion numbers
    /// `r_i = κ Δt / h_i²`.
    UpwindDiffusion { c: Vec<f64>, r: Vec<f64> },
    /// Weighted Jacobi for `−Δu = f`: `h_i⁻²`, `1 / (2 Σ h_i⁻²)`, and `f`
    /// sampled in the field's padded offset space (halo entries zero),
    /// so a row reads it at the offsets it reads the solution at.
    Jacobi { inv_h2: Vec<f64>, inv_diag: f64, rhs: Vec<f64> },
}

impl KernelN {
    /// The kernel of `problem` on `field`, a slab of the periodic
    /// fundamental domain with `np[i]` nodes on axis `i` whose last axis
    /// starts at global plane `z0` (a single-owner field is the slab at
    /// `z0 = 0` with the full extent). `dt` is the timestep; the Jacobi
    /// sweep ignores it.
    pub fn new(problem: &ProblemN, field: &PaddedFieldN, np: &[usize], z0: usize, dt: f64) -> Self {
        let d = field.dim();
        assert_eq!(problem.dim(), d, "problem/field dimension mismatch");
        assert_eq!(np.len(), d, "domain/field dimension mismatch");
        let h: Vec<f64> = np.iter().map(|&n| 1.0 / n as f64).collect();
        let op = match problem {
            ProblemN::AdvectionDiffusion { a, kappa, .. } => RowOp::UpwindDiffusion {
                c: a.iter().zip(&h).map(|(ai, hi)| ai * dt / hi).collect(),
                r: h.iter().map(|hi| kappa * dt / (hi * hi)).collect(),
            },
            ProblemN::Elliptic { .. } => {
                let inv_h2: Vec<f64> = h.iter().map(|hi| 1.0 / (hi * hi)).collect();
                let inv_diag = 1.0 / (2.0 * inv_h2.iter().sum::<f64>());
                let rhs = field.sample(np, z0, |x| problem.rhs(x));
                RowOp::Jacobi { inv_h2, inv_diag, rhs }
            }
        };
        KernelN { pstride: field.pstrides().to_vec(), op }
    }

    /// Update one contiguous axis-0 interior row: `out[k]` becomes the
    /// next value of the point at padded offset `off + k` of `cur`.
    /// Panics if a stencil neighbour of the row lies outside `cur`.
    #[inline]
    pub(crate) fn row(&self, cur: &[f64], off: usize, out: &mut [f64]) {
        match isa() {
            // SAFETY: isa() returned Avx512/Avx2 only after runtime detection.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { row_avx512(self, cur, off, out) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { row_avx2(self, cur, off, out) },
            _ => row_body::<F64x4>(self, cur, off, out),
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn row_avx2(k: &KernelN, cur: &[f64], off: usize, out: &mut [f64]) {
    row_body::<F64x4>(k, cur, off, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn row_avx512(k: &KernelN, cur: &[f64], off: usize, out: &mut [f64]) {
    row_body::<F64x8>(k, cur, off, out)
}

/// The row update, accumulated axis by axis (see the module docs for why
/// this is the per-point chain).
#[inline(always)]
fn row_body<V: Lanes>(k: &KernelN, cur: &[f64], off: usize, out: &mut [f64]) {
    let n = out.len();
    match &k.op {
        RowOp::UpwindDiffusion { c, r } => {
            for (i, ((&s, &ci), &ri)) in k.pstride.iter().zip(c).zip(r).enumerate() {
                let (bwd, ctr, fwd) =
                    (&cur[off - s..][..n], &cur[off..][..n], &cur[off + s..][..n]);
                match (i == 0, ci >= 0.0) {
                    (true, true) => upwind_axis::<V, true, true>(ci, ri, bwd, ctr, fwd, out),
                    (true, false) => upwind_axis::<V, true, false>(ci, ri, bwd, ctr, fwd, out),
                    (false, true) => upwind_axis::<V, false, true>(ci, ri, bwd, ctr, fwd, out),
                    (false, false) => upwind_axis::<V, false, false>(ci, ri, bwd, ctr, fwd, out),
                }
            }
        }
        RowOp::Jacobi { inv_h2, inv_diag, rhs } => {
            let (rhs, last) = (&rhs[off..][..n], k.pstride.len() - 1);
            for (i, (&s, &w)) in k.pstride.iter().zip(inv_h2).enumerate() {
                let (bwd, fwd, d) = (&cur[off - s..][..n], &cur[off + s..][..n], *inv_diag);
                match (i == 0, i == last) {
                    (true, true) => jacobi_axis::<V, true, true>(w, d, rhs, bwd, fwd, out),
                    (true, false) => jacobi_axis::<V, true, false>(w, d, rhs, bwd, fwd, out),
                    (false, true) => jacobi_axis::<V, false, true>(w, d, rhs, bwd, fwd, out),
                    (false, false) => jacobi_axis::<V, false, false>(w, d, rhs, bwd, fwd, out),
                }
            }
        }
    }
}

/// One axis of upwind–diffusion: `acc -= c·dx; acc += r·(fwd − 2c + bwd)`
/// with `dx` against the upwind neighbour (`UP`: `c ≥ 0`), seeding `acc`
/// with the centre value on the first axis (`SEED`).
#[inline(always)]
fn upwind_axis<V: Lanes, const SEED: bool, const UP: bool>(
    ci: f64,
    ri: f64,
    bwd: &[f64],
    ctr: &[f64],
    fwd: &[f64],
    out: &mut [f64],
) {
    let n = out.len();
    let (bwd, ctr, fwd) = (&bwd[..n], &ctr[..n], &fwd[..n]);
    let (vc, vr, two) = (V::splat(ci), V::splat(ri), V::splat(2.0));
    let op = out.as_mut_ptr();
    let mut k = 0;
    while k + V::N <= n {
        // SAFETY: k + V::N <= n and all four slices hold n values.
        unsafe {
            let c = V::load(ctr.as_ptr().add(k));
            let f = V::load(fwd.as_ptr().add(k));
            let b = V::load(bwd.as_ptr().add(k));
            let dx = if UP { c - b } else { f - c };
            let acc = if SEED { c } else { V::load(op.add(k)) } - vc * dx;
            (acc + vr * (f - two * c + b)).store(op.add(k));
        }
        k += V::N;
    }
    while k < n {
        let (c, f, b) = (ctr[k], fwd[k], bwd[k]);
        let dx = if UP { c - b } else { f - c };
        let acc = if SEED { c } else { out[k] } - ci * dx;
        out[k] = acc + ri * (f - 2.0 * c + b);
        k += 1;
    }
}

/// One axis of the Jacobi sweep: `acc += w·(fwd + bwd)`, seeding `acc`
/// from `rhs` on the first axis (`SEED`) and applying `acc · inv_diag`
/// after the last (`LAST`).
#[inline(always)]
fn jacobi_axis<V: Lanes, const SEED: bool, const LAST: bool>(
    w: f64,
    inv_diag: f64,
    rhs: &[f64],
    bwd: &[f64],
    fwd: &[f64],
    out: &mut [f64],
) {
    let n = out.len();
    let (rhs, bwd, fwd) = (&rhs[..n], &bwd[..n], &fwd[..n]);
    let (vw, vd) = (V::splat(w), V::splat(inv_diag));
    let op = out.as_mut_ptr();
    let mut k = 0;
    while k + V::N <= n {
        // SAFETY: k + V::N <= n and all four slices hold n values.
        unsafe {
            let acc = if SEED { V::load(rhs.as_ptr().add(k)) } else { V::load(op.add(k)) };
            let sum = V::load(fwd.as_ptr().add(k)) + V::load(bwd.as_ptr().add(k));
            let acc = acc + vw * sum;
            (if LAST { acc * vd } else { acc }).store(op.add(k));
        }
        k += V::N;
    }
    while k < n {
        let acc = if SEED { rhs[k] } else { out[k] } + w * (fwd[k] + bwd[k]);
        out[k] = if LAST { acc * inv_diag } else { acc };
        k += 1;
    }
}

/// Single-owner periodic d-dimensional solver, mirroring the 2D
/// `UpwindSolver`/`LocalSolver` pattern: load once, step through the
/// double-buffered padded field, store once.
#[derive(Debug, Clone)]
pub struct SolverN {
    problem: ProblemN,
    grid: GridN,
    dt: f64,
    steps_done: u64,
    field: PaddedFieldN,
    kernel: KernelN,
}

impl SolverN {
    /// Initialize from the problem's initial condition at a level vector.
    pub fn new(problem: ProblemN, level: &[u32], dt: f64) -> Self {
        assert_eq!(problem.dim(), level.len(), "problem/level dimension mismatch");
        let grid = GridN::from_fn(level, |x| problem.initial(x));
        let field = PaddedFieldN::from_grid(&grid);
        let np = field.shape().to_vec();
        let kernel = KernelN::new(&problem, &field, &np, 0, dt);
        SolverN { problem, grid, dt, steps_done: 0, field, kernel }
    }

    /// Advance `n` timesteps (or Jacobi sweeps for the elliptic class).
    pub fn run(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.field.load(&self.grid);
        for _ in 0..n {
            self.field.refresh_periodic_halo();
            self.field.step_with(&self.kernel);
        }
        self.field.store(&mut self.grid);
        self.steps_done += n;
    }

    /// Advance one step.
    pub fn step(&mut self) {
        self.run(1);
    }

    /// Simulated time reached (sweep count for the elliptic class).
    pub fn time(&self) -> f64 {
        self.steps_done as f64 * self.dt
    }

    /// The current solution grid.
    pub fn grid(&self) -> &GridN {
        &self.grid
    }

    /// The PDE.
    pub fn problem(&self) -> &ProblemN {
        &self.problem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndproblem::TimeGridN;

    #[test]
    fn constant_state_is_a_fixed_point_of_advection() {
        let p =
            ProblemN::AdvectionDiffusion { a: vec![1.0, -0.5, 0.25], kappa: 0.1, k: vec![1; 3] };
        let mut s = SolverN::new(p, &[3, 3, 3], 0.001);
        // Overwrite the IC with a constant.
        for v in s.grid.values_mut() {
            *v = 2.0;
        }
        s.run(20);
        for &v in s.grid().values() {
            assert!((v - 2.0).abs() < 1e-13, "constant broken: {v}");
        }
    }

    #[test]
    fn advection_diffusion_tracks_the_exact_solution() {
        let p = ProblemN::standard_advection(3);
        let tg = TimeGridN::for_system(&p, 5, 0, 0.4);
        let steps = (0.05 / tg.dt).round() as u64;
        let mut s = SolverN::new(p.clone(), &[5, 5, 5], tg.dt);
        s.run(steps);
        let t = s.time();
        let err = s.grid().l1_error_vs(|x| p.exact(x, t));
        assert!(err < 0.06, "first-order upwind should stay close: {err}");
    }

    #[test]
    fn upwind_converges_at_first_order() {
        let p = ProblemN::standard_advection(2);
        let err_at = |lev: u32| {
            let dt = 0.1 / (1u64 << lev) as f64;
            let steps = (0.1 / dt).round() as u64;
            let mut s = SolverN::new(p.clone(), &[lev, lev], dt);
            s.run(steps);
            let t = s.time();
            s.grid().l1_error_vs(|x| p.exact(x, t))
        };
        let e4 = err_at(4);
        let e5 = err_at(5);
        assert!(e5 < e4 / 1.6, "e4={e4}, e5={e5}");
    }

    #[test]
    fn jacobi_converges_to_the_manufactured_solution() {
        let p = ProblemN::standard_elliptic(3);
        let mut s = SolverN::new(p.clone(), &[3, 3, 3], 1.0);
        s.run(400);
        let err = s.grid().l1_error_vs(|x| p.exact(x, 0.0));
        assert!(err < 0.03, "Jacobi should approach u*: {err}");
        // More sweeps keep improving (monotone residual decay).
        let mut s2 = SolverN::new(p.clone(), &[3, 3, 3], 1.0);
        s2.run(800);
        let err2 = s2.grid().l1_error_vs(|x| p.exact(x, 0.0));
        assert!(err2 <= err + 1e-12, "{err2} vs {err}");
    }

    #[test]
    fn advection_step_sits_at_the_stability_bound() {
        // On the finest mesh the TimeGridN step puts Σ_i (|c_i| + 2 r_i)
        // exactly at the CFL number.
        let p = ProblemN::standard_advection(3);
        let tg = TimeGridN::for_system(&p, 4, 1, 0.4);
        let s = SolverN::new(p, &[4, 4, 4], tg.dt);
        let RowOp::UpwindDiffusion { c, r } = &s.kernel.op else {
            panic!("advection must build upwind coefficients")
        };
        let stability = c.iter().map(|v| v.abs()).sum::<f64>() + 2.0 * r.iter().sum::<f64>();
        assert!((stability - 0.4).abs() < 1e-12, "{stability}");
    }
}
