//! Property tests pinning the d-dimensional row kernel ([`KernelN`]) to
//! per-point reference closures with **bit-pattern equality**. The
//! closures below are the point kernels the nd solvers stepped with
//! before the row kernel existed, kept verbatim as the oracle: one call
//! per interior point, per-axis upwind sign branch, axis loop inside.
//!
//! Random shapes put the axis-0 extent anywhere in 1..=17, so rows fall
//! below, at and across every SIMD lane width; velocities take mixed
//! signs (and zero), κ may vanish, the Jacobi right-hand side varies with
//! random wave numbers, domain extents and slab offsets, and every
//! `step_planes` cover is split at random plane boundaries.

use advect2d::ndproblem::ProblemN;
use advect2d::{KernelN, PaddedFieldN};
use proptest::prelude::*;
use sparsegrid::ndgrid::advance;

/// Deterministic pseudo-random fill (splitmix64 → uniform in [-1, 1]).
fn fill(seed: u64, buf: &mut [f64]) {
    let mut x = seed.wrapping_add(0x9e3779b97f4a7c15);
    for v in buf.iter_mut() {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        *v = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    }
}

/// Reference upwind–diffusion point update.
fn upwind_diffusion_point(
    c: Vec<f64>,
    r: Vec<f64>,
    pstride: Vec<usize>,
) -> impl Fn(&[f64], usize) -> f64 {
    move |cur, off| {
        let ctr = cur[off];
        let mut acc = ctr;
        for (i, &s) in pstride.iter().enumerate() {
            let fwd = cur[off + s];
            let bwd = cur[off - s];
            let dx = if c[i] >= 0.0 { ctr - bwd } else { fwd - ctr };
            acc -= c[i] * dx;
            acc += r[i] * (fwd - 2.0 * ctr + bwd);
        }
        acc
    }
}

/// Reference weighted-Jacobi point update (`rhs` in padded offsets).
fn jacobi_point(
    inv_h2: Vec<f64>,
    pstride: Vec<usize>,
    rhs: Vec<f64>,
) -> impl Fn(&[f64], usize) -> f64 {
    let inv_diag = 1.0 / (2.0 * inv_h2.iter().sum::<f64>());
    move |cur, off| {
        let mut acc = rhs[off];
        for i in 0..pstride.len() {
            let s = pstride[i];
            acc += inv_h2[i] * (cur[off + s] + cur[off - s]);
        }
        acc * inv_diag
    }
}

/// A per-point kernel: the new value of the point at a padded offset.
type PointKernel = Box<dyn Fn(&[f64], usize) -> f64>;

/// Padded offset of an interior multi-index.
fn offset(idx: &[usize], pstride: &[usize]) -> usize {
    idx.iter().zip(pstride).map(|(&k, &s)| (k + 1) * s).sum()
}

/// The reference kernel for `problem` on `field` (a slab at `z0` of a
/// domain with `np` nodes per axis), coefficients derived independently.
fn reference(
    problem: &ProblemN,
    field: &PaddedFieldN,
    np: &[usize],
    z0: usize,
    dt: f64,
) -> PointKernel {
    let d = field.dim();
    let pstride = field.pstrides().to_vec();
    let h: Vec<f64> = np.iter().map(|&n| 1.0 / n as f64).collect();
    match problem {
        ProblemN::AdvectionDiffusion { a, kappa, .. } => {
            let c = a.iter().zip(&h).map(|(ai, hi)| ai * dt / hi).collect();
            let r = h.iter().map(|hi| kappa * dt / (hi * hi)).collect();
            Box::new(upwind_diffusion_point(c, r, pstride))
        }
        ProblemN::Elliptic { .. } => {
            let inv_h2 = h.iter().map(|hi| 1.0 / (hi * hi)).collect();
            let mut rhs = vec![0.0; field.padded().len()];
            let mut idx = vec![0usize; d];
            loop {
                let x: Vec<f64> = (0..d)
                    .map(|i| {
                        let g = if i == d - 1 { idx[i] + z0 } else { idx[i] };
                        g as f64 / np[i] as f64
                    })
                    .collect();
                rhs[offset(&idx, &pstride)] = problem.rhs(&x);
                if !advance(&mut idx, field.shape()) {
                    break;
                }
            }
            Box::new(jacobi_point(inv_h2, pstride, rhs))
        }
    }
}

/// Bits of every interior point of the current buffer.
fn interior_bits(field: &PaddedFieldN) -> Vec<u64> {
    let mut out = Vec::new();
    let mut idx = vec![0usize; field.dim()];
    loop {
        out.push(field.at(&idx).to_bits());
        if !advance(&mut idx, field.shape()) {
            return out;
        }
    }
}

/// Step `field` once with the point oracle and return the new interior bits.
fn oracle_step(field: &PaddedFieldN, point: &dyn Fn(&[f64], usize) -> f64) -> Vec<u64> {
    let cur = field.padded();
    let pstride = field.pstrides();
    let mut out = Vec::new();
    let mut idx = vec![0usize; field.dim()];
    loop {
        out.push(point(cur, offset(&idx, pstride)).to_bits());
        if !advance(&mut idx, field.shape()) {
            return out;
        }
    }
}

/// Split `0..nz` at `cuts` (taken mod `nz + 1`), in ascending or
/// descending order of the pieces; empty pieces stay in.
fn cover(nz: usize, cuts: &[usize], reverse: bool) -> Vec<(usize, usize)> {
    let mut at: Vec<usize> = cuts.iter().map(|&c| c % (nz + 1)).collect();
    at.push(0);
    at.push(nz);
    at.sort_unstable();
    let mut pieces: Vec<(usize, usize)> = at.windows(2).map(|w| (w[0], w[1])).collect();
    if reverse {
        pieces.reverse();
    }
    pieces
}

/// A random interior shape: axis 0 in 1..=17, the rest small enough to
/// keep d = 4 cheap.
fn shape_of(d: usize, n0: usize, rest: &[usize]) -> Vec<usize> {
    let mut shape = vec![n0];
    shape.extend(rest.iter().take(d - 1).map(|&n| 1 + n % 4));
    shape
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Upwind–diffusion rows equal the point oracle bitwise, whole-step
    /// and split at random plane boundaries.
    #[test]
    fn upwind_diffusion_rows_match_point_oracle_bitwise(
        d in 1usize..5,
        n0 in 1usize..18,
        rest in proptest::collection::vec(0usize..64, 3),
        a in proptest::collection::vec(prop_oneof![Just(0.0f64), -2.0f64..2.0], 4),
        kappa in prop_oneof![Just(0.0f64), 0.0f64..0.5],
        dt in 0.001f64..0.05,
        extra in 0usize..5,
        cuts in proptest::collection::vec(0usize..64, 0..4),
        reverse in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let shape = shape_of(d, n0, &rest);
        let problem = ProblemN::AdvectionDiffusion { a: a[..d].to_vec(), kappa, k: vec![1; d] };
        let mut np = shape.clone();
        np[d - 1] += extra;
        let z0 = extra / 2;
        let mut field = PaddedFieldN::new(&shape);
        fill(seed, field.padded_mut());
        let kernel = KernelN::new(&problem, &field, &np, z0, dt);
        let point = reference(&problem, &field, &np, z0, dt);

        let want = oracle_step(&field, &*point);
        let mut whole = field.clone();
        whole.step_with(&kernel);
        prop_assert_eq!(interior_bits(&whole), want.clone(), "whole step, shape {:?}", shape);

        let mut parts = field.clone();
        let pieces = cover(shape[d - 1], &cuts, reverse);
        for &(lo, hi) in &pieces {
            parts.step_planes(lo, hi, &kernel);
        }
        parts.commit_step();
        prop_assert_eq!(interior_bits(&parts), want, "cover {:?}, shape {:?}", pieces, shape);
    }

    /// Jacobi rows equal the point oracle bitwise, with the right-hand
    /// side sampled on a random slab of a random domain.
    #[test]
    fn jacobi_rows_match_point_oracle_bitwise(
        d in 1usize..5,
        n0 in 1usize..18,
        rest in proptest::collection::vec(0usize..64, 3),
        k in proptest::collection::vec(0u32..6, 4),
        extra in 0usize..9,
        z0 in 0usize..9,
        cuts in proptest::collection::vec(0usize..64, 0..4),
        reverse in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let shape = shape_of(d, n0, &rest);
        let problem = ProblemN::Elliptic { k: k[..d].to_vec() };
        let mut np: Vec<usize> = shape.iter().map(|&n| n + extra % 3).collect();
        np[d - 1] = shape[d - 1] + extra;
        let z0 = z0.min(extra);
        let mut field = PaddedFieldN::new(&shape);
        fill(seed, field.padded_mut());
        let kernel = KernelN::new(&problem, &field, &np, z0, 1.0);
        let point = reference(&problem, &field, &np, z0, 1.0);

        let want = oracle_step(&field, &*point);
        let mut whole = field.clone();
        whole.step_with(&kernel);
        prop_assert_eq!(interior_bits(&whole), want.clone(), "whole sweep, shape {:?}", shape);

        let mut parts = field.clone();
        let pieces = cover(shape[d - 1], &cuts, reverse);
        for &(lo, hi) in &pieces {
            parts.step_planes(lo, hi, &kernel);
        }
        parts.commit_step();
        prop_assert_eq!(interior_bits(&parts), want, "cover {:?}, shape {:?}", pieces, shape);
    }

    /// Several periodic steps of the row kernel track the point oracle
    /// bit for bit (halo refresh between steps).
    #[test]
    fn periodic_trajectory_matches_point_oracle_bitwise(
        d in 1usize..5,
        n0 in 1usize..18,
        rest in proptest::collection::vec(0usize..64, 3),
        a in proptest::collection::vec(-2.0f64..2.0, 4),
        elliptic in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let shape = shape_of(d, n0, &rest);
        let problem = if elliptic {
            ProblemN::Elliptic { k: vec![1; d] }
        } else {
            ProblemN::AdvectionDiffusion { a: a[..d].to_vec(), kappa: 0.02, k: vec![1; d] }
        };
        let mut field = PaddedFieldN::new(&shape);
        fill(seed, field.padded_mut());
        let kernel = KernelN::new(&problem, &field, &shape, 0, 0.01);
        let point = reference(&problem, &field, &shape, 0, 0.01);
        let mut oracle = field.clone();
        for step in 0..4 {
            oracle.refresh_periodic_halo();
            let want = oracle_step(&oracle, &*point);
            // Write the oracle's interior back in place of a step.
            let pstride = oracle.pstrides().to_vec();
            let shape_v = oracle.shape().to_vec();
            let mut idx = vec![0usize; d];
            let mut it = want.iter();
            loop {
                let off = offset(&idx, &pstride);
                oracle.padded_mut()[off] = f64::from_bits(*it.next().unwrap());
                if !advance(&mut idx, &shape_v) {
                    break;
                }
            }
            field.refresh_periodic_halo();
            field.step_with(&kernel);
            prop_assert_eq!(interior_bits(&field), want, "step {}, shape {:?}", step, shape);
        }
    }
}
