//! The d-dimensional stepping engine — [`PaddedFieldN`] generalizes
//! [`crate::stepper::PaddedField`] to arbitrary dimension.
//!
//! Both buffers hold the interior `n_0 × … × n_{d-1}` block (the
//! fundamental periodic domain; the duplicated seam node is *not*
//! stored) surrounded by a 1-cell halo on every face, row-major with
//! axis 0 fastest. One timestep refreshes the halo (`O(surface)`
//! copies), evaluates a [`KernelN`] row by row over the interior into the
//! other buffer, and ping-pongs — the same allocation-free discipline as the
//! tuned 2D path, which remains the d=2 fast case (this engine never
//! runs at d=2 in production; the 2D kernels do).
//!
//! The halo can be filled two ways: [`PaddedFieldN::refresh_periodic_halo`]
//! for single-owner periodic solves, or transverse wrap + external plane
//! exchange ([`PaddedFieldN::wrap_transverse_halo`] /
//! [`PaddedFieldN::set_plane`]) for the distributed slab decomposition —
//! slabs split the **last** axis, whose stride is largest, so every
//! exchanged halo plane is one contiguous slice.

use sparsegrid::ndgrid::{advance, GridN};

use crate::ndsolve::KernelN;

/// A persistent double-buffered halo-padded d-dimensional field.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddedFieldN {
    shape: Vec<usize>,
    pstride: Vec<usize>,
    cur: Vec<f64>,
    next: Vec<f64>,
}

impl PaddedFieldN {
    /// An all-zero field with the given interior shape.
    pub fn new(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "dimension must be ≥ 1");
        assert!(shape.iter().all(|&n| n >= 1), "interior must be non-empty: {shape:?}");
        let pshape: Vec<usize> = shape.iter().map(|&n| n + 2).collect();
        let mut pstride = vec![1usize; shape.len()];
        for i in 1..shape.len() {
            pstride[i] = pstride[i - 1] * pshape[i - 1];
        }
        let len = pstride.last().unwrap() * pshape.last().unwrap();
        PaddedFieldN { shape: shape.to_vec(), pstride, cur: vec![0.0; len], next: vec![0.0; len] }
    }

    /// A field sized for `grid`'s fundamental domain, loaded from it.
    pub fn from_grid(grid: &GridN) -> Self {
        let shape: Vec<usize> = grid.shape().iter().map(|&n| n - 1).collect();
        let mut f = PaddedFieldN::new(&shape);
        f.load(grid);
        f
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.shape.len()
    }

    /// Interior shape (fundamental domain, seam excluded).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Padded strides (axis 0 fastest).
    pub fn pstrides(&self) -> &[usize] {
        &self.pstride
    }

    /// Linear offset of a padded multi-index.
    #[inline]
    pub fn poffset(&self, idx: &[usize]) -> usize {
        idx.iter().zip(&self.pstride).map(|(&k, &s)| k * s).sum()
    }

    /// The current padded buffer (halo + interior).
    pub fn padded(&self) -> &[f64] {
        &self.cur
    }

    /// Mutable view of the current padded buffer.
    pub fn padded_mut(&mut self) -> &mut [f64] {
        &mut self.cur
    }

    /// Interior value at an interior multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f64 {
        let off: usize = idx.iter().zip(&self.pstride).map(|(&k, &s)| (k + 1) * s).sum();
        self.cur[off]
    }

    /// Copy `grid`'s fundamental domain into the interior. The halo is
    /// left stale; refresh or exchange before stepping.
    pub fn load(&mut self, grid: &GridN) {
        assert!(
            grid.shape().iter().zip(&self.shape).all(|(&g, &n)| g - 1 == n),
            "grid size mismatch: {:?} vs {:?}",
            grid.shape(),
            self.shape
        );
        let n0 = self.shape[0];
        let values = grid.values();
        grid_rows(&self.shape, &self.pstride, grid.strides(), |g, p| {
            self.cur[p..p + n0].copy_from_slice(&values[g..g + n0])
        });
    }

    /// Copy the interior back into `grid`'s fundamental domain and
    /// re-assert the periodic seams (the last node of every axis
    /// duplicates node 0).
    pub fn store(&self, grid: &mut GridN) {
        let n0 = self.shape[0];
        let gstride = grid.strides().to_vec();
        let gshape = grid.shape().to_vec();
        let values = grid.values_mut();
        grid_rows(&self.shape, &self.pstride, &gstride, |g, p| {
            values[g..g + n0].copy_from_slice(&self.cur[p..p + n0])
        });
        // Seam pass per axis: coordinates on already-seamed axes (< a)
        // range over the full grid extent, later axes stay below their
        // seam (their own pass fills it) — corners end up consistent.
        // Axes < a at full extent make index 0 on axis `a` one
        // contiguous block of `gstride[a]` values.
        for a in 0..gshape.len() {
            let sa = gstride[a];
            let seam = (gshape[a] - 1) * sa;
            let outer: Vec<usize> = gshape[a + 1..].iter().map(|&n| n - 1).collect();
            let mut it = vec![0usize; outer.len()];
            loop {
                let base: usize = it.iter().zip(&gstride[a + 1..]).map(|(&k, &s)| k * s).sum();
                values.copy_within(base..base + sa, base + seam);
                if !advance(&mut it, &outer) {
                    break;
                }
            }
        }
    }

    /// Wrap the halo of axes `from..upto` periodically from the interior.
    /// Axis `a`'s pass covers the full padded extent of axes `< a` and
    /// the interior extent of axes `> a`, so corners shared by wrapped
    /// axes come out consistent (same scheme as the 2D path: columns
    /// first, then whole padded rows). With axes `< a` at full padded
    /// extent, one index on axis `a` is a contiguous block of
    /// `pstride[a]` values, so each pass is two block copies per index
    /// of the axes above `a`.
    fn wrap_axes_from(&mut self, from: usize, upto: usize) {
        for a in from..upto {
            let n = self.shape[a];
            let sa = self.pstride[a];
            let outer = &self.shape[a + 1..];
            let mut it = vec![0usize; outer.len()];
            loop {
                let base: usize =
                    it.iter().zip(&self.pstride[a + 1..]).map(|(&k, &s)| (k + 1) * s).sum();
                if sa == 1 {
                    self.cur[base] = self.cur[base + n];
                    self.cur[base + n + 1] = self.cur[base + 1];
                } else {
                    self.cur.copy_within(base + n * sa..base + (n + 1) * sa, base);
                    self.cur.copy_within(base + sa..base + 2 * sa, base + (n + 1) * sa);
                }
                if !advance(&mut it, outer) {
                    break;
                }
            }
        }
    }

    /// Fill the whole halo by periodic wrap of the interior (single-owner
    /// solves).
    pub fn refresh_periodic_halo(&mut self) {
        let d = self.dim();
        self.wrap_axes_from(0, d);
    }

    /// Wrap only the transverse axes (all but the last): the distributed
    /// slab solver owns those directions entirely; the last-axis halo
    /// planes come from neighbour ranks *after* this call, so the
    /// exchanged planes already carry consistent transverse corners.
    pub fn wrap_transverse_halo(&mut self) {
        let d = self.dim();
        self.wrap_axes_from(0, d - 1);
    }

    /// Length of one padded hyperplane normal to the last axis — the
    /// contiguous unit of the distributed halo exchange.
    pub fn plane_len(&self) -> usize {
        *self.pstride.last().unwrap()
    }

    /// The contiguous padded plane at padded last-axis index `z`.
    pub fn plane(&self, z: usize) -> &[f64] {
        let s = self.plane_len();
        &self.cur[z * s..(z + 1) * s]
    }

    /// Overwrite the padded plane at padded last-axis index `z` (halo
    /// plane fill from a neighbour's boundary plane).
    pub fn set_plane(&mut self, z: usize, data: &[f64]) {
        let s = self.plane_len();
        self.cur[z * s..(z + 1) * s].copy_from_slice(data);
    }

    /// The interior sampled from `f`, in the padded offset space (halo
    /// entries zero). The field is a slab of a periodic domain with
    /// `np[i]` nodes on axis `i` whose last axis starts at global plane
    /// `z0`; interior point `k` sits at `x_i = g_i / np_i`, with `g` its
    /// global index.
    pub(crate) fn sample(&self, np: &[usize], z0: usize, f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
        let mut out = vec![0.0; self.cur.len()];
        sample_into(&self.shape, &self.pstride, np, z0, &mut out, f);
        out
    }

    /// Overwrite the interior of the current buffer with `f` sampled as in
    /// [`sample`](Self::sample).
    pub fn fill(&mut self, np: &[usize], z0: usize, f: impl Fn(&[f64]) -> f64) {
        sample_into(&self.shape, &self.pstride, np, z0, &mut self.cur, f);
    }

    /// One timestep of `kernel` over the whole interior; the buffers then
    /// swap. The halo of the new current buffer is stale until the next
    /// refresh/exchange.
    pub fn step_with(&mut self, kernel: &KernelN) {
        let nz = self.shape[self.dim() - 1];
        self.step_planes(0, nz, kernel);
        self.commit_step();
    }

    /// [`step_with`](Self::step_with) restricted to last-axis interior
    /// planes `z0..z1`, without swapping. A full timestep is a disjoint
    /// cover by `step_planes` calls followed by one
    /// [`commit_step`](Self::commit_step) — each point evaluates the same
    /// expression, so a decomposed step is bitwise equal to a monolithic
    /// one. At d = 1 the planes are points and the row is cut to `z0..z1`.
    pub fn step_planes(&mut self, z0: usize, z1: usize, kernel: &KernelN) {
        let d = self.dim();
        debug_assert!(z1 <= self.shape[d - 1]);
        if z0 >= z1 {
            return;
        }
        let PaddedFieldN { shape, pstride, cur, next, .. } = self;
        let mut row = |off: usize, n: usize| kernel.row(cur, off, &mut next[off..off + n]);
        if d == 1 {
            row(z0 + 1, z1 - z0);
        } else {
            walk_rows(shape, pstride, d - 1, 0, (z0, z1), &mut row);
        }
    }

    /// Commit a timestep assembled from [`step_planes`](Self::step_planes)
    /// calls: swap the buffers.
    pub fn commit_step(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
    }
}

/// Write `f(x)` at the padded offset of every interior point (see
/// [`PaddedFieldN::sample`]), reusing one coordinate buffer.
fn sample_into(
    shape: &[usize],
    pstride: &[usize],
    np: &[usize],
    z0: usize,
    out: &mut [f64],
    f: impl Fn(&[f64]) -> f64,
) {
    let d = shape.len();
    let mut idx = vec![0usize; d];
    let mut x = vec![0.0f64; d];
    loop {
        for i in 0..d {
            let g = if i == d - 1 { idx[i] + z0 } else { idx[i] };
            x[i] = g as f64 / np[i] as f64;
        }
        let off: usize = idx.iter().zip(pstride).map(|(&k, &s)| (k + 1) * s).sum();
        out[off] = f(&x);
        if !advance(&mut idx, shape) {
            return;
        }
    }
}

/// Call `f(grid_off, padded_off)` with the offsets of the first point of
/// every axis-0 row of the fundamental domain, in a grid with strides
/// `gstride` and in the padded field.
fn grid_rows(
    shape: &[usize],
    pstride: &[usize],
    gstride: &[usize],
    mut f: impl FnMut(usize, usize),
) {
    let outer = &shape[1..];
    let mut it = vec![0usize; outer.len()];
    loop {
        let g: usize = it.iter().zip(&gstride[1..]).map(|(&k, &s)| k * s).sum();
        let p: usize =
            pstride[0] + it.iter().zip(&pstride[1..]).map(|(&k, &s)| (k + 1) * s).sum::<usize>();
        f(g, p);
        if !advance(&mut it, outer) {
            return;
        }
    }
}

/// Call `row(off, n_0)` for every interior axis-0 row whose last-axis
/// index lies in `z.0..z.1`, in memory order; `off` is the padded offset
/// of the row's first interior point. `axis` (≥ 1) is the outermost axis
/// left to walk and `base` the offset accumulated over the axes above it.
fn walk_rows(
    shape: &[usize],
    pstride: &[usize],
    axis: usize,
    base: usize,
    z: (usize, usize),
    row: &mut impl FnMut(usize, usize),
) {
    let (lo, hi) = if axis == shape.len() - 1 { z } else { (0, shape[axis]) };
    for k in lo..hi {
        let off = base + (k + 1) * pstride[axis];
        if axis == 1 {
            row(off + pstride[0], shape[0]);
        } else {
            walk_rows(shape, pstride, axis - 1, off, z, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::PaddedField;

    #[test]
    fn halo_wrap_matches_2d_reference() {
        // The d=2 instantiation of the generic wrap must reproduce the
        // tuned 2D field's halo bit for bit.
        let (nx, ny) = (5, 3);
        let mut f2 = PaddedField::new(nx, ny);
        let mut fnd = PaddedFieldN::new(&[nx, ny]);
        for (i, v) in f2.padded_mut().iter_mut().enumerate() {
            *v = (i as f64 * 0.61).sin();
        }
        fnd.padded_mut().copy_from_slice(f2.padded());
        f2.refresh_periodic_halo();
        fnd.refresh_periodic_halo();
        assert_eq!(f2.padded(), fnd.padded());
    }

    #[test]
    fn halo_wrap_3d_faces_edges_corners() {
        let mut f = PaddedFieldN::new(&[3, 4, 2]);
        // Deterministic interior fill.
        let mut idx = [0usize; 3];
        let shape = [3usize, 4, 2];
        loop {
            let off: usize = idx.iter().zip(f.pstrides()).map(|(&k, &s)| (k + 1) * s).sum();
            f.padded_mut()[off] = (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64;
            if !advance(&mut idx, &shape) {
                break;
            }
        }
        f.refresh_periodic_halo();
        let p = f.padded().to_vec();
        let ps = f.pstrides().to_vec();
        let wrap = |k: isize, n: usize| -> usize { (k - 1).rem_euclid(n as isize) as usize };
        // Every padded point equals the periodic image of the interior —
        // faces, edges and corners alike.
        for z in 0..4usize {
            for y in 0..6usize {
                for x in 0..5usize {
                    let want_idx = [wrap(x as isize, 3), wrap(y as isize, 4), wrap(z as isize, 2)];
                    let want = (want_idx[0] * 100 + want_idx[1] * 10 + want_idx[2]) as f64;
                    let off = x * ps[0] + y * ps[1] + z * ps[2];
                    assert_eq!(p[off], want, "at padded ({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn load_store_roundtrip_reasserts_seams() {
        let g0 = GridN::from_fn(&[2, 2, 2], |x| (x[0] * 5.0).sin() + x[1] - x[2] * x[0]);
        let mut f = PaddedFieldN::from_grid(&g0);
        let mut g1 = GridN::zeros(&[2, 2, 2]);
        f.load(&g0);
        f.store(&mut g1);
        // Interior matches; every seam duplicates node 0 of its axis.
        let mut idx = [0usize; 3];
        loop {
            let mut src = idx;
            for (v, &n) in src.iter_mut().zip(g1.shape()) {
                if *v == n - 1 {
                    *v = 0;
                }
            }
            assert_eq!(g1.at(&idx), g0.at(&src), "at {idx:?}");
            if !advance(&mut idx, g1.shape()) {
                break;
            }
        }
    }

    #[test]
    fn plane_decomposed_step_is_bitwise_equal() {
        let p = crate::ndproblem::ProblemN::AdvectionDiffusion {
            a: vec![0.7, -1.1, 0.4],
            kappa: 0.05,
            k: vec![1; 3],
        };
        let mut whole = PaddedFieldN::new(&[4, 3, 3]);
        for (i, v) in whole.padded_mut().iter_mut().enumerate() {
            *v = (i as f64 * 0.17).cos();
        }
        let kernel = KernelN::new(&p, &whole, &[4, 3, 3], 0, 0.01);
        let mut parts = whole.clone();
        whole.refresh_periodic_halo();
        parts.refresh_periodic_halo();
        whole.step_with(&kernel);
        parts.step_planes(0, 1, &kernel);
        parts.step_planes(1, 3, &kernel);
        parts.commit_step();
        assert_eq!(whole.padded()[..], parts.padded()[..]);
    }

    #[test]
    fn plane_exchange_roundtrip() {
        let mut f = PaddedFieldN::new(&[3, 3, 4]);
        f.refresh_periodic_halo();
        let len = f.plane_len();
        assert_eq!(len, 5 * 5);
        let data: Vec<f64> = (0..len).map(|i| i as f64).collect();
        f.set_plane(0, &data);
        assert_eq!(f.plane(0), &data[..]);
    }
}
