//! The update kernels of Algorithm 2, expressed over index ranges: the
//! x sweep alone and fused with m, the m sweep, the z average on swapped
//! buffers, and the fused u+n pass.
//!
//! Every kernel is a *range* function with block-relative write slices,
//! so the same code drives every executor: the serial baseline passes
//! the full range, the pool's workers their claimed chunks, and the halo
//! executor each shard's local arrays. One iteration runs three of them —
//! the fused `x+m`, the `z` average on swapped buffers, and the fused
//! `u+n` — in that order. The paper's separate u and n sweeps exist only
//! in the oracle, [`crate::naive::NaiveAdmm`].
//!
//! # Fixed-`dims` bodies
//!
//! The element-wise bodies (`z`, fused `u+n`, and the m-tail of the
//! fused `x+m`) are monomorphized for `d ∈ {1, 2, 3, 4}` (the paper
//! families' dims), whose fixed trip-count inner loops the compiler fully
//! unrolls and vectorizes, with a 4-wide manually unrolled body for
//! larger `d`. Unrolling runs only across *independent* outputs: each
//! output value sees the same sequence of rounded floating-point
//! operations as the paper's literal loop ([`crate::naive::NaiveAdmm`]),
//! and no accumulation is ever re-associated. The kernel tests restate
//! every formula in straight-line code and compare bits; the oracle test
//! compares every executor's whole state against `NaiveAdmm`. The u+n
//! body reads each edge's `α` and target variable from an
//! [`EdgeStream`], a view of the problem's own dense arrays, instead of
//! chasing `EdgeId` accessors through the graph.
//!
//! # The prox sweep
//!
//! The x pass has one body, `prox_sweep`, behind two block-relative entry
//! points: `x_update_block` and the fused `xm_update_block`. It takes
//! a factor range and write slices covering exactly that range (as
//! `z_update_swapped_block` and [`un_update_range_stream`] do), walks
//! the factor offsets once, hands each operator a [`ProxCtx`] cut from the
//! factor's CSR range without re-validating shapes the graph guarantees,
//! and forms `m = x + u` once per [`PROX_TILE`] factors over the tile's
//! contiguous range. The operator comes from a monomorphized
//! `Fn(usize) -> &dyn ProxOp`, so a shard-local graph can map its factor
//! ids to the global operators. Every executor's x pass is this body:
//! [`xm_update_range`] (serial), `SweepArrays::run_pass` (the pool),
//! and the staging phase of the halo executor.
//!
//! # Subnormals
//!
//! Every write of the dual `u` goes through
//! `flush_subnormal`: `u` is the one array that carries its own value
//! from one iteration to the next, so it is the one place a subnormal
//! can settle for good.

#[cfg(test)]
use paradmm_graph::FactorId;
use paradmm_graph::{EdgeParams, EdgeStream, FactorGraph, VarId};
use paradmm_prox::{ProxCtx, ProxOp};

/// The rule every write of the scaled dual `u` goes through: a subnormal
/// result becomes a zero of the same sign; every other value — ±0,
/// ±[`f64::MIN_POSITIVE`], normals, infinities, NaN — passes bit for bit.
///
/// The dual ascent `u ← u + α(x − z)` is the one update that *keeps*
/// what it held before. Where `x` and `z` have both reached exactly 0
/// (the padding components of the SVM's dims-3 slack blocks), a `u` that
/// decayed into the subnormal range stays there for good, and every
/// later `m = x + u`, `n = z − u`, prox and z-fold that touches it takes
/// the CPU's denormal assist — measured at 2× per iteration on the SVM
/// family. The other four arrays are recomputed from scratch each
/// iteration, so with `u` closed a subnormal in them is only passing
/// through: measured on that family, a `z` component halving per
/// iteration is gone 52 iterations after it enters the range and none
/// stays. The perturbation is below 2.3e-308 per component, and a run
/// that never produces a subnormal `u` is unchanged bit for bit.
///
/// Exported so that the reference loop ([`crate::naive::NaiveAdmm`])
/// applies the same rule from the same place.
#[inline(always)]
pub(crate) fn flush_subnormal(v: f64) -> f64 {
    // One compare and one mask: below the normal range only the sign bit
    // survives. Also true for ±0, which the sign bit reproduces; false
    // for NaN.
    let keep = if v.abs() < f64::MIN_POSITIVE {
        1 << 63
    } else {
        u64::MAX
    };
    f64::from_bits(v.to_bits() & keep)
}

// ---------------------------------------------------------------------------
// Monomorphized element-wise bodies.
//
// Write slices are *block-relative*: `u_block`/`n_block`/`z_block` cover
// exactly the range `[lo, hi)` being updated, so the same bodies serve
// full-array calls (serial, the halo executor's shards) and the pool's
// claimed chunks without aliasing whole arrays. Read arrays are always
// the full flat arrays.
// ---------------------------------------------------------------------------

/// `m[i] = x[i] + u[i]` over equal-length slices, 4-wide unrolled.
/// Element-wise with no accumulation, so unrolling is trivially
/// reassociation-free.
#[inline]
fn add_block(x: &[f64], u: &[f64], m: &mut [f64]) {
    let len = m.len();
    debug_assert!(x.len() == len && u.len() == len);
    let mut j = 0;
    while j + 4 <= len {
        m[j] = x[j] + u[j];
        m[j + 1] = x[j + 1] + u[j + 1];
        m[j + 2] = x[j + 2] + u[j + 2];
        m[j + 3] = x[j + 3] + u[j + 3];
        j += 4;
    }
    while j < len {
        m[j] = x[j] + u[j];
        j += 1;
    }
}

#[inline]
fn un_body_fixed<const D: usize>(
    stream: &EdgeStream<'_>,
    x_all: &[f64],
    z_all: &[f64],
    u_block: &mut [f64],
    n_block: &mut [f64],
    e_lo: usize,
    e_hi: usize,
) {
    // x, u and n are cut once and walked as D-wide chunks instead of being
    // re-sliced per edge: the bounds checks that saves pay for the flush
    // (d = 2, cache-resident: 1.52 ns/edge before either, 1.83 with the
    // flush alone, 1.33 with both).
    let (alphas, edge_vars) = (stream.alpha(), stream.edge_vars());
    let x_block = &x_all[e_lo * D..e_hi * D];
    assert!(
        u_block.len() == x_block.len() && n_block.len() == x_block.len(),
        "u and n blocks must cover exactly the edges [e_lo, e_hi)"
    );
    let blocks = x_block
        .chunks_exact(D)
        .zip(u_block.chunks_exact_mut(D))
        .zip(n_block.chunks_exact_mut(D));
    for (e, ((xe, ue), ne)) in (e_lo..e_hi).zip(blocks) {
        let alpha = alphas[e];
        let zb = edge_vars[e].idx() * D;
        let z = &z_all[zb..zb + D];
        for c in 0..D {
            let u = flush_subnormal(ue[c] + alpha * (xe[c] - z[c]));
            ue[c] = u;
            ne[c] = z[c] - u;
        }
    }
}

#[inline]
#[allow(clippy::too_many_arguments)] // internal body; mirrors un_body_fixed plus the runtime dims
fn un_body_dyn(
    stream: &EdgeStream<'_>,
    d: usize,
    x_all: &[f64],
    z_all: &[f64],
    u_block: &mut [f64],
    n_block: &mut [f64],
    e_lo: usize,
    e_hi: usize,
) {
    let (alphas, edge_vars) = (stream.alpha(), stream.edge_vars());
    for e in e_lo..e_hi {
        let alpha = alphas[e];
        let zb = edge_vars[e].idx() * d;
        let xe = &x_all[e * d..e * d + d];
        let z = &z_all[zb..zb + d];
        let bo = (e - e_lo) * d;
        let ue = &mut u_block[bo..bo + d];
        let ne = &mut n_block[bo..bo + d];
        let mut c = 0;
        while c + 4 <= d {
            let u0 = flush_subnormal(ue[c] + alpha * (xe[c] - z[c]));
            let u1 = flush_subnormal(ue[c + 1] + alpha * (xe[c + 1] - z[c + 1]));
            let u2 = flush_subnormal(ue[c + 2] + alpha * (xe[c + 2] - z[c + 2]));
            let u3 = flush_subnormal(ue[c + 3] + alpha * (xe[c + 3] - z[c + 3]));
            ue[c] = u0;
            ue[c + 1] = u1;
            ue[c + 2] = u2;
            ue[c + 3] = u3;
            ne[c] = z[c] - u0;
            ne[c + 1] = z[c + 1] - u1;
            ne[c + 2] = z[c + 2] - u2;
            ne[c + 3] = z[c + 3] - u3;
            c += 4;
        }
        while c < d {
            let u = flush_subnormal(ue[c] + alpha * (xe[c] - z[c]));
            ue[c] = u;
            ne[c] = z[c] - u;
            c += 1;
        }
    }
}

/// z body for `d = D` on the double-buffered schedule (degree-0
/// variables copy forward from `z_old`). The weighted sum accumulates
/// into a stack array in exactly the fold order and association of
/// [`z_update_var`].
#[inline]
fn z_swapped_body_fixed<const D: usize>(
    graph: &FactorGraph,
    params: &EdgeParams,
    m_all: &[f64],
    z_old: &[f64],
    z_block: &mut [f64],
    b_lo: usize,
    b_hi: usize,
) {
    for b in b_lo..b_hi {
        let edges = graph.var_edges(VarId::from_usize(b));
        let out = &mut z_block[(b - b_lo) * D..(b - b_lo) * D + D];
        if edges.is_empty() {
            out.copy_from_slice(&z_old[b * D..b * D + D]);
            continue;
        }
        let mut acc = [0.0f64; D];
        let mut rho_sum = 0.0;
        for &e in edges {
            let rho = params.rho(e);
            rho_sum += rho;
            let me = &m_all[e.idx() * D..e.idx() * D + D];
            for c in 0..D {
                acc[c] += rho * me[c];
            }
        }
        let inv = 1.0 / rho_sum;
        for c in 0..D {
            out[c] = acc[c] * inv;
        }
    }
}

/// Factors per tile of the prox sweep (`x_update_block`,
/// `xm_update_block`): the operators of a tile run back to back and the
/// `m = x + u` tail then covers the tile's whole flat range at once. At
/// the paper families' 2–12 scalars per factor a tile's x, u, m and n
/// blocks are a few KiB — still in L1 when the tail reads them back.
pub const PROX_TILE: usize = 64;

/// The one prox sweep: runs the proximal operators of factors
/// `[a_lo, a_hi)` tile by tile and, if `m_tail = (u_all, m_block)` is
/// given, forms `m = x + u` over each finished tile.
///
/// The offsets are walked once and each operator gets a [`ProxCtx`] cut
/// straight from the factor's CSR range: `n` and `x` are the same
/// `degree · dims` scalars of two edge-ordered arrays and `rho` the same
/// `degree` edges, which is all [`ProxCtx::new`] would re-check.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the sweep signature family
fn prox_sweep<'p>(
    graph: &FactorGraph,
    prox_of: impl Fn(usize) -> &'p dyn ProxOp,
    params: &EdgeParams,
    n_all: &[f64],
    x_block: &mut [f64],
    m_tail: Option<(&[f64], &mut [f64])>,
    a_lo: usize,
    a_hi: usize,
) {
    let d = graph.dims();
    let offsets = &graph.factor_offsets()[a_lo..=a_hi];
    let (e_lo, e_hi) = (offsets[0] as usize, offsets[a_hi - a_lo] as usize);
    let flat = e_lo * d..e_hi * d;
    let mut n_rest = &n_all[flat.clone()];
    let mut rho_rest = &params.rho[e_lo..e_hi];
    assert!(
        x_block.len() == n_rest.len(),
        "x block must cover exactly the factors [a_lo, a_hi)"
    );
    let mut x_rest = x_block;
    let mut m_tail = m_tail.map(|(u_all, m_block)| (&u_all[flat], m_block));
    let (mut a, mut prev) = (a_lo, offsets[0]);
    for tile in offsets[1..].chunks(PROX_TILE) {
        // Every slice is split off the front of what is left, so each
        // factor gets exactly its own scalars with one length check.
        let tile_len = (tile[tile.len() - 1] - prev) as usize * d;
        let (x_tile, x_next) = std::mem::take(&mut x_rest).split_at_mut(tile_len);
        x_rest = x_next;
        let mut x_left = &mut *x_tile;
        for &end in tile {
            let degree = (end - prev) as usize;
            prev = end;
            let (n, n_next) = n_rest.split_at(degree * d);
            let (rho, rho_next) = rho_rest.split_at(degree);
            let (x, x_next) = std::mem::take(&mut x_left).split_at_mut(degree * d);
            (n_rest, rho_rest, x_left) = (n_next, rho_next, x_next);
            prox_of(a).prox(&mut ProxCtx { n, rho, x, dims: d });
            a += 1;
        }
        if let Some((u_rest, m_rest)) = m_tail.as_mut() {
            let (u_tile, u_next) = u_rest.split_at(tile_len);
            let (m_tile, m_next) = std::mem::take(m_rest).split_at_mut(tile_len);
            (*u_rest, *m_rest) = (u_next, m_next);
            add_block(x_tile, u_tile, m_tile);
        }
    }
}

/// x-update over the factor range `[a_lo, a_hi)` with a *block-relative*
/// write slice: `x_block` covers exactly those factors' edges (`n_all`
/// stays the full array), so parallel executors can pass the disjoint
/// chunk they own. `prox_of` maps a factor index of `graph` to its
/// operator — the identity into [`crate::AdmmProblem::proxes`] for most
/// callers, a local → global lookup for the shard-local graphs.
#[inline]
pub(crate) fn x_update_block<'p>(
    graph: &FactorGraph,
    prox_of: impl Fn(usize) -> &'p dyn ProxOp,
    params: &EdgeParams,
    n_all: &[f64],
    x_block: &mut [f64],
    a_lo: usize,
    a_hi: usize,
) {
    prox_sweep(graph, prox_of, params, n_all, x_block, None, a_lo, a_hi);
}

/// Fused x+m over the factor range `[a_lo, a_hi)` with *block-relative*
/// write slices (see [`x_update_block`]): each tile of [`PROX_TILE`]
/// factors runs its proximal operators and then forms `m = x + u` over
/// the tile's contiguous edge range.
///
/// Bit-identical to an x sweep over all factors followed by
/// [`m_update_range`] over all edges: the x sweep reads only `n`, the
/// m body of edge `e` reads only `x_e` (just written by the same call)
/// and `u_e` (written by neither sweep) — so interleaving per tile
/// reorders no floating-point operation within any single output value.
/// One pass fewer over the `x` array, and one synchronization point
/// fewer per iteration in barrier-style backends.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the sweep signature family
pub(crate) fn xm_update_block<'p>(
    graph: &FactorGraph,
    prox_of: impl Fn(usize) -> &'p dyn ProxOp,
    params: &EdgeParams,
    n_all: &[f64],
    u_all: &[f64],
    x_block: &mut [f64],
    m_block: &mut [f64],
    a_lo: usize,
    a_hi: usize,
) {
    let m_tail = Some((u_all, m_block));
    prox_sweep(graph, prox_of, params, n_all, x_block, m_tail, a_lo, a_hi);
}

/// The flat component range `[lo, hi)` the factors `[a_lo, a_hi)` own in
/// every edge-ordered array.
#[inline]
pub(crate) fn factor_flat_range(
    graph: &FactorGraph,
    a_lo: usize,
    a_hi: usize,
) -> std::ops::Range<usize> {
    let (offsets, d) = (graph.factor_offsets(), graph.dims());
    offsets[a_lo] as usize * d..offsets[a_hi] as usize * d
}

/// Runs the proximal operator of one factor: reads the factor's contiguous
/// block of `n_all`, writes its block of `x_factor` (which must be exactly
/// that factor's slice of the global x array). [`x_update_block`] over a
/// range of one; sweeps call the block kernel directly.
#[inline]
#[cfg(test)]
pub(crate) fn x_update_factor(
    graph: &FactorGraph,
    prox: &dyn ProxOp,
    params: &EdgeParams,
    n_all: &[f64],
    x_factor: &mut [f64],
    a: FactorId,
) {
    x_update_block(
        graph,
        |_| prox,
        params,
        n_all,
        x_factor,
        a.idx(),
        a.idx() + 1,
    );
}

/// x-update over a contiguous factor range `[a_lo, a_hi)`; `x_all` is the
/// full global x array.
pub fn x_update_range(
    graph: &FactorGraph,
    proxes: &[Box<dyn ProxOp>],
    params: &EdgeParams,
    n_all: &[f64],
    x_all: &mut [f64],
    a_lo: usize,
    a_hi: usize,
) {
    let x_block = &mut x_all[factor_flat_range(graph, a_lo, a_hi)];
    x_update_block(graph, |a| &*proxes[a], params, n_all, x_block, a_lo, a_hi);
}

/// m-update over flat component range `[lo, hi)`: `m = x + u`.
#[inline]
pub fn m_update_range(x: &[f64], u: &[f64], m: &mut [f64], lo: usize, hi: usize) {
    add_block(&x[lo..hi], &u[lo..hi], &mut m[lo..hi]);
}

/// Fused x+m over a contiguous factor range `[a_lo, a_hi)`; `x_all` and
/// `m_all` are the full global arrays (see `xm_update_block`).
#[allow(clippy::too_many_arguments)] // mirrors the sweep signature family
pub fn xm_update_range(
    graph: &FactorGraph,
    proxes: &[Box<dyn ProxOp>],
    params: &EdgeParams,
    n_all: &[f64],
    u_all: &[f64],
    x_all: &mut [f64],
    m_all: &mut [f64],
    a_lo: usize,
    a_hi: usize,
) {
    let flat = factor_flat_range(graph, a_lo, a_hi);
    let (x_block, m_block) = (&mut x_all[flat.clone()], &mut m_all[flat]);
    let prox_of = |a: usize| &*proxes[a];
    xm_update_block(
        graph, prox_of, params, n_all, u_all, x_block, m_block, a_lo, a_hi,
    );
}

/// Dims threshold below which [`z_update_var`] accumulates on the stack.
const Z_STACK_DIMS: usize = 8;

/// z-update body for a single variable node `b`:
/// `z_b = Σ_{e∈∂b} ρ_e m_e / Σ_{e∈∂b} ρ_e`, written into `z_b_out` (that
/// variable's `dims`-slice of the global z array). Variables of degree 0
/// are left unchanged (no information flows to them).
///
/// For `dims ≤ 8` the weighted sum accumulates into a stack array and
/// `z_b_out` is written once, instead of the historical
/// `fill(0.0)` / accumulate-in-place / scale-in-place triple pass over
/// the output slice. This is bit-identical: the accumulator starts from
/// the same `+0.0` the `fill` produced and the *first* contribution is
/// still added to it (`0.0 + ρ·m`) rather than assigned — the two differ
/// when `ρ·m` is `-0.0` (IEEE 754: `0.0 + (-0.0) = +0.0`) — every
/// subsequent `+=` happens in the same fold order, and the final
/// `acc · inv` is the very multiplication `*= inv` performed. Only the
/// redundant memory traffic is gone.
#[inline]
pub(crate) fn z_update_var(
    graph: &FactorGraph,
    params: &EdgeParams,
    m_all: &[f64],
    z_b_out: &mut [f64],
    b: VarId,
) {
    let d = graph.dims();
    let edges = graph.var_edges(b);
    if edges.is_empty() {
        return;
    }
    let mut rho_sum = 0.0;
    if d <= Z_STACK_DIMS {
        let mut acc = [0.0f64; Z_STACK_DIMS];
        for &e in edges {
            let rho = params.rho(e);
            rho_sum += rho;
            let me = &m_all[e.idx() * d..(e.idx() + 1) * d];
            for c in 0..d {
                acc[c] += rho * me[c];
            }
        }
        let inv = 1.0 / rho_sum;
        for c in 0..d {
            z_b_out[c] = acc[c] * inv;
        }
    } else {
        z_b_out.fill(0.0);
        for &e in edges {
            let rho = params.rho(e);
            rho_sum += rho;
            let me = &m_all[e.idx() * d..(e.idx() + 1) * d];
            for c in 0..d {
                z_b_out[c] += rho * me[c];
            }
        }
        let inv = 1.0 / rho_sum;
        for c in 0..d {
            z_b_out[c] *= inv;
        }
    }
}

/// z-update body for the double-buffered (swap) schedule: variable `b`'s
/// fresh average is written into `z_b_out` (a slice of the *write*
/// buffer, stale by two iterations after a [`paradmm_graph::VarStore::swap_z`]);
/// a degree-0 variable instead copies its value forward from `z_old_b`
/// (its slice of the previous iterate), reproducing Algorithm 2's "left
/// unchanged" semantics bit for bit.
#[inline]
pub(crate) fn z_update_swapped_var(
    graph: &FactorGraph,
    params: &EdgeParams,
    m_all: &[f64],
    z_old_b: &[f64],
    z_b_out: &mut [f64],
    b: VarId,
) {
    if graph.var_edges(b).is_empty() {
        z_b_out.copy_from_slice(z_old_b);
    } else {
        z_update_var(graph, params, m_all, z_b_out, b);
    }
}

/// z-update over a contiguous variable range `[b_lo, b_hi)` for the
/// double-buffered schedule: `z_old` is the full previous-iterate buffer
/// (`z_prev` after the swap), `z_new` the full write buffer.
pub fn z_update_swapped_range(
    graph: &FactorGraph,
    params: &EdgeParams,
    m_all: &[f64],
    z_old: &[f64],
    z_new: &mut [f64],
    b_lo: usize,
    b_hi: usize,
) {
    let d = graph.dims();
    z_update_swapped_block(
        graph,
        params,
        m_all,
        z_old,
        &mut z_new[b_lo * d..b_hi * d],
        b_lo,
        b_hi,
    );
}

/// [`z_update_swapped_range`] with a *block-relative* write slice:
/// `z_block` covers exactly the variables `[b_lo, b_hi)` (`z_old` stays
/// the full previous-iterate buffer), so parallel executors can pass the
/// disjoint chunk they own.
pub(crate) fn z_update_swapped_block(
    graph: &FactorGraph,
    params: &EdgeParams,
    m_all: &[f64],
    z_old: &[f64],
    z_block: &mut [f64],
    b_lo: usize,
    b_hi: usize,
) {
    let d = graph.dims();
    debug_assert_eq!(z_block.len(), (b_hi - b_lo) * d);
    match d {
        1 => return z_swapped_body_fixed::<1>(graph, params, m_all, z_old, z_block, b_lo, b_hi),
        2 => return z_swapped_body_fixed::<2>(graph, params, m_all, z_old, z_block, b_lo, b_hi),
        3 => return z_swapped_body_fixed::<3>(graph, params, m_all, z_old, z_block, b_lo, b_hi),
        4 => return z_swapped_body_fixed::<4>(graph, params, m_all, z_old, z_block, b_lo, b_hi),
        _ => {} // large dims: per-var body below (stack path covers d ≤ 8)
    }
    for b in b_lo..b_hi {
        let r = (b - b_lo) * d..(b - b_lo + 1) * d;
        z_update_swapped_var(
            graph,
            params,
            m_all,
            &z_old[b * d..(b + 1) * d],
            &mut z_block[r],
            VarId::from_usize(b),
        );
    }
}

/// Fused u+n over the edges `[e_lo, e_hi)`: the dual ascent
/// `u_e ← u_e + α_e (x_e − z_{var(e)})` immediately followed by
/// `n_e = z_{var(e)} − u_e` on the freshly written dual; `u_block` and
/// `n_block` are *block-relative* (they cover exactly those edges).
///
/// `n_e` depends only on `z` (read-only in both sweeps) and on `u_e` of
/// the *same* edge, so fusing the two edge sweeps is bit-identical to
/// the paper's u sweep followed by its n sweep
/// ([`crate::naive::NaiveAdmm`]) — one pass over `u` fewer, and one
/// synchronization point fewer per iteration.
pub fn un_update_range_stream(
    stream: &EdgeStream<'_>,
    x_all: &[f64],
    z_all: &[f64],
    u_block: &mut [f64],
    n_block: &mut [f64],
    e_lo: usize,
    e_hi: usize,
) {
    match stream.dims() {
        1 => un_body_fixed::<1>(stream, x_all, z_all, u_block, n_block, e_lo, e_hi),
        2 => un_body_fixed::<2>(stream, x_all, z_all, u_block, n_block, e_lo, e_hi),
        3 => un_body_fixed::<3>(stream, x_all, z_all, u_block, n_block, e_lo, e_hi),
        4 => un_body_fixed::<4>(stream, x_all, z_all, u_block, n_block, e_lo, e_hi),
        d => un_body_dyn(stream, d, x_all, z_all, u_block, n_block, e_lo, e_hi),
    }
}

/// Evenly partitions `n_items` across `n_parts`, mirroring the paper's
/// `AssignThreads`: the first `n_items % n_parts` parts get
/// `⌈n/p⌉` items, the rest `⌊n/p⌋`, so sizes differ by at most one and
/// work is front-loaded.
///
/// When `n_parts > n_items`, each of the first `n_items` parts gets
/// exactly one item and every trailing part is the empty range
/// `(n_items, n_items)`. The old `i·n/p` formula instead scattered the
/// items over arbitrary middle parts, leaving leading Barrier workers
/// spinning at every phase barrier with no work while loaded workers sat
/// further down the thread list.
///
/// This is the single balanced-split helper behind every static
/// partition ([`crate::Pass::split`]'s uniform case, which the pool's
/// per-worker shares use), so the front-loading
/// regression tests below guard that call site.
#[inline]
pub(crate) fn assign_range(n_items: usize, part: usize, n_parts: usize) -> (usize, usize) {
    debug_assert!(part < n_parts, "part {part} out of range for {n_parts}");
    let base = n_items / n_parts;
    let rem = n_items % n_parts;
    let lo = part * base + part.min(rem);
    let hi = lo + base + usize::from(part < rem);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::{EdgeId, GraphBuilder, VarStore};
    use paradmm_prox::ZeroProx;

    fn chain(dims: usize) -> (FactorGraph, EdgeParams) {
        // v0 -f0- v1 -f1- v2, factors of degree 2.
        let mut b = GraphBuilder::new(dims);
        let vs = b.add_vars(3);
        b.add_factor(&[vs[0], vs[1]]);
        b.add_factor(&[vs[1], vs[2]]);
        let g = b.build();
        let p = EdgeParams::uniform(&g, 1.0, 1.0);
        (g, p)
    }

    #[test]
    fn m_update_adds() {
        let x = [1.0, 2.0];
        let u = [10.0, 20.0];
        let mut m = [0.0; 2];
        m_update_range(&x, &u, &mut m, 0, 2);
        assert_eq!(m, [11.0, 22.0]);
    }

    #[test]
    fn z_update_weighted_average() {
        let (g, mut p) = chain(1);
        // Variable 1 touches edges 1 (factor 0) and 2 (factor 1).
        p.rho = vec![1.0, 2.0, 3.0, 1.0].into();
        let m = [0.0, 6.0, 12.0, 0.0];
        let mut z = [0.0; 3];
        z_update_swapped_range(&g, &p, &m, &[0.0; 3], &mut z, 0, 3);
        // z1 = (2·6 + 3·12)/(2+3) = 48/5
        assert!((z[1] - 9.6).abs() < 1e-12);
        // z0 from edge 0 alone, z2 from edge 3 alone.
        assert_eq!(z[0], 0.0);
        assert_eq!(z[2], 0.0);
    }

    #[test]
    fn z_update_skips_isolated_var() {
        let mut b = GraphBuilder::new(1);
        let v0 = b.add_var();
        let _iso = b.add_var();
        b.add_factor(&[v0]);
        let g = b.build();
        let p = EdgeParams::uniform(&g, 1.0, 1.0);
        let m = [5.0];
        let mut z = [-1.0; 2];
        z_update_swapped_range(&g, &p, &m, &[0.0, 7.0], &mut z, 0, 2);
        assert_eq!(z, [5.0, 7.0]); // isolated var keeps its previous value
    }

    #[test]
    fn u_update_accumulates_scaled_residual() {
        let (g, mut p) = chain(1);
        p.alpha = vec![0.5; 4].into();
        let x = [2.0, 0.0, 0.0, 0.0];
        let z = [1.0, 0.0, 0.0];
        let (mut u, mut n) = ([1.0, 0.0, 0.0, 0.0], [0.0; 4]);
        un_update_range_stream(&EdgeStream::build(&g, &p), &x, &z, &mut u, &mut n, 0, 4);
        // edge 0 targets var 0: u += 0.5·(2−1) = 1.5
        assert!((u[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn n_update_is_z_minus_u() {
        let (g, p) = chain(1);
        let z = [1.0, 2.0, 3.0];
        // edges target vars 0,1,1,2; x = z there leaves u as it was.
        let x = [1.0, 2.0, 2.0, 3.0];
        let (mut u, mut n) = ([0.5; 4], [0.0; 4]);
        un_update_range_stream(&EdgeStream::build(&g, &p), &x, &z, &mut u, &mut n, 0, 4);
        assert_eq!(u, [0.5; 4]);
        assert_eq!(n, [0.5, 1.5, 1.5, 2.5]);
    }

    #[test]
    fn x_update_runs_prox_per_factor() {
        let (g, p) = chain(2);
        let mut store = VarStore::zeros(&g);
        for (i, v) in store.n.iter_mut().enumerate() {
            *v = i as f64;
        }
        let proxes: Vec<Box<dyn ProxOp>> = vec![Box::new(ZeroProx), Box::new(ZeroProx)];
        let n_snapshot = store.n.clone();
        x_update_range(&g, &proxes, &p, &n_snapshot, &mut store.x, 0, 2);
        assert_eq!(store.x, store.n); // ZeroProx copies n into x
    }

    #[test]
    fn fused_xm_matches_separate_sweeps_bitwise() {
        let (g, mut p) = chain(2);
        p.rho = vec![1.0, 2.0, 0.5, 3.0].into();
        let proxes: Vec<Box<dyn ProxOp>> = vec![Box::new(ZeroProx), Box::new(ZeroProx)];
        let n: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin()).collect();
        let u: Vec<f64> = (0..8).map(|i| (i as f64 * 0.3).cos()).collect();

        let mut x_sep = vec![0.0; 8];
        let mut m_sep = vec![0.0; 8];
        x_update_range(&g, &proxes, &p, &n, &mut x_sep, 0, 2);
        m_update_range(&x_sep, &u, &mut m_sep, 0, 8);

        let mut x_fused = vec![0.0; 8];
        let mut m_fused = vec![0.0; 8];
        xm_update_range(&g, &proxes, &p, &n, &u, &mut x_fused, &mut m_fused, 0, 2);

        assert_eq!(x_sep, x_fused);
        assert_eq!(m_sep, m_fused);
    }

    #[test]
    fn swapped_z_matches_copy_schedule_and_carries_isolated_vars() {
        let mut b = GraphBuilder::new(1);
        let v0 = b.add_var();
        let _iso = b.add_var();
        let v2 = b.add_var();
        b.add_factor(&[v0, v2]);
        let g = b.build();
        let p = EdgeParams::uniform(&g, 2.0, 1.0);
        let m = [5.0, 3.0];

        // What the copying schedule (snapshot, then update in place)
        // leaves: z0 and z2 from their one edge, the isolated z1 as it was.
        let z_copy = [5.0, 7.0, 3.0];

        // Swap schedule: old iterate in z_old, garbage in the write buffer.
        let z_old = [1.0, 7.0, -2.0];
        let mut z_new = [999.0; 3];
        z_update_swapped_range(&g, &p, &m, &z_old, &mut z_new, 0, 3);
        assert_eq!(z_new, z_copy);
        assert_eq!(z_new[1], 7.0, "isolated var carried forward");
    }

    /// An irregular fixture: degrees 1..3, one isolated variable, varied
    /// per-edge ρ/α, state arrays seeded with irrational-phase waves.
    #[allow(clippy::type_complexity)]
    fn irregular(
        dims: usize,
    ) -> (
        FactorGraph,
        EdgeParams,
        Vec<f64>, // x   (edges)
        Vec<f64>, // m0  (edges)
        Vec<f64>, // u0  (edges)
        Vec<f64>, // z0  (vars)
    ) {
        let mut b = GraphBuilder::new(dims);
        let vs = b.add_vars(5); // vs[4] stays isolated
        b.add_factor(&[vs[0], vs[1]]);
        b.add_factor(&[vs[1], vs[2]]);
        b.add_factor(&[vs[0], vs[2], vs[3]]);
        b.add_factor(&[vs[3]]);
        let g = b.build();
        let mut p = EdgeParams::uniform(&g, 1.0, 1.0);
        for (i, r) in p.rho.as_mut_slice().iter_mut().enumerate() {
            *r = 0.5 + (i as f64 * 0.37).sin().abs();
        }
        for (i, a) in p.alpha.as_mut_slice().iter_mut().enumerate() {
            *a = 0.3 + (i as f64 * 0.23).cos().abs();
        }
        let (ne, nv) = (g.num_edges(), g.num_vars());
        let x = (0..ne * dims).map(|i| (i as f64 * 0.9).sin()).collect();
        let m0 = (0..ne * dims).map(|i| (i as f64 * 0.7).cos()).collect();
        let u0 = (0..ne * dims).map(|i| (i as f64 * 0.31).sin()).collect();
        let z0 = (0..nv * dims).map(|i| (i as f64 * 0.11).cos()).collect();
        (g, p, x, m0, u0, z0)
    }

    /// The prox-sweep kernel on a mixed-degree graph (degrees 1, 2, 4
    /// interleaved, three operator kinds, non-uniform ρ), over ranges that
    /// start mid-graph, end mid-tile, are shorter than one tile, span
    /// several and are empty: bit for bit what `x_update_factor` per
    /// factor followed by `m_update_range` gives, and not a scalar written
    /// outside the range's block.
    #[test]
    fn prox_sweep_matches_per_factor_calls_bitwise_on_any_range() {
        use paradmm_prox::{ConsensusEqualityProx, QuadraticProx};
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        let nf = 3 * PROX_TILE + 17;
        for dims in [2usize, 3] {
            let mut b = GraphBuilder::new(dims);
            let vs = b.add_vars(nf + 3);
            let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
            for a in 0..nf {
                let degree = [1, 2, 4][a % 3];
                b.add_factor(&vs[a..a + degree]);
                proxes.push(match degree {
                    1 => Box::new(QuadraticProx::isotropic(dims, 1.5, &vec![0.25; dims])),
                    2 => Box::new(ConsensusEqualityProx),
                    _ => Box::new(ZeroProx),
                });
            }
            let g = b.build();
            let mut p = EdgeParams::uniform(&g, 1.0, 1.0);
            for (i, r) in p.rho.as_mut_slice().iter_mut().enumerate() {
                *r = 0.5 + (i as f64 * 0.37).sin().abs();
            }
            let flat = g.num_edges() * dims;
            let n: Vec<f64> = (0..flat).map(|i| (i as f64 * 0.7).sin()).collect();
            let u: Vec<f64> = (0..flat).map(|i| (i as f64 * 0.3).cos()).collect();

            let ranges = [
                (0, nf),
                (5, 15),
                (PROX_TILE - 3, 2 * PROX_TILE + 9),
                (PROX_TILE, 2 * PROX_TILE),
                (70, 70),
                (nf - 1, nf),
            ];
            for (a_lo, a_hi) in ranges {
                // Untouched scalars keep a sentinel no sweep produces.
                let (mut x_ref, mut m_ref) = (vec![-7.0; flat], vec![-7.0; flat]);
                for a in a_lo..a_hi {
                    let fa = FactorId::from_usize(a);
                    let block = factor_flat_range(&g, a, a + 1);
                    x_update_factor(&g, &*proxes[a], &p, &n, &mut x_ref[block], fa);
                }
                let block = factor_flat_range(&g, a_lo, a_hi);
                m_update_range(&x_ref, &u, &mut m_ref, block.start, block.end);

                let (mut x_fused, mut m_fused) = (vec![-7.0; flat], vec![-7.0; flat]);
                xm_update_range(
                    &g,
                    &proxes,
                    &p,
                    &n,
                    &u,
                    &mut x_fused,
                    &mut m_fused,
                    a_lo,
                    a_hi,
                );
                let mut x_alone = vec![-7.0; flat];
                x_update_range(&g, &proxes, &p, &n, &mut x_alone, a_lo, a_hi);

                let at = format!("dims {dims} factors [{a_lo}, {a_hi})");
                assert_eq!(bits(&x_fused), bits(&x_ref), "x+m: x, {at}");
                assert_eq!(bits(&m_fused), bits(&m_ref), "x+m: m, {at}");
                assert_eq!(bits(&x_alone), bits(&x_ref), "x alone, {at}");
            }
        }
    }

    /// Every element-wise body — fixed-D for d ≤ 4, 4-wide unrolled
    /// beyond — against its formula restated one output at a time, bit
    /// for bit, over the full range and over a block-relative range that
    /// starts and ends inside the arrays.
    #[test]
    fn kernel_bodies_match_straight_line_formulas_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        let flush = |v: f64| {
            if v.is_subnormal() {
                0.0f64.copysign(v)
            } else {
                v
            }
        };
        for d in [1usize, 2, 3, 4, 6, 9] {
            let (g, p, x, m0, u0, z0) = irregular(d);
            let (ne, nv) = (g.num_edges(), g.num_vars());
            let stream = EdgeStream::build(&g, &p);

            // The formulas: m = x + u, u' = flush(u + α(x − z)), n = z − u'
            // (the fused pass reads back the u' it wrote), and z the
            // ρ-weighted average of m with a degree-0 variable unchanged.
            let zeros = || vec![0.0; ne * d];
            let (mut m, mut u, mut n_un) = (zeros(), zeros(), zeros());
            for e in 0..ne {
                let zb = g.edge_var(EdgeId::from_usize(e)).idx() * d;
                for c in 0..d {
                    let (i, z) = (e * d + c, z0[zb + c]);
                    m[i] = x[i] + u0[i];
                    u[i] = flush(u0[i] + p.alpha[e] * (x[i] - z));
                    n_un[i] = z - u[i];
                }
            }
            let mut z = z0.clone();
            for b in g.vars().filter(|&b| !g.var_edges(b).is_empty()) {
                let edges = g.var_edges(b);
                let mut rho_sum = 0.0;
                for &e in edges {
                    rho_sum += p.rho[e.idx()];
                }
                let inv = 1.0 / rho_sum;
                for c in 0..d {
                    let mut acc = 0.0;
                    for &e in edges {
                        acc += p.rho[e.idx()] * m0[e.idx() * d + c];
                    }
                    z[b.idx() * d + c] = acc * inv;
                }
            }

            for (lo, hi) in [(0, ne), (1, ne - 1)] {
                let (r, at) = (lo * d..hi * d, format!("dims {d} edges [{lo}, {hi})"));
                let mut got_m = vec![-7.0; ne * d];
                m_update_range(&x, &u0, &mut got_m, r.start, r.end);
                assert_eq!(bits(&got_m[r.clone()]), bits(&m[r.clone()]), "m, {at}");

                let (mut got_u, mut got_n) = (u0[r.clone()].to_vec(), vec![-7.0; r.len()]);
                un_update_range_stream(&stream, &x, &z0, &mut got_u, &mut got_n, lo, hi);
                assert_eq!(bits(&got_u), bits(&u[r.clone()]), "u+n: u, {at}");
                assert_eq!(bits(&got_n), bits(&n_un[r]), "u+n: n, {at}");
            }
            for (lo, hi) in [(0, nv), (1, nv - 1)] {
                let mut got_z = vec![-7.0; (hi - lo) * d];
                z_update_swapped_block(&g, &p, &m0, &z0, &mut got_z, lo, hi);
                let at = format!("dims {d} vars [{lo}, {hi})");
                assert_eq!(bits(&got_z), bits(&z[lo * d..hi * d]), "z, {at}");
            }
        }
    }

    /// Both u+n bodies — fixed-D and unrolled — apply the subnormal rule:
    /// a subnormal `u + α(x − z)` becomes a zero of its sign, ±0,
    /// ±`MIN_POSITIVE` and normal results keep their bits, and `n = z − u`
    /// sees the flushed `u`.
    #[test]
    fn subnormal_dual_flushes_identically_on_every_path() {
        const TINY: f64 = f64::MIN_POSITIVE;
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        for dims in 1usize..=8 {
            let (g, mut p, ..) = irregular(dims);
            p.alpha.as_mut_slice().fill(1.0);
            let (ne, nv) = (g.num_edges(), g.num_vars());
            // Every other z component is +0, where alone x − z can be −0
            // or subnormal; the rest are normal.
            let z: Vec<f64> = (0..nv * dims)
                .map(|i| if i % 2 == 0 { 0.0 } else { 0.25 * i as f64 })
                .collect();
            let zeros = || vec![0.0; ne * dims];
            let (mut x, mut u0) = (zeros(), zeros());
            // What every path must produce: the rule restated without the
            // helper, and which kinds of result the inputs exercise.
            let (mut u_want, mut n_want) = (zeros(), zeros());
            let mut seen = [0usize; 7];
            let (mut at_zero, mut at_normal) = (0usize, 0usize);
            for e in 0..ne {
                let zb = g.edge_var(EdgeId::from_usize(e)).idx() * dims;
                for c in 0..dims {
                    let (i, zv) = (e * dims + c, z[zb + c]);
                    // (x, u) per case; the comment names u + (x − z).
                    (x[i], u0[i]) = if zv == 0.0 {
                        at_zero += 1;
                        match at_zero % 4 {
                            0 => (-0.0, -0.0),               // −0
                            1 => (0.0, TINY / 2.0),          // +subnormal, the finding-13 state
                            2 => (TINY / 2.0, TINY / 2.0),   // +MIN_POSITIVE
                            _ => (-TINY / 2.0, -TINY / 2.0), // −MIN_POSITIVE
                        }
                    } else {
                        at_normal += 1;
                        match at_normal % 4 {
                            0 => (zv, -0.75 * TINY),     // −subnormal
                            1 => (zv, 0.0),              // +0
                            2 => (zv + 0.5, 1.5 * TINY), // normal
                            _ => (zv, TINY),             // +MIN_POSITIVE, untouched
                        }
                    };
                    let raw = u0[i] + (x[i] - zv);
                    let class = match raw {
                        r if r.is_subnormal() => r.is_sign_negative() as usize,
                        r if r == 0.0 => 2 + r.is_sign_negative() as usize,
                        r if r.abs() == TINY => 4 + r.is_sign_negative() as usize,
                        _ => 6,
                    };
                    seen[class] += 1;
                    u_want[i] = if raw.is_subnormal() {
                        0.0f64.copysign(raw)
                    } else {
                        raw
                    };
                    n_want[i] = zv - u_want[i];
                }
            }
            assert!(seen.iter().all(|&k| k > 0), "dims {dims}: {seen:?}");
            assert!(u_want.iter().all(|v| !v.is_subnormal()));
            let want = (bits(&u_want), bits(&n_want));

            let stream = EdgeStream::build(&g, &p);
            let (mut uf, mut nf) = (u0.clone(), zeros());
            un_update_range_stream(&stream, &x, &z, &mut uf, &mut nf, 0, ne);
            assert_eq!((bits(&uf), bits(&nf)), want, "un dims {dims}");
        }
    }

    #[test]
    fn assign_range_covers_exactly() {
        for n in [0usize, 1, 7, 100] {
            for p in [1usize, 2, 3, 8] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for i in 0..p {
                    let (lo, hi) = assign_range(n, i, p);
                    assert_eq!(lo, prev_hi);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(covered, n, "n={n} p={p}");
                assert_eq!(prev_hi, n);
            }
        }
    }

    #[test]
    fn assign_range_sizes_differ_by_at_most_one() {
        for n in [1usize, 5, 17, 100, 101] {
            for p in [1usize, 2, 3, 7, 16] {
                let sizes: Vec<usize> = (0..p)
                    .map(|i| {
                        let (lo, hi) = assign_range(n, i, p);
                        hi - lo
                    })
                    .collect();
                let max = *sizes.iter().max().unwrap();
                let min = *sizes.iter().min().unwrap();
                assert!(max - min <= 1, "n={n} p={p} sizes={sizes:?}");
            }
        }
    }

    /// Regression: with more parts than items, the first `n_items` parts
    /// must each own exactly one item and every trailing part must be
    /// empty — the old `i·n/p` split scattered the items across middle
    /// parts, so Barrier workers at the front of the thread list spun on
    /// empty ranges while the work sat elsewhere.
    #[test]
    fn assign_range_more_parts_than_items_front_loads() {
        for (n, p) in [(0usize, 4usize), (1, 8), (3, 8), (5, 7)] {
            for i in 0..p {
                let (lo, hi) = assign_range(n, i, p);
                if i < n {
                    assert_eq!((lo, hi), (i, i + 1), "n={n} p={p} part={i}");
                } else {
                    assert_eq!((lo, hi), (n, n), "n={n} p={p} part={i}");
                }
            }
        }
    }
}
