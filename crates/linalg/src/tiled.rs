//! Row-tiled fused Chebyshev recursion engine — in-realization parallelism.
//!
//! The paper's GPU speedup comes from executing the whole Chebyshev step —
//! SpMV, the `2 H v - prev` update, and the `<r0|rn>` reduction — inside one
//! resident kernel parallelized across the matrix dimension. This module is
//! the CPU analogue: the operator computes a *row range* of the block
//! product ([`TiledOp`]), and the engine partitions the `D` rows into tiles.
//! A work-stealing tile scheduler keeps threads busy even when boundary
//! tiles are cheaper than interior ones.
//!
//! # Layout
//!
//! The engine transposes the column-major `D x K` start block once into a
//! row-interleaved layout, `x[i * k + j]` for row `i` of realization `j` —
//! the element-major layout the paper uses on the GPU, where one matrix
//! entry meets the same row of every realization in adjacent addresses.
//! Each step then makes one pass per row: the format kernel accumulates the
//! `K`-wide row of `A x` in registers (monomorphized per width: `K` up to
//! 16 in one pass, wider blocks in chunks of 8, then 4, then 1), and in the
//! same call the engine applies the spectral rescale, writes
//! `p = 2 h - p` in place and adds the row into the moment dots. A tile's
//! rows of `p` are one contiguous `&mut` slice.
//!
//! # Determinism
//!
//! Partial dots are a pure function of fixed row *segments*, stored into
//! private slot segments; the per-step reduction sums the slots in
//! canonical (ascending) segment order on one thread. Within a segment the
//! row-by-row accumulation reproduces [`vecops::dot`] /
//! [`vecops::chebyshev_combine_dot`] exactly: row `o` of the segment feeds
//! lane `o % 4` (or `o % 8` for [`KernelVariant::Unrolled8`]) while `o` lies
//! below the segment's last multiple of the lane count, the remaining rows
//! feed the tail in order, and the lanes reduce pairwise before the tail is
//! added. Which worker executes a tile therefore cannot affect any bit of
//! the result: for a fixed tile size, moments are bitwise identical across
//! thread counts, including the single-threaded fast path. This is pinned by
//! tests here and in the `kpm` crate, which also freezes the absolute bits.
//!
//! The slot granularity is decoupled from the work granularity: when
//! `tile_rows` is a multiple of [`DEFAULT_TILE_ROWS`], each tile computes
//! its dots per canonical [`DEFAULT_TILE_ROWS`]-row segment (see
//! [`slot_rows_for`]), so the association — and therefore every bit of the
//! result — is identical for *any* such tile height. This is what lets the
//! autotuner in `kpm::tune` treat tile height as a free performance axis:
//! `tile_rows` in {128, 256, 384, ...} are pure scheduling choices. Tile
//! heights that are not a multiple of the canonical segment fall back to
//! per-tile slots (the historical association) and remain value-affecting.
//!
//! Tiled results are *not* bitwise identical to the untiled serial path
//! (a full-vector `vecops::dot` associates differently than per-tile dots
//! summed tile by tile) — they agree to rounding, and the `kpm` property
//! tests bound the difference at `1e-12` relative.
//!
//! # Memory traffic
//!
//! Per block row, a fused step gathers one contiguous `K`-wide row of `x`
//! per stored entry (8K B, a line or two, instead of `K` separate lines in
//! the column-major layout), reads and writes `p` in place (16K B) and reads
//! `r0` for the dot (8K B) — 32 B per row and column plus the matrix
//! stream. The product `A x` never leaves registers: there is no scratch
//! round trip before the combine. The split pipeline (SpMM into a `D x k`
//! intermediate, then combine+dot) moves the raw product through memory an
//! extra time: 48 B/row plus the matrix. See DESIGN.md §9 for the full
//! accounting.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::block::BlockOp;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::ell::EllMatrix;
use crate::op::{DiagonalOp, IdentityOp, LinearOp, RescaledOp};
use crate::sparse::SparseMatrix;
use crate::stencil::StencilOp;
use crate::vecops::{self, KernelVariant};

/// Default tile height in rows.
///
/// 128 rows × 8 B × a handful of live columns keeps a tile's working set
/// inside L1/L2 while leaving enough tiles to balance on any realistic
/// thread count. Overridable at runtime via the `KPM_TILE_ROWS` environment
/// variable (read once by `kpm::exec`).
pub const DEFAULT_TILE_ROWS: usize = 128;

/// An operator whose block product can be computed one row range at a time
/// over a row-interleaved block.
///
/// `x` holds a `dim x k` block row-interleaved: `x[c * k + j]` is row `c` of
/// column `j`. [`TiledOp::rows_interleaved`] calls `sink(i, h)` once per row
/// `i` of `rows`, in ascending order, with `h[u] = (A X)[i, c0 + u]` for the
/// `W` columns `c0..c0 + W`. Each `h[u]` must be bitwise identical to what
/// [`BlockOp::apply_block`] stores at the same position of the column-major
/// product — the tiled engine's cross-format determinism rests on this,
/// mirroring the blocked-vs-scalar contract on [`BlockOp`].
pub trait TiledOp: BlockOp {
    /// Computes rows `rows` of `A X` for columns `c0..c0 + W` into `sink`.
    ///
    /// # Panics
    /// May panic if `x.len() < self.dim() * k`, `c0 + W > k` or
    /// `rows.end > self.dim()`.
    fn rows_interleaved<const W: usize, S: FnMut(usize, [f64; W])>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: Range<usize>,
        sink: &mut S,
    );
}

/// The `W` adjacent values of `x` starting at `at` — one interleaved row
/// run, as a fixed-size array so the per-width kernels vectorize.
#[inline(always)]
fn lanes<const W: usize>(x: &[f64], at: usize) -> &[f64; W] {
    x[at..].first_chunk::<W>().expect("interleaved row run out of bounds")
}

/// [`lanes`] without the bounds check, for the per-entry gathers and
/// per-row accesses of the hot kernels: each checks its bounds once per
/// call instead (a check per gathered run costs a fifth of a narrow step).
///
/// # Safety
/// `at + W <= x.len()`.
#[inline(always)]
pub(crate) unsafe fn lanes_unchecked<const W: usize>(x: &[f64], at: usize) -> &[f64; W] {
    debug_assert!(at + W <= x.len(), "interleaved row run out of bounds");
    // Safety: in bounds per the contract; `[f64; W]` has `f64` alignment.
    unsafe { &*x.as_ptr().add(at).cast::<[f64; W]>() }
}

/// Mutable [`lanes_unchecked`].
///
/// # Safety
/// `at + W <= x.len()`.
#[inline(always)]
unsafe fn lanes_unchecked_mut<const W: usize>(x: &mut [f64], at: usize) -> &mut [f64; W] {
    debug_assert!(at + W <= x.len(), "interleaved row run out of bounds");
    // Safety: as in `lanes_unchecked`.
    unsafe { &mut *x.as_mut_ptr().add(at).cast::<[f64; W]>() }
}

/// The per-call bounds check behind the hot kernels' unchecked accesses:
/// `x` holds `dim` interleaved rows of width `k`, and the columns
/// `c0..c0 + W` lie inside them.
#[inline]
pub(crate) fn check_block<const W: usize>(x: &[f64], dim: usize, k: usize, c0: usize) {
    assert!(c0 + W <= k, "rows_interleaved: columns {c0}..{} of {k}", c0 + W);
    assert!(x.len() >= dim * k, "rows_interleaved: x length {} < {dim} x {k}", x.len());
}

impl<A: TiledOp + ?Sized> TiledOp for &A {
    fn rows_interleaved<const W: usize, S: FnMut(usize, [f64; W])>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: Range<usize>,
        sink: &mut S,
    ) {
        (**self).rows_interleaved(x, k, c0, rows, sink)
    }
}

impl TiledOp for CsrMatrix {
    fn rows_interleaved<const W: usize, S: FnMut(usize, [f64; W])>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: Range<usize>,
        sink: &mut S,
    ) {
        CsrMatrix::rows_interleaved(self, x, k, c0, rows, sink);
    }
}

impl TiledOp for EllMatrix {
    fn rows_interleaved<const W: usize, S: FnMut(usize, [f64; W])>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: Range<usize>,
        sink: &mut S,
    ) {
        EllMatrix::rows_interleaved(self, x, k, c0, rows, sink);
    }
}

impl TiledOp for StencilOp {
    fn rows_interleaved<const W: usize, S: FnMut(usize, [f64; W])>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: Range<usize>,
        sink: &mut S,
    ) {
        StencilOp::rows_interleaved(self, x, k, c0, rows, sink);
    }
}

impl TiledOp for DenseMatrix {
    fn rows_interleaved<const W: usize, S: FnMut(usize, [f64; W])>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: Range<usize>,
        sink: &mut S,
    ) {
        // De-interleave the `W` columns into a column-major stripe once per
        // call, so each element is the same `vecops::dot(row, xcol)` as
        // `apply_block` (bitwise equal). A dense row already streams a whole
        // matrix row per output row; the copy is one extra pass over `x`.
        // Column by column: a row-by-row scatter would store `W` times per
        // row at a stride of `d` words, which thrashes one cache set when
        // `d` is a multiple of 512.
        if rows.is_empty() {
            return;
        }
        let d = self.dim();
        let mut stripe = vec![0.0f64; d * W];
        for (u, col) in stripe.chunks_exact_mut(d).enumerate() {
            for (c, v) in col.iter_mut().enumerate() {
                *v = x[c * k + c0 + u];
            }
        }
        let mut out = vec![0.0f64; rows.len() * W];
        dense_row_dots(self, &stripe, rows.clone(), &mut out);
        for (i, h) in rows.zip(out.chunks_exact(W)) {
            sink(i, *lanes::<W>(h, 0));
        }
    }
}

/// `out[r * w + u] = vecops::dot(row i, stripe column u)` for the `r`-th
/// row `i` of `rows`, `w = stripe.len() / dim`. Kept out of line and
/// width-generic: inlined into each per-width kernel, the 4-lane dot
/// vectorized with shuffles and ran 1.5x slower.
#[inline(never)]
fn dense_row_dots(m: &DenseMatrix, stripe: &[f64], rows: Range<usize>, out: &mut [f64]) {
    let d = m.dim();
    let w = stripe.len() / d;
    for (i, h) in rows.zip(out.chunks_exact_mut(w)) {
        let row = m.row(i);
        for (v, col) in h.iter_mut().zip(stripe.chunks_exact(d)) {
            *v = vecops::dot(row, col);
        }
    }
}

impl TiledOp for IdentityOp {
    fn rows_interleaved<const W: usize, S: FnMut(usize, [f64; W])>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: Range<usize>,
        sink: &mut S,
    ) {
        for i in rows {
            sink(i, *lanes::<W>(x, i * k + c0));
        }
    }
}

impl TiledOp for DiagonalOp {
    fn rows_interleaved<const W: usize, S: FnMut(usize, [f64; W])>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: Range<usize>,
        sink: &mut S,
    ) {
        let diag = self.diag();
        for i in rows {
            sink(i, lanes::<W>(x, i * k + c0).map(|v| diag[i] * v));
        }
    }
}

impl TiledOp for SparseMatrix {
    fn rows_interleaved<const W: usize, S: FnMut(usize, [f64; W])>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: Range<usize>,
        sink: &mut S,
    ) {
        match self {
            SparseMatrix::Csr(m) => m.rows_interleaved(x, k, c0, rows, sink),
            SparseMatrix::Ell(m) => m.rows_interleaved(x, k, c0, rows, sink),
            SparseMatrix::Stencil(s) => s.rows_interleaved(x, k, c0, rows, sink),
        }
    }
}

impl<A: TiledOp> TiledOp for RescaledOp<A> {
    fn rows_interleaved<const W: usize, S: FnMut(usize, [f64; W])>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: Range<usize>,
        sink: &mut S,
    ) {
        // The same `(val - a_plus x) * inv_a_minus` the format kernels fuse
        // into their stores (`block::rescaled_store`), so rows stay bitwise
        // identical to `RescaledOp::apply_block`; applied to the whole
        // register row, it vectorizes with the rest of the pass.
        let d = self.dim();
        check_block::<W>(x, d, k, c0);
        let (a_plus, inv) = (self.a_plus(), 1.0 / self.a_minus());
        self.inner().rows_interleaved(x, k, c0, rows, &mut |i, mut h: [f64; W]| {
            assert!(i < d, "rows_interleaved: row {i} of {d}");
            // Safety: `i < d` and `check_block`.
            let xr = unsafe { lanes_unchecked::<W>(x, i * k + c0) };
            for (v, &xv) in h.iter_mut().zip(xr) {
                *v = (*v - a_plus * xv) * inv;
            }
            sink(i, h);
        });
    }
}

/// Counters reported by one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TiledStats {
    /// Tiles processed, summed over all steps.
    pub tiles: u64,
    /// Tiles executed by a worker other than their initial owner.
    pub steals: u64,
    /// Full sweeps over the operator (one per fused step).
    pub sweeps: u64,
}

/// A generation-counted spinning barrier for the step loop.
///
/// The engine synchronizes every worker twice per step (a few microseconds
/// apart), so parking threads in the OS would dominate; a short spin
/// followed by `yield_now` handles both the multi-core case and
/// single-core/oversubscribed hosts.
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    n: usize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        Self { count: AtomicUsize::new(0), generation: AtomicUsize::new(0), n }
    }

    /// Blocks until all `n` workers have arrived. The AcqRel arrival and
    /// Acquire generation load give every worker a happens-before edge over
    /// all writes the others made before arriving — this is what publishes
    /// tile buffer and slot writes between steps.
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arrival: reset for the next phase, then release everyone.
            // No new arrival can race the reset — all other workers are
            // spinning on `generation` below.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Per-worker tile queues with chase-the-tail stealing.
///
/// Each worker owns a contiguous tile range packed into one `AtomicU64`
/// (`start` in the high half, `end` in the low half). Owners pop from the
/// front, thieves pop from the back of a victim's range — both via CAS, so
/// a tile is executed exactly once. Ranges are contiguous and re-partitioned
/// by worker 0 between steps; stealing changes *who* runs a tile but never
/// *what* it computes, so it is invisible in the results.
struct TileQueues {
    ranges: Vec<AtomicU64>,
    steals: AtomicU64,
}

#[inline]
fn pack(start: usize, end: usize) -> u64 {
    ((start as u64) << 32) | end as u64
}

#[inline]
fn unpack(v: u64) -> (usize, usize) {
    ((v >> 32) as usize, (v & 0xffff_ffff) as usize)
}

impl TileQueues {
    fn new(workers: usize) -> Self {
        Self {
            ranges: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            steals: AtomicU64::new(0),
        }
    }

    /// Repartitions `ntiles` tiles contiguously over the workers. Called by
    /// worker 0 between barriers; the next barrier's Release/Acquire pair
    /// publishes it to everyone.
    fn reset(&self, ntiles: usize) {
        let workers = self.ranges.len();
        for (w, range) in self.ranges.iter().enumerate() {
            range.store(pack(w * ntiles / workers, (w + 1) * ntiles / workers), Ordering::Relaxed);
        }
    }

    /// Owner path: take the front tile of `w`'s own range.
    fn pop_own(&self, w: usize) -> Option<usize> {
        let range = &self.ranges[w];
        let mut cur = range.load(Ordering::Acquire);
        loop {
            let (start, end) = unpack(cur);
            if start >= end {
                return None;
            }
            match range.compare_exchange_weak(
                cur,
                pack(start + 1, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(start),
                Err(v) => cur = v,
            }
        }
    }

    /// Thief path: scan the other workers round-robin and take a victim's
    /// *back* tile, staying out of the owner's way at the front.
    fn steal(&self, w: usize) -> Option<usize> {
        let workers = self.ranges.len();
        for offset in 1..workers {
            let victim = &self.ranges[(w + offset) % workers];
            let mut cur = victim.load(Ordering::Acquire);
            loop {
                let (start, end) = unpack(cur);
                if start >= end {
                    break;
                }
                match victim.compare_exchange_weak(
                    cur,
                    pack(start, end - 1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(end - 1);
                    }
                    Err(v) => cur = v,
                }
            }
        }
        None
    }
}

/// Runs `nsteps` barrier-synchronized steps of `ntiles` tiles over
/// `workers` threads (the caller's thread is worker 0).
///
/// All workers execute the same step program: wait, drain tiles (own queue
/// first, then steal), wait. Worker 0 additionally runs `reduce(step)` and
/// repartitions the queues after the second barrier — the other workers are
/// already blocked on the next step's first barrier, so the reduction reads
/// every tile's slots race-free and in a fixed order regardless of which
/// worker produced them.
fn run_parallel<P>(
    workers: usize,
    ntiles: usize,
    nsteps: usize,
    process: P,
    mut reduce: impl FnMut(usize),
) -> TiledStats
where
    P: Fn(usize, usize) + Sync,
{
    let stats =
        |steals: u64| TiledStats { tiles: (nsteps * ntiles) as u64, steals, sweeps: nsteps as u64 };
    if workers <= 1 {
        // Single-worker fast path: tiles in ascending order, same slots,
        // same reduction — bitwise identical to the threaded run by
        // construction.
        for step in 0..nsteps {
            for tile in 0..ntiles {
                process(step, tile);
            }
            reduce(step);
        }
        return stats(0);
    }
    let barrier_start = SpinBarrier::new(workers);
    let barrier_end = SpinBarrier::new(workers);
    let queues = TileQueues::new(workers);
    queues.reset(ntiles);
    std::thread::scope(|scope| {
        for w in 1..workers {
            let barrier_start = &barrier_start;
            let barrier_end = &barrier_end;
            let queues = &queues;
            let process = &process;
            scope.spawn(move || {
                for step in 0..nsteps {
                    barrier_start.wait();
                    drain_tiles(queues, w, step, process);
                    barrier_end.wait();
                }
            });
        }
        for step in 0..nsteps {
            barrier_start.wait();
            drain_tiles(&queues, 0, step, &process);
            barrier_end.wait();
            reduce(step);
            queues.reset(ntiles);
        }
    });
    stats(queues.steals.load(Ordering::Relaxed))
}

/// One worker's share of a step: drain the own queue front-first, then
/// steal from the others until every queue is empty.
fn drain_tiles<P: Fn(usize, usize)>(queues: &TileQueues, w: usize, step: usize, process: &P) {
    loop {
        let tile = match queues.pop_own(w) {
            Some(t) => Some(t),
            None => queues.steal(w),
        };
        match tile {
            Some(t) => process(step, t),
            None => break,
        }
    }
}

/// Raw pointers to the engine's shared mutable state. Tiles write disjoint
/// row ranges of the recursion buffers and disjoint slot segments, and every
/// cross-step read is ordered by a barrier, so the aliasing is benign; the
/// pointers exist to express that to the compiler without fabricating
/// overlapping `&mut` slices across threads.
#[derive(Clone, Copy)]
struct EngineBuffers {
    a: *mut f64,
    b: *mut f64,
    slots: *mut f64,
}

// Safety: see the field-level discussion above — all concurrent access is
// to disjoint indices, and step transitions are barrier-ordered.
unsafe impl Sync for EngineBuffers {}

#[inline]
fn tile_range(tile: usize, tile_rows: usize, d: usize) -> Range<usize> {
    let lo = tile * tile_rows;
    lo..(lo + tile_rows).min(d)
}

/// The row width of one dot *slot* for a given tile height: the canonical
/// [`DEFAULT_TILE_ROWS`] when `tile_rows` is a multiple of it (so the dot
/// association is independent of the tile height), the tile height itself
/// otherwise (the historical per-tile association).
#[inline]
pub fn slot_rows_for(tile_rows: usize) -> usize {
    if tile_rows > 0 && tile_rows.is_multiple_of(DEFAULT_TILE_ROWS) {
        DEFAULT_TILE_ROWS
    } else {
        tile_rows
    }
}

/// `true` when `tile_rows` produces bitwise-identical moments to the
/// default tile height — i.e. it lies on the canonical-segment grid. The
/// autotuner only emits tile heights satisfying this.
#[inline]
pub fn tile_rows_is_value_safe(tile_rows: usize) -> bool {
    slot_rows_for(tile_rows) == DEFAULT_TILE_ROWS
}

/// `mu[j][0] = <r0_j|r0_j>` accumulated per canonical segment in ascending
/// order — the degenerate `n == 1` case shared by both recursions.
fn tile_ordered_norms(r0: &[f64], d: usize, k: usize, tile_rows: usize) -> Vec<Vec<f64>> {
    let slot_rows = slot_rows_for(tile_rows);
    let nsegs = d.div_ceil(slot_rows);
    (0..k)
        .map(|j| {
            let col = &r0[j * d..(j + 1) * d];
            let mut total = 0.0;
            for seg in 0..nsegs {
                let seg = &col[tile_range(seg, slot_rows, d)];
                // Same per-segment `vecops::dot` association as step 0 of
                // the engines, so mu_0 is identical whichever path computes
                // it.
                total += vecops::dot(seg, seg);
            }
            vec![total]
        })
        .collect()
}

/// Dot slots per canonical segment and column: step 0 fills `<r0|r0>`,
/// `<r0|r1>` and `<r1|r1>`; later steps fill the first one (plain) or two
/// (doubling).
const NSLOTS: usize = 3;

/// Transposes a column-major `d x k` block into the row-interleaved layout
/// (`out[i * k + j] = block[j * d + i]`).
fn interleave(block: &[f64], d: usize, k: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; d * k];
    for (j, col) in block.chunks_exact(d).enumerate() {
        for (i, &v) in col.iter().enumerate() {
            out[i * k + j] = v;
        }
    }
    out
}

/// `N` partial dots of `W` columns over one slot segment, fed one row at a
/// time in the association of [`vecops::dot`] (`L = 4`) or the 8-lane
/// kernels (`L = 8`).
struct SegDots<const W: usize, const L: usize, const N: usize> {
    lanes: [[[f64; W]; N]; L],
    tail: [[f64; W]; N],
}

impl<const W: usize, const L: usize, const N: usize> SegDots<W, L, N> {
    fn new() -> Self {
        const { assert!(L == 4 || L == 8) };
        // `-0.0` is the start value of `Sum for f64`, which the reference
        // kernels use for their tail.
        Self { lanes: [[[0.0; W]; N]; L], tail: [[-0.0; W]; N] }
    }

    /// The accumulators for the segment's row `o`: lane `o % L` below
    /// `split` (the segment length rounded down to a multiple of `L`), the
    /// in-order tail after it.
    #[inline(always)]
    fn at(&mut self, o: usize, split: usize) -> &mut [[f64; W]; N] {
        if o < split {
            &mut self.lanes[o % L]
        } else {
            &mut self.tail
        }
    }

    /// Pairwise lane reduction plus the tail, as the reference kernels do.
    fn sums(&self) -> [[f64; W]; N] {
        let l = &self.lanes;
        std::array::from_fn(|n| {
            std::array::from_fn(|u| {
                let quad =
                    |q: usize| (l[q][n][u] + l[q + 1][n][u]) + (l[q + 2][n][u] + l[q + 3][n][u]);
                let head = if L == 8 { quad(0) + quad(4) } else { quad(0) };
                head + self.tail[n][u]
            })
        })
    }
}

/// `acc[u] += a[u] * b[u]`.
#[inline(always)]
fn add_products<const W: usize>(acc: &mut [f64; W], a: &[f64; W], b: &[f64; W]) {
    for ((s, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *s += x * y;
    }
}

/// `p[u] = 2 h[u] - p[u]`, the in-place Chebyshev combine.
#[inline(always)]
fn combine<const W: usize>(p: &mut [f64; W], h: &[f64; W]) {
    for (pv, &hv) in p.iter_mut().zip(h) {
        *pv = 2.0 * hv - *pv;
    }
}

/// One tile of one fused step: the rows it covers and where its dot slots
/// live.
struct Tile<'a, A: ?Sized> {
    op: &'a A,
    k: usize,
    /// The interleaved start block.
    r0: &'a [f64],
    rows: Range<usize>,
    slot_rows: usize,
    /// The tile's first slot segment; segment `s` of the tile stores slot
    /// `n` of column `j` at `(s * NSLOTS + n) * k + j`.
    slots: *mut f64,
}

impl<A: TiledOp + ?Sized> Tile<'_, A> {
    /// Streams `A x` for columns `c0..c0 + W` over the tile, one slot
    /// segment at a time, handing each row and its dot accumulators to
    /// `row`; then stores the segment's `N` dots into slots `0..N`.
    #[inline(always)]
    fn sweep<const W: usize, const L: usize, const N: usize>(
        &self,
        c0: usize,
        x: &[f64],
        mut row: impl FnMut(usize, [f64; W], &mut [[f64; W]; N]),
    ) {
        let (k, end) = (self.k, self.rows.end);
        for (s, lo) in self.rows.clone().step_by(self.slot_rows).enumerate() {
            let seg = lo..(lo + self.slot_rows).min(end);
            let split = seg.len() - seg.len() % L;
            let mut dots = SegDots::<W, L, N>::new();
            // The engine counts the rows itself, so `row` only ever sees
            // rows of this tile, whatever the operator reports.
            let mut i = lo;
            self.op.rows_interleaved::<W, _>(x, k, c0, seg.clone(), &mut |got, h| {
                assert!(i < seg.end, "rows_interleaved: more rows than {seg:?}");
                debug_assert_eq!(got, i, "rows_interleaved: rows out of order");
                row(i, h, dots.at(i - lo, split));
                i += 1;
            });
            assert_eq!(i, seg.end, "rows_interleaved: fewer rows than {seg:?}");
            for (n, sum) in dots.sums().iter().enumerate() {
                // Safety: these slots belong to this tile alone (see the
                // engine's `process`).
                unsafe {
                    let at = (s * NSLOTS + n) * k + c0;
                    std::ptr::copy_nonoverlapping(sum.as_ptr(), self.slots.add(at), W);
                }
            }
        }
    }
}

/// What a fused step computes on a tile, given `h = A x` per row.
enum Step<'a> {
    /// `r1 = A r0` into `out`; dots `<r0|r0>`, `<r0|r1>`, `<r1|r1>`.
    First { out: &'a mut [f64] },
    /// `p = 2 A x - p` in place; dot `<r0|p>`, with the lane count of the
    /// kernel variant.
    Plain { x: &'a [f64], p: &'a mut [f64], variant: KernelVariant },
    /// `p = 2 A x - p` in place; dots `<x|p>` and `<p|p>`.
    Doubling { x: &'a [f64], p: &'a mut [f64] },
}

struct TileStep<'a, A: ?Sized> {
    tile: Tile<'a, A>,
    step: Step<'a>,
}

impl<A: TiledOp + ?Sized> TileStep<'_, A> {
    /// One pass over the tile for columns `c0..c0 + W`: the format kernel's
    /// register row of `A x` is combined and dotted before the next row.
    ///
    /// The row accesses are unchecked; the asserts below, and `sweep`
    /// handing out only rows `i` of the tile, bound every index: `r0` and
    /// `x` hold all rows up to the tile's end, `out`/`p` hold the tile's
    /// rows, and `c0 + W <= k`.
    fn run<const W: usize>(&mut self, c0: usize) {
        let tile = &self.tile;
        let (k, rows, r0) = (tile.k, tile.rows.clone(), tile.r0);
        assert!(c0 + W <= k && rows.end * k <= r0.len(), "fused step: block shape");
        let (row0, len) = (rows.start, rows.len());
        let at = |i: usize| (i - row0) * k + c0;
        match &mut self.step {
            Step::First { out } => {
                assert_eq!(out.len(), len * k, "fused step: tile length");
                // Safety: see above.
                tile.sweep::<W, 4, 3>(c0, r0, |i, h, acc| unsafe {
                    let r = lanes_unchecked::<W>(r0, i * k + c0);
                    *lanes_unchecked_mut::<W>(out, at(i)) = h;
                    add_products(&mut acc[0], r, r);
                    add_products(&mut acc[1], r, &h);
                    add_products(&mut acc[2], &h, &h);
                })
            }
            Step::Plain { x, p, variant } => {
                assert_eq!(p.len(), len * k, "fused step: tile length");
                // Safety: see above.
                let row = |i: usize, h: [f64; W], acc: &mut [[f64; W]; 1]| unsafe {
                    let p = lanes_unchecked_mut::<W>(p, at(i));
                    combine(p, &h);
                    add_products(&mut acc[0], lanes_unchecked::<W>(r0, i * k + c0), p);
                };
                match variant {
                    KernelVariant::Unrolled4 => tile.sweep::<W, 4, 1>(c0, x, row),
                    KernelVariant::Unrolled8 => tile.sweep::<W, 8, 1>(c0, x, row),
                }
            }
            Step::Doubling { x, p } => {
                assert!(p.len() == len * k && x.len() == r0.len(), "fused step: block shape");
                // Safety: see above.
                tile.sweep::<W, 4, 2>(c0, x, |i, h, acc| unsafe {
                    let p = lanes_unchecked_mut::<W>(p, at(i));
                    combine(p, &h);
                    add_products(&mut acc[0], lanes_unchecked::<W>(x, i * k + c0), p);
                    add_products(&mut acc[1], p, p);
                })
            }
        }
    }

    /// Covers the `k` columns with monomorphized widths: one pass of width
    /// `k` up to 16, wider blocks in chunks of 8, then 4, then 1.
    fn run_all_widths(&mut self) {
        let k = self.tile.k;
        macro_rules! whole {
            ($($w:literal)*) => {
                match k {
                    $($w => return self.run::<$w>(0),)*
                    _ => {}
                }
            };
        }
        whole!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
        let mut c0 = 0;
        while k - c0 >= 8 {
            self.run::<8>(c0);
            c0 += 8;
        }
        if k - c0 >= 4 {
            self.run::<4>(c0);
            c0 += 4;
        }
        while c0 < k {
            self.run::<1>(c0);
            c0 += 1;
        }
    }
}

/// The step loop shared by both recursions: `nsteps` fused sweeps over the
/// interleaved block, `reduce(step, slot_sum)` after each, where
/// `slot_sum(n, j)` sums slot `n` of column `j` over all segments in
/// ascending order.
#[allow(clippy::too_many_arguments)]
fn run_fused<A: TiledOp + Sync + ?Sized>(
    op: &A,
    r0: &[f64],
    k: usize,
    nsteps: usize,
    threads: usize,
    tile_rows: usize,
    doubling: bool,
    mut reduce: impl FnMut(usize, &dyn Fn(usize, usize) -> f64),
) -> TiledStats {
    let d = op.dim();
    let ntiles = d.div_ceil(tile_rows);
    let workers = threads.clamp(1, ntiles);
    // Slot granularity is the canonical segment, not the tile: any
    // tile height on the canonical grid yields the same slots in the same
    // order, so the reduction is bitwise independent of `tile_rows` there.
    let slot_rows = slot_rows_for(tile_rows);
    let nsegs = d.div_ceil(slot_rows);
    let variant = vecops::kernel_variant();
    // Buffer `a` starts as r0 (= T_0 x), `b` receives T_1 x in step 0; from
    // then on the roles alternate by step parity and the previous vector is
    // overwritten in place.
    let r0 = interleave(r0, d, k);
    let mut a = r0.clone();
    let mut b = vec![0.0f64; d * k];
    let mut slots = vec![0.0f64; nsegs * NSLOTS * k];
    let buffers = EngineBuffers { a: a.as_mut_ptr(), b: b.as_mut_ptr(), slots: slots.as_mut_ptr() };
    let r0 = &r0[..];
    let process = move |step: usize, tile: usize| {
        let buffers = buffers; // capture the whole Sync struct, not raw-pointer fields
        let rows = tile_range(tile, tile_rows, d);
        // Safety: this tile's rows of the written buffer and its slot
        // segments are touched by no other tile this step, the read buffer
        // is written by no tile this step, and the barrier orders steps.
        // Tiles on the canonical grid start on a segment boundary, so the
        // tile covers whole segments (the last may be ragged against `d`).
        unsafe {
            let tile_rows_of = |buf: *mut f64| {
                std::slice::from_raw_parts_mut(buf.add(rows.start * k), rows.len() * k)
            };
            let step = if step == 0 {
                Step::First { out: tile_rows_of(buffers.b) }
            } else {
                let (xp, pp) =
                    if step % 2 == 1 { (buffers.b, buffers.a) } else { (buffers.a, buffers.b) };
                let x = std::slice::from_raw_parts(xp as *const f64, d * k);
                let p = tile_rows_of(pp);
                if doubling {
                    Step::Doubling { x, p }
                } else {
                    Step::Plain { x, p, variant }
                }
            };
            let slots = buffers.slots.add(rows.start / slot_rows * NSLOTS * k);
            let tile = Tile { op, k, r0, rows, slot_rows, slots };
            TileStep { tile, step }.run_all_widths();
        }
    };
    let slot_sum = |n: usize, j: usize| -> f64 {
        let mut total = 0.0;
        for seg in 0..nsegs {
            // Safety: worker 0 reads after the end-of-step barrier; no tile
            // is writing.
            total += unsafe { *buffers.slots.add((seg * NSLOTS + n) * k + j) };
        }
        total
    };
    run_parallel(workers, ntiles, nsteps, process, |step| reduce(step, &slot_sum))
}

/// Tiled fused plain-recursion moments for a `D x k` block of start vectors.
///
/// Returns the raw (unnormalized) moments `mu[j][m] = <r0_j | T_m(A) r0_j>`
/// for `m < n` per column, plus the engine counters; callers divide by `D`.
/// `A` must already be rescaled into `[-1, 1]`.
///
/// Every step streams the operator exactly once, over the row-interleaved
/// block: each row of `A x` is computed in registers and immediately
/// combined in place and dotted against `r0`. For a fixed `tile_rows` the
/// result is bitwise independent of `threads` (see the module docs).
///
/// # Panics
/// Panics if `n == 0`, `tile_rows == 0`, or `r0.len() != dim * k`.
pub fn fused_block_moments_plain<A: TiledOp + Sync + ?Sized>(
    op: &A,
    r0: &[f64],
    k: usize,
    n: usize,
    threads: usize,
    tile_rows: usize,
) -> (Vec<Vec<f64>>, TiledStats) {
    let d = op.dim();
    assert!(n >= 1, "fused moments: need at least one moment");
    assert!(tile_rows >= 1, "fused moments: tile_rows must be positive");
    assert_eq!(r0.len(), d * k, "fused moments: r0 length");
    if d == 0 || k == 0 {
        return (vec![vec![0.0; n]; k], TiledStats::default());
    }
    if n == 1 {
        return (tile_ordered_norms(r0, d, k, tile_rows), TiledStats::default());
    }
    let mut mu: Vec<Vec<f64>> = (0..k).map(|_| Vec::with_capacity(n)).collect();
    let stats = run_fused(op, r0, k, n - 1, threads, tile_rows, false, |step, slot_sum| {
        for (j, col) in mu.iter_mut().enumerate() {
            if step == 0 {
                col.push(slot_sum(0, j));
            }
            col.push(slot_sum(if step == 0 { 1 } else { 0 }, j));
        }
    });
    (mu, stats)
}

/// Tiled fused doubling-recursion moments — the `2n`-moments-from-`n`-sweeps
/// trick, with `<r_m|r_m>` and `<r_{m+1}|r_m>` accumulated inside the fused
/// step.
///
/// Same contract and determinism guarantees as
/// [`fused_block_moments_plain`]; uses the identities
/// `mu_{2m} = 2 <r_m|r_m> - mu_0` and `mu_{2m+1} = 2 <r_{m+1}|r_m> - mu_1`,
/// matching the untiled doubling path to rounding.
///
/// # Panics
/// Panics if `n == 0`, `tile_rows == 0`, or `r0.len() != dim * k`.
pub fn fused_block_moments_doubling<A: TiledOp + Sync + ?Sized>(
    op: &A,
    r0: &[f64],
    k: usize,
    n: usize,
    threads: usize,
    tile_rows: usize,
) -> (Vec<Vec<f64>>, TiledStats) {
    let d = op.dim();
    assert!(n >= 1, "fused moments: need at least one moment");
    assert!(tile_rows >= 1, "fused moments: tile_rows must be positive");
    assert_eq!(r0.len(), d * k, "fused moments: r0 length");
    if d == 0 || k == 0 {
        return (vec![vec![0.0; n]; k], TiledStats::default());
    }
    if n == 1 {
        return (tile_ordered_norms(r0, d, k, tile_rows), TiledStats::default());
    }
    // Step 0 yields mu_0, mu_1 and (via <r1|r1>) mu_2; each later step t
    // computes r_{t+1} and yields mu_{2t+1} and (when in range) mu_{2t+2}.
    // The last moment with t >= 1 is mu_{2t+1} <= n-1, so:
    let nsteps = 1 + if n <= 3 { 0 } else { (n - 2) / 2 };
    let mut mu: Vec<Vec<f64>> = (0..k).map(|_| Vec::with_capacity(n)).collect();
    let mut mu0 = vec![0.0f64; k];
    let mut mu1 = vec![0.0f64; k];
    let stats = run_fused(op, r0, k, nsteps, threads, tile_rows, true, |step, slot_sum| {
        for (j, col) in mu.iter_mut().enumerate() {
            if step == 0 {
                mu0[j] = slot_sum(0, j);
                mu1[j] = slot_sum(1, j);
                col.push(mu0[j]);
                col.push(mu1[j]);
                if n > 2 {
                    col.push(2.0 * slot_sum(2, j) - mu0[j]);
                }
            } else {
                let cross = slot_sum(0, j);
                let norm = slot_sum(1, j);
                col.push(2.0 * cross - mu1[j]);
                if 2 * step + 2 < n {
                    col.push(2.0 * norm - mu0[j]);
                }
            }
        }
    });
    (mu, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn ring(d: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(d, d);
        for i in 0..d {
            coo.push(i, (i + 1) % d, -0.4).unwrap();
            coo.push(i, (i + d - 1) % d, -0.4).unwrap();
        }
        coo.to_csr()
    }

    fn start_block(d: usize, k: usize) -> Vec<f64> {
        (0..d * k).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect()
    }

    /// Rows `rows` of `A X` for columns `c0..c0 + W` of the column-major
    /// block `x`, through `rows_interleaved` on its interleaved copy,
    /// written into `out` at column-major positions. Checks that rows
    /// arrive once each, ascending.
    fn rows_into<A: TiledOp, const W: usize>(
        op: &A,
        x: &[f64],
        k: usize,
        c0: usize,
        rows: Range<usize>,
        out: &mut [f64],
    ) {
        let d = op.dim();
        let xi = interleave(x, d, k);
        let mut next = rows.start;
        op.rows_interleaved::<W, _>(&xi, k, c0, rows.clone(), &mut |i, h| {
            assert_eq!(i, next, "rows must arrive once each, ascending");
            next += 1;
            for (u, v) in h.into_iter().enumerate() {
                out[(c0 + u) * d + i] = v;
            }
        });
        assert_eq!(next, rows.end, "every row of the range");
    }

    /// Rows `rows` of `A X` two ways: all `k` columns in one width-`k`
    /// pass, and one width-1 pass per column (so `c0 > 0` is exercised).
    /// Elements outside `rows` stay NaN.
    fn interleaved_product<A: TiledOp>(
        op: &A,
        x: &[f64],
        k: usize,
        rows: Range<usize>,
    ) -> [Vec<f64>; 2] {
        let d = op.dim();
        let mut whole = vec![f64::NAN; d * k];
        macro_rules! whole_width {
            ($($w:literal)*) => {
                match k {
                    $($w => rows_into::<A, $w>(op, x, k, 0, rows.clone(), &mut whole),)*
                    _ => panic!("width {k} not covered"),
                }
            };
        }
        whole_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20);
        let mut by_column = vec![f64::NAN; d * k];
        for c0 in 0..k {
            rows_into::<A, 1>(op, x, k, c0, rows.clone(), &mut by_column);
        }
        [whole, by_column]
    }

    /// Asserts that `rows` of both interleaved products equal `apply_block`
    /// bit for bit.
    fn assert_rows_match_apply_block<A: TiledOp>(op: &A, x: &[f64], k: usize, rows: Range<usize>) {
        let d = op.dim();
        let reference = op.apply_block_alloc(x, k);
        for got in interleaved_product(op, x, k, rows.clone()) {
            for j in 0..k {
                for i in rows.clone() {
                    let (g, r) = (got[j * d + i], reference[j * d + i]);
                    assert_eq!(g.to_bits(), r.to_bits(), "row {i} col {j}: {g} vs {r}");
                }
            }
        }
    }

    #[test]
    fn interleaved_rows_match_apply_block_bitwise() {
        let d = 23;
        let k = 3;
        let csr = ring(d);
        let x: Vec<f64> = (0..d * k).map(|i| (i as f64).sin()).collect();
        let dense = csr.to_dense();
        let ops = [
            SparseMatrix::Csr(csr.clone()),
            SparseMatrix::Ell(EllMatrix::from_csr(&csr)),
            SparseMatrix::Stencil(StencilOp::hypercubic_uniform(&[d], &[true], 0.4, 0.0, false)),
        ];
        for op in &ops {
            for lo in (0..d).step_by(7) {
                assert_rows_match_apply_block(op, &x, k, lo..(lo + 7).min(d));
            }
        }
        assert_rows_match_apply_block(&dense, &x, k, 5..17);
        assert_rows_match_apply_block(&IdentityOp::new(d), &x, k, 0..d);
        let diag = DiagonalOp::new((0..d).map(|i| i as f64 - 7.5).collect());
        assert_rows_match_apply_block(&diag, &x, k, 3..d);
    }

    #[test]
    fn stencil_interleaved_rows_match_csr_from_offset_ranges() {
        // Mixed boundaries: interior rows take the offset fast path, the
        // open direction's faces the generic path; every range starts the
        // odometer at an offset row.
        let s = StencilOp::hypercubic_uniform(&[4, 3, 5], &[true, false, true], 1.0, 0.2, true);
        let d = s.dim();
        let csr = s.to_csr();
        for k in [1, 2, 5] {
            let x: Vec<f64> = (0..d * k).map(|i| (i as f64 * 0.3).cos()).collect();
            let reference = csr.apply_block_alloc(&x, k);
            for step in [5, 7, 23, 37] {
                for lo in (0..d).step_by(step) {
                    let rows = lo..(lo + step).min(d);
                    for got in interleaved_product(&s, &x, k, rows.clone()) {
                        for j in 0..k {
                            let at = j * d..(j + 1) * d;
                            assert_eq!(
                                &got[at.clone()][rows.clone()],
                                &reference[at][rows.clone()]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rescaled_interleaved_rows_match_rescaled_apply_block() {
        let r = RescaledOp::new(ring(17), 0.3, 1.7);
        let k = 2;
        let x: Vec<f64> = (0..17 * k).map(|i| (i as f64).cos()).collect();
        assert_rows_match_apply_block(&r, &x, k, 0..17);
        assert_rows_match_apply_block(&r, &x, k, 4..9);
    }

    /// One operator of each `TiledOp` family, for the property test.
    enum AnyOp {
        Sparse(SparseMatrix),
        Dense(DenseMatrix),
        Diagonal(DiagonalOp),
        Identity(IdentityOp),
        Rescaled(RescaledOp<SparseMatrix>),
    }

    /// SplitMix64: a self-contained generator for the property test.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }

        /// Uniform in `lo..hi` (`hi > lo`).
        fn below(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo) as u64) as usize
        }

        fn coin(&mut self, p: f64) -> bool {
            self.unit() < p
        }
    }

    /// A random operator of family `kind` (CSR, ELL, stencil, dense,
    /// diagonal, identity, rescaled stencil).
    fn random_op(kind: usize, rng: &mut SplitMix) -> AnyOp {
        let d = rng.below(1, 40);
        let mut coo = CooMatrix::new(d, d);
        for _ in 0..rng.below(0, 4 * d) {
            let (i, j) = (rng.below(0, d), rng.below(0, d));
            coo.push_symmetric(i, j, rng.uniform(-2.0, 2.0)).unwrap();
        }
        let csr = coo.to_csr();
        let mut stencil = || {
            if rng.coin(0.25) {
                let (lx, ly) = (rng.below(1, 5), rng.below(1, 5));
                let periodic = rng.coin(0.5);
                let geometry = crate::StencilGeometry::Honeycomb { lx, ly, periodic };
                let onsite = (0..geometry.num_sites()).map(|_| rng.uniform(-1.0, 1.0)).collect();
                return StencilOp::new(geometry, 1.0, onsite, true);
            }
            let ndim = rng.below(1, 4);
            let dims: Vec<usize> = (0..ndim).map(|_| rng.below(1, 6)).collect();
            let periodic: Vec<bool> = (0..ndim).map(|_| rng.coin(0.5)).collect();
            let onsite = if rng.coin(0.5) { 0.0 } else { rng.uniform(-1.0, 1.0) };
            StencilOp::hypercubic_uniform(&dims, &periodic, 0.7, onsite, rng.coin(0.5))
        };
        match kind {
            0 => AnyOp::Sparse(SparseMatrix::Csr(csr)),
            1 => AnyOp::Sparse(SparseMatrix::Ell(EllMatrix::from_csr(&csr))),
            2 => AnyOp::Sparse(SparseMatrix::Stencil(stencil())),
            3 => AnyOp::Dense(csr.to_dense()),
            4 => AnyOp::Diagonal(DiagonalOp::new((0..d).map(|_| rng.uniform(-1.0, 1.0)).collect())),
            5 => AnyOp::Identity(IdentityOp::new(d)),
            _ => {
                let inner = SparseMatrix::Stencil(stencil());
                AnyOp::Rescaled(RescaledOp::new(
                    inner,
                    rng.uniform(-1.0, 1.0),
                    rng.uniform(0.5, 3.0),
                ))
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Any operator, any width 1..=20, any row range: the interleaved
        /// rows equal `apply_block`, transposed, bit for bit.
        #[test]
        fn interleaved_rows_equal_apply_block_transposed(
            kind in 0usize..7,
            k in 1usize..=20,
            seed in proptest::prelude::any::<u64>(),
            lo_pick in 0usize..1000,
            len_pick in 0usize..1000,
        ) {
            let mut rng = SplitMix(seed);
            let op = random_op(kind, &mut rng);
            macro_rules! check {
                ($m:expr) => {{
                    let d = $m.dim();
                    let x: Vec<f64> = (0..d * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
                    let lo = lo_pick % (d + 1);
                    let hi = lo + len_pick % (d - lo + 1);
                    assert_rows_match_apply_block($m, &x, k, lo..hi);
                }};
            }
            match &op {
                AnyOp::Sparse(m) => check!(m),
                AnyOp::Dense(m) => check!(m),
                AnyOp::Diagonal(m) => check!(m),
                AnyOp::Identity(m) => check!(m),
                AnyOp::Rescaled(m) => check!(m),
            }
        }
    }

    fn reference_plain_moments(op: &CsrMatrix, r0: &[f64], n: usize) -> Vec<f64> {
        // Textbook three-buffer recursion in plain f64 accumulation.
        let d = op.dim();
        let mut mu = Vec::with_capacity(n);
        let mut prev = r0.to_vec();
        mu.push(prev.iter().map(|v| v * v).sum());
        if n == 1 {
            return mu;
        }
        let mut cur = op.apply_alloc(&prev);
        mu.push(r0.iter().zip(&cur).map(|(a, b)| a * b).sum());
        for _ in 2..n {
            let mut next = op.apply_alloc(&cur);
            for i in 0..d {
                next[i] = 2.0 * next[i] - prev[i];
            }
            mu.push(r0.iter().zip(&next).map(|(a, b)| a * b).sum());
            prev = cur;
            cur = next;
        }
        mu
    }

    #[test]
    fn plain_engine_matches_reference_recursion() {
        let d = 61;
        let k = 2;
        let n = 9;
        let op = ring(d);
        let r0 = start_block(d, k);
        let (mu, stats) = fused_block_moments_plain(&op, &r0, k, n, 1, 16);
        assert_eq!(stats.sweeps, (n - 1) as u64);
        for j in 0..k {
            let reference = reference_plain_moments(&op, &r0[j * d..(j + 1) * d], n);
            assert_eq!(mu[j].len(), n);
            for m in 0..n {
                let scale = reference[m].abs().max(d as f64);
                assert!(
                    (mu[j][m] - reference[m]).abs() <= 1e-12 * scale,
                    "col {j} mu_{m}: {} vs {}",
                    mu[j][m],
                    reference[m]
                );
            }
        }
    }

    #[test]
    fn doubling_engine_matches_plain_engine() {
        let d = 47;
        let k = 3;
        let op = ring(d);
        let r0 = start_block(d, k);
        for n in [1, 2, 3, 4, 5, 6, 7, 12, 13] {
            let (plain, _) = fused_block_moments_plain(&op, &r0, k, n, 1, 8);
            let (doubling, _) = fused_block_moments_doubling(&op, &r0, k, n, 1, 8);
            for j in 0..k {
                assert_eq!(doubling[j].len(), n, "n = {n}");
                for m in 0..n {
                    let scale = plain[j][m].abs().max(d as f64);
                    assert!(
                        (doubling[j][m] - plain[j][m]).abs() <= 1e-10 * scale,
                        "n = {n}, col {j}, mu_{m}: {} vs {}",
                        doubling[j][m],
                        plain[j][m]
                    );
                }
            }
        }
    }

    #[test]
    fn results_bitwise_stable_across_thread_counts() {
        let d = 97;
        let k = 2;
        let n = 14;
        let op = SparseMatrix::Ell(EllMatrix::from_csr(&ring(d)));
        let r0 = start_block(d, k);
        let (reference_p, _) = fused_block_moments_plain(&op, &r0, k, n, 1, 16);
        let (reference_d, _) = fused_block_moments_doubling(&op, &r0, k, n, 1, 16);
        for threads in [2, 3, 4, 7] {
            let (mu_p, _) = fused_block_moments_plain(&op, &r0, k, n, threads, 16);
            let (mu_d, _) = fused_block_moments_doubling(&op, &r0, k, n, threads, 16);
            assert_eq!(mu_p, reference_p, "plain, {threads} threads");
            assert_eq!(mu_d, reference_d, "doubling, {threads} threads");
        }
    }

    #[test]
    fn canonical_grid_tile_heights_are_bitwise_identical() {
        // Any tile height on the canonical-segment grid must reproduce the
        // default tile height bit for bit — this is the invariant that lets
        // the autotuner treat tile height as pure scheduling. Use a
        // dimension larger than several segments with a ragged remainder.
        let d = DEFAULT_TILE_ROWS * 3 + 57;
        let k = 2;
        let n = 9;
        let op = ring(d);
        let r0 = start_block(d, k);
        let (ref_p, _) = fused_block_moments_plain(&op, &r0, k, n, 1, DEFAULT_TILE_ROWS);
        let (ref_d, _) = fused_block_moments_doubling(&op, &r0, k, n, 1, DEFAULT_TILE_ROWS);
        for mult in [2usize, 3, 4] {
            let tr = mult * DEFAULT_TILE_ROWS;
            assert!(tile_rows_is_value_safe(tr));
            for threads in [1usize, 3] {
                let (mu_p, _) = fused_block_moments_plain(&op, &r0, k, n, threads, tr);
                let (mu_d, _) = fused_block_moments_doubling(&op, &r0, k, n, threads, tr);
                assert_eq!(mu_p, ref_p, "plain, tile_rows = {tr}, {threads} threads");
                assert_eq!(mu_d, ref_d, "doubling, tile_rows = {tr}, {threads} threads");
            }
        }
        // Off-grid heights keep the historical per-tile association and are
        // allowed to differ in the last bits.
        assert!(!tile_rows_is_value_safe(200));
        assert!(!tile_rows_is_value_safe(64));
    }

    #[test]
    fn stats_count_tiles_and_sweeps() {
        let d = 40;
        let op = ring(d);
        let r0 = start_block(d, 1);
        let (_, stats) = fused_block_moments_plain(&op, &r0, 1, 5, 2, 8);
        assert_eq!(stats.sweeps, 4);
        assert_eq!(stats.tiles, 4 * 5, "5 tiles of 8 rows, 4 sweeps");
    }

    #[test]
    fn ragged_final_tile_is_handled() {
        let d = 19; // 3 tiles of 8: 8 + 8 + 3
        let op = ring(d);
        let r0 = start_block(d, 2);
        let (mu_t, _) = fused_block_moments_plain(&op, &r0, 2, 6, 3, 8);
        for j in 0..2 {
            let reference = reference_plain_moments(&op, &r0[j * d..(j + 1) * d], 6);
            for m in 0..6 {
                assert!((mu_t[j][m] - reference[m]).abs() <= 1e-12 * (d as f64));
            }
        }
    }

    #[test]
    fn single_moment_short_circuits() {
        let d = 10;
        let op = ring(d);
        let r0 = start_block(d, 2);
        let (mu, stats) = fused_block_moments_doubling(&op, &r0, 2, 1, 4, 4);
        assert_eq!(stats, TiledStats::default());
        for col in &mu {
            assert_eq!(col.len(), 1);
            assert!((col[0] - d as f64).abs() < 1e-12, "Rademacher norm is D");
        }
    }
}
