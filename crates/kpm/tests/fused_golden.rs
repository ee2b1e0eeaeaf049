//! Frozen bits of the tiled fused engine.
//!
//! Every other suite compares the tiled engine with itself (thread counts,
//! tile heights, exec plans) or with the untiled recursion to 1e-12; this
//! one pins its absolute output. Each case folds the `to_bits` of every
//! moment of `fused_block_moments_plain` or `_doubling`, over a fixed sweep
//! of block widths, tile heights and thread counts, into one FNV-1a digest.
//! The digests were recorded from the column-major engine and must never be
//! edited: a kernel rewrite that changes any bit of any moment fails here.
//!
//! The kernel variant is process-global, so the tests serialize on a lock.

use std::sync::Mutex;

use kpm_lattice::spec::LatticeSpec;
use kpm_lattice::{Boundary, OnSite};
use kpm_linalg::op::{DiagonalOp, RescaledOp};
use kpm_linalg::tiled::{fused_block_moments_doubling, fused_block_moments_plain, TiledOp};
use kpm_linalg::vecops::{kernel_variant, set_kernel_variant, KernelVariant};
use kpm_linalg::{DenseMatrix, LinearOp, MatrixFormat, SparseMatrix, StencilGeometry, StencilOp};

static VARIANT_LOCK: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 7] = [1, 2, 3, 8, 16, 17, 20];
const TILE_ROWS: [usize; 3] = [128, 256, 16];
const THREADS: [usize; 2] = [1, 2];
const MOMENTS: usize = 21;

/// SplitMix64 stream mapped to `[-1, 1)`: the start blocks and random
/// matrices must not depend on any generator outside this file.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next()).collect()
    }
}

fn fnv1a(hash: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn rescaled(op: SparseMatrix) -> RescaledOp<SparseMatrix> {
    let b = op.gershgorin_bounds().padded(0.01);
    RescaledOp::new(op, b.a_plus(), b.a_minus())
}

fn lattice(spec: &str, bc: Boundary, fmt: MatrixFormat) -> SparseMatrix {
    LatticeSpec::parse(spec).unwrap().build_format(1.0, OnSite::Uniform(0.0), bc, fmt)
}

/// Folds every moment of every sweep point into one digest, checking on
/// the way that the thread count never changes a bit.
fn digest<A: TiledOp + Sync>(op: &A, widths: &[usize], doubling: bool, seed: u64) -> u64 {
    let d = op.dim();
    let mut hash = FNV_OFFSET;
    for &k in widths {
        let r0 = SplitMix(seed ^ ((k as u64) << 32)).vec(d * k);
        for tile_rows in TILE_ROWS {
            let mut first: Option<Vec<Vec<f64>>> = None;
            for threads in THREADS {
                let (mu, _) = if doubling {
                    fused_block_moments_doubling(op, &r0, k, MOMENTS, threads, tile_rows)
                } else {
                    fused_block_moments_plain(op, &r0, k, MOMENTS, threads, tile_rows)
                };
                if let Some(first) = &first {
                    assert_eq!(&mu, first, "k {k}, tile {tile_rows}: threads changed the bits");
                }
                for col in &mu {
                    assert_eq!(col.len(), MOMENTS);
                    for m in col {
                        fnv1a(&mut hash, m.to_bits());
                    }
                }
                first = Some(mu);
            }
        }
    }
    hash
}

/// `(case, digest)` for every operator under both recursions.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut push = |name: &str, f: &dyn Fn(bool) -> u64| {
        for doubling in [false, true] {
            let rec = if doubling { "doubling" } else { "plain" };
            out.push((format!("{name}/{rec}"), f(doubling)));
        }
    };

    let cubic = rescaled(lattice("cubic:10,10,10", Boundary::Periodic, MatrixFormat::Csr));
    push("csr-cubic10-fig5-widths", &|dbl| digest(&cubic, &[7, 14], dbl, 1));
    push("csr-cubic10", &|dbl| digest(&cubic, &WIDTHS, dbl, 2));

    // 203 sites: the last segment is ragged against both tile grids and
    // its length is not a multiple of 4; the open ends pad the ELL rows.
    let chain = rescaled(lattice("chain:203", Boundary::Open, MatrixFormat::Ell));
    assert_eq!(chain.dim() % 4, 3);
    push("ell-chain203-open", &|dbl| digest(&chain, &WIDTHS, dbl, 3));

    // Periodic along x and z, open along y: interior rows take the offset
    // fast path, the y faces the generic one. A disordered diagonal keeps
    // the on-site term in every row.
    let dims = [6usize, 5, 7];
    let onsite = SplitMix(4).vec(dims.iter().product());
    let geometry =
        StencilGeometry::Hypercubic { dims: dims.to_vec(), periodic: vec![true, false, true] };
    let stencil = rescaled(SparseMatrix::Stencil(StencilOp::new(geometry, 1.0, onsite, true)));
    push("stencil-mixed-bc", &|dbl| digest(&stencil, &WIDTHS, dbl, 5));

    let honeycomb = rescaled(lattice("honeycomb:7,6", Boundary::Periodic, MatrixFormat::Stencil));
    push("stencil-honeycomb", &|dbl| digest(&honeycomb, &WIDTHS, dbl, 6));

    // A symmetric dense matrix with its spectrum inside (-1, 1), unrescaled.
    let n = 37;
    let mut rng = SplitMix(7);
    let mut dense = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = rng.next() / n as f64;
            dense.set(i, j, v);
            dense.set(j, i, v);
        }
    }
    push("dense37", &|dbl| digest(&dense, &WIDTHS, dbl, 8));

    let diagonal = DiagonalOp::new(SplitMix(9).vec(50));
    push("diagonal50", &|dbl| digest(&diagonal, &WIDTHS, dbl, 10));
    out
}

fn check(variant: KernelVariant, expected: &[(&str, u64)]) {
    let _g = VARIANT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Seed the variant from the environment first, so it cannot override
    // the explicit choice below on its first read.
    let _ = kernel_variant();
    set_kernel_variant(variant);
    let got = digests();
    set_kernel_variant(KernelVariant::Unrolled4);
    let table: Vec<String> =
        got.iter().map(|(name, h)| format!("(\"{name}\", {h:#018x}),")).collect();
    assert_eq!(got.len(), expected.len(), "case list changed:\n{}", table.join("\n"));
    for ((name, h), (want_name, want)) in got.iter().zip(expected) {
        assert_eq!(name, want_name, "case order changed:\n{}", table.join("\n"));
        assert_eq!(
            h,
            want,
            "{} {name}: moments changed bits; got:\n{}",
            variant.name(),
            table.join("\n")
        );
    }
}

#[test]
fn unrolled4_moments_are_frozen() {
    check(
        KernelVariant::Unrolled4,
        &[
            ("csr-cubic10-fig5-widths/plain", 0xeb41699af30dc361),
            ("csr-cubic10-fig5-widths/doubling", 0xd6d36c2b18c1a5f9),
            ("csr-cubic10/plain", 0xa8e28b7243216861),
            ("csr-cubic10/doubling", 0xec4c788ca4783299),
            ("ell-chain203-open/plain", 0x59374456c44ce7bd),
            ("ell-chain203-open/doubling", 0xeb74d8e746750219),
            ("stencil-mixed-bc/plain", 0xb0834dbab02f0275),
            ("stencil-mixed-bc/doubling", 0x801928ad8263be2d),
            ("stencil-honeycomb/plain", 0x46dbe8c407ab2e09),
            ("stencil-honeycomb/doubling", 0x0a52b515da21d53d),
            ("dense37/plain", 0x45f2104cc40e38e5),
            ("dense37/doubling", 0xd9e27f9d72e98e01),
            ("diagonal50/plain", 0x309bff1a4dbed799),
            ("diagonal50/doubling", 0xed4cf6f0a5be4ac5),
        ],
    );
}

#[test]
fn unrolled8_moments_are_frozen() {
    check(
        KernelVariant::Unrolled8,
        &[
            ("csr-cubic10-fig5-widths/plain", 0xaba7c50a82ceade9),
            ("csr-cubic10-fig5-widths/doubling", 0xd6d36c2b18c1a5f9),
            ("csr-cubic10/plain", 0x307a80e41e59b9d9),
            ("csr-cubic10/doubling", 0xec4c788ca4783299),
            ("ell-chain203-open/plain", 0x23de07f12a82b169),
            ("ell-chain203-open/doubling", 0xeb74d8e746750219),
            ("stencil-mixed-bc/plain", 0x702816dd83ecfa49),
            ("stencil-mixed-bc/doubling", 0x801928ad8263be2d),
            ("stencil-honeycomb/plain", 0x1f5be25f5169af05),
            ("stencil-honeycomb/doubling", 0x0a52b515da21d53d),
            ("dense37/plain", 0x3b850aa3efc6a66d),
            ("dense37/doubling", 0xd9e27f9d72e98e01),
            ("diagonal50/plain", 0x95d7c745ad37b869),
            ("diagonal50/doubling", 0xed4cf6f0a5be4ac5),
        ],
    );
}
