//! Dense compute kernels behind every hot path of the pipeline: a
//! cache-blocked, register-tiled GEMM family and a Gram-trick batched
//! pairwise-distance kernel.
//!
//! # Why this module exists
//!
//! Profiling (`EXATHLON_PROFILE=1`, PR 2) shows the compute-bound stages —
//! NN training, PCA fitting, and above all the O(records × references ×
//! dims) kNN/LOF scoring loops of the P2 inference benchmark — bottom out
//! in scalar element-at-a-time loops. This module replaces those inner
//! loops with kernels that keep a 4×4 tile of accumulators in registers
//! and walk memory contiguously, without changing any result the pipeline
//! reports.
//!
//! # Numerics contract
//!
//! The GEMM kernels ([`matmul`], [`matmul_transpose`], [`transpose_matmul`],
//! [`matvec`], [`transpose_matvec`]) accumulate each output element with a
//! **single accumulator walking `k` in ascending order** — exactly the
//! summation order of the retained naive references ([`naive_matmul`] and
//! friends). Blocking over rows/columns/`k`-panels only changes *which*
//! element is computed when, never the order of additions inside one
//! element, so for finite inputs the kernels are **bitwise identical** to
//! the naive loops (the naive loops skip `a == 0.0` terms; adding the
//! skipped `±0.0 * b` products back is a bitwise no-op for finite data
//! because an IEEE-754 round-to-nearest accumulator that starts at `+0.0`
//! can never become `-0.0`). Matrices containing NaN/∞ are the one
//! exception: the kernels propagate them like textbook GEMM where the
//! zero-skipping naive loops could mask them — callers with dirty data
//! (kNN/LOF) sanitize through [`sanitize_rows`] first.
//!
//! The batched distance kernel evaluates ‖a−b‖² as ‖a‖² + ‖b‖² − 2·a·b
//! through GEMM instead of the per-pair `Σ (aᵢ−bᵢ)²` loop. That *is* a
//! different floating-point expression, so batched squared distances may
//! drift from the scalar reference at the ulp level (and are clamped at
//! zero, where cancellation could otherwise produce tiny negatives). The
//! regression suite pins the drift to ≤ 1e-9 relative error
//! (`crates/linalg/tests/kernel_properties.rs`), the kNN/LOF consumers
//! against a scalar oracle built on [`naive_sq_distance`]
//! (`crates/ad/tests/sanitize_consistency.rs`), and the end-to-end
//! output bits (`tests/golden_digests.rs`). The `naive_*` references
//! stay public for those suites and the benches; no production path
//! calls them.
//!
//! # One body per kernel
//!
//! Each kernel's loops and dispatch live only in its `_into` form (e.g.
//! [`matmul_into`]), which writes into a caller-reused buffer of any
//! prior shape or contents; the allocating form hands it a fresh buffer,
//! so both return the same bits by construction.
//!
//! # Parallelism
//!
//! Large GEMMs fan out over **fixed-size row blocks** of the output on the
//! shared [`crate::par`] pool. Block boundaries depend only on the matrix
//! shape — never on the thread count — and each block is computed by the
//! serial kernel, so the parallel result is bitwise identical to the
//! single-threaded one for any `EXATHLON_THREADS`.

use crate::matrix::Matrix;

/// Micro-tile height (rows of the output computed per register tile).
pub const MR: usize = 4;
/// Micro-tile width (columns of the output computed per register tile).
pub const NR: usize = 4;
/// `k`-panel length: 2 × `KC` × 8 bytes of the two operand panels a
/// micro-kernel streams stay within a 32 KiB L1.
pub const KC: usize = 256;
/// Column-block width, sizing the `KC × NC` operand panel for L2.
pub const NC: usize = 128;
/// Rows of the output per parallel work item. Fixed (never derived from
/// the thread count) so the parallel decomposition is deterministic.
pub const ROW_BLOCK: usize = 64;
/// Queries per batch in the blocked distance consumers (kNN/LOF): bounds
/// the `chunk × references` scratch matrix to a few MB.
pub const DIST_CHUNK: usize = 256;

// ---------------------------------------------------------------------------
// GEMM micro-kernels
// ---------------------------------------------------------------------------

/// GEMM operand-layout variants, used as `const` parameters so each
/// micro-kernel monomorphizes to straight-line indexing with no runtime
/// branch: element `(i, k)` of `op(A)` and `(k, j)` of `op(B)`.
mod gemm {
    /// `out[i][j] += a[i*lda + k] * b[k*ldb + j]` — `A·B`.
    pub const AB: u8 = 0;
    /// `out[i][j] += a[i*lda + k] * b[j*ldb + k]` — `A·Bᵀ`.
    pub const ABT: u8 = 1;
    /// `out[i][j] += a[k*lda + i] * b[k*ldb + j]` — `Aᵀ·B`.
    pub const ATB: u8 = 2;
}

#[inline(always)]
fn a_idx<const V: u8>(i: usize, k: usize, lda: usize) -> usize {
    if V == gemm::ATB {
        k * lda + i
    } else {
        i * lda + k
    }
}

#[inline(always)]
fn b_idx<const V: u8>(k: usize, j: usize, ldb: usize) -> usize {
    if V == gemm::ABT {
        j * ldb + k
    } else {
        k * ldb + j
    }
}

/// Full `MR × NR` register tile over one `k`-panel. The sixteen named
/// accumulators live in registers across the whole panel; each one is
/// loaded from and stored to `out` exactly once per panel, and adds its
/// `a·b` products in ascending `k` — preserving the naive summation
/// order bit for bit.
///
/// Safety: callers guarantee `i+MR ≤ m`, `j+NR ≤ n` and `k0..k1` in
/// bounds for the variant's indexing; the `debug_assert`s pin the
/// contract and the unchecked accesses buy the hot loop back from
/// per-element bounds checks.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_tile_full<const V: u8>(
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ldo: usize,
    i: usize,
    j: usize,
    k0: usize,
    k1: usize,
) {
    debug_assert!(k1 >= k0);
    debug_assert!(k1 == k0 || a_idx::<V>(i + MR - 1, k1 - 1, lda) < a.len());
    debug_assert!(k1 == k0 || a_idx::<V>(i + MR - 1, k0, lda) < a.len());
    debug_assert!(k1 == k0 || b_idx::<V>(k1 - 1, j + NR - 1, ldb) < b.len());
    debug_assert!((i + MR - 1) * ldo + j + NR - 1 < out.len());

    let (mut c00, mut c01, mut c02, mut c03) = load4(out, i * ldo + j);
    let (mut c10, mut c11, mut c12, mut c13) = load4(out, (i + 1) * ldo + j);
    let (mut c20, mut c21, mut c22, mut c23) = load4(out, (i + 2) * ldo + j);
    let (mut c30, mut c31, mut c32, mut c33) = load4(out, (i + 3) * ldo + j);
    unsafe {
        for k in k0..k1 {
            let a0 = *a.get_unchecked(a_idx::<V>(i, k, lda));
            let a1 = *a.get_unchecked(a_idx::<V>(i + 1, k, lda));
            let a2 = *a.get_unchecked(a_idx::<V>(i + 2, k, lda));
            let a3 = *a.get_unchecked(a_idx::<V>(i + 3, k, lda));
            let b0 = *b.get_unchecked(b_idx::<V>(k, j, ldb));
            let b1 = *b.get_unchecked(b_idx::<V>(k, j + 1, ldb));
            let b2 = *b.get_unchecked(b_idx::<V>(k, j + 2, ldb));
            let b3 = *b.get_unchecked(b_idx::<V>(k, j + 3, ldb));
            c00 += a0 * b0;
            c01 += a0 * b1;
            c02 += a0 * b2;
            c03 += a0 * b3;
            c10 += a1 * b0;
            c11 += a1 * b1;
            c12 += a1 * b2;
            c13 += a1 * b3;
            c20 += a2 * b0;
            c21 += a2 * b1;
            c22 += a2 * b2;
            c23 += a2 * b3;
            c30 += a3 * b0;
            c31 += a3 * b1;
            c32 += a3 * b2;
            c33 += a3 * b3;
        }
    }
    store4(out, i * ldo + j, (c00, c01, c02, c03));
    store4(out, (i + 1) * ldo + j, (c10, c11, c12, c13));
    store4(out, (i + 2) * ldo + j, (c20, c21, c22, c23));
    store4(out, (i + 3) * ldo + j, (c30, c31, c32, c33));
}

#[inline(always)]
fn load4(s: &[f64], base: usize) -> (f64, f64, f64, f64) {
    (s[base], s[base + 1], s[base + 2], s[base + 3])
}

#[inline(always)]
fn store4(s: &mut [f64], base: usize, v: (f64, f64, f64, f64)) {
    s[base] = v.0;
    s[base + 1] = v.1;
    s[base + 2] = v.2;
    s[base + 3] = v.3;
}

/// Which micro-kernel family [`gemm_serial`] drives. Detected once per
/// process from the CPU; `EXATHLON_ISA=scalar|avx2` (read *before first
/// use*) caps the selection downward — it can never enable an ISA the
/// CPU lacks — for A/B measurements and for exercising the fallback
/// tiles on wide machines. Every family computes each output element
/// with the same single-accumulator ascending-`k` sum — mul then add,
/// never FMA (FMA's fused rounding would break bitwise equality with
/// the scalar reference) — so the choice never changes results, only
/// throughput.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Isa {
    /// 8×8 tiles of `f64x8` (`_mm512_mul_pd` + `_mm512_add_pd`).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx512,
    /// 4×8 tiles of two `f64x4` halves.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx2,
    /// Portable 4×4 register tiles.
    Scalar,
}

fn isa() -> Isa {
    static ISA: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
    *ISA.get_or_init(|| {
        #[allow(unused_mut)]
        let mut detected = Isa::Scalar;
        #[cfg(target_arch = "x86_64")]
        {
            // Both SIMD families require AVX2: the elemwise lanes
            // (`crate::elemwise`) run AVX2 code whenever `simd_active()`.
            if std::arch::is_x86_feature_detected!("avx2") {
                detected = if std::arch::is_x86_feature_detected!("avx512f") {
                    Isa::Avx512
                } else {
                    Isa::Avx2
                };
            }
        }
        match std::env::var("EXATHLON_ISA").as_deref().map(str::trim) {
            Ok("scalar") => Isa::Scalar,
            Ok("avx2") if detected == Isa::Avx512 => Isa::Avx2,
            _ => detected,
        }
    })
}

/// True when a SIMD family (AVX2 or AVX-512) survived detection and the
/// `EXATHLON_ISA` cap. Either family is selected only on a CPU with AVX2,
/// so `true` guarantees AVX2: the elemwise layer ([`crate::elemwise`])
/// relies on that to run its 4-lane AVX2 paths, and one environment
/// variable controls every vector path in the crate.
pub(crate) fn simd_active() -> bool {
    isa() != Isa::Scalar
}

/// SIMD micro-tiles. Only the `j`-contiguous variants ([`gemm::AB`],
/// [`gemm::ATB`]) reach them — both index `B` as `b[k·ldb + j]`, so the
/// tiles are variant-free; `A·Bᵀ` goes through an explicit blocked
/// transpose of `B` instead (same products, same order — value-
/// identical, and the transpose is O(n·k) against the GEMM's O(m·n·k)).
///
/// The tiles read `A` from a packed panel (`ap[t·tm + r]` = element of
/// output row `ir + r` at panel depth `t`, filled by the driver): the
/// eight broadcasts per `k` then hit one cache line instead of eight
/// 2 KB-strided ones, which would otherwise collide in a handful of L1
/// sets.
#[cfg(target_arch = "x86_64")]
mod wide {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// 8×16 AVX-512 tile: sixteen zmm accumulators (two per output row)
    /// live across the whole `k`-panel; per `k` two contiguous loads of
    /// `b[k][j..j+16]` and eight broadcasts from the packed `A` panel.
    /// Sixteen independent add chains hide the `vaddpd` latency.
    ///
    /// # Safety
    /// Caller guarantees AVX-512F is available, `ap.len() ≥ kn·8`, and
    /// the 8×16 `out` tile at `(i, j)` plus `b` rows `kc..kc+kn` are in
    /// bounds (the driver's tiling invariant).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn tile_8x16_avx512(
        ap: &[f64],
        b: &[f64],
        ldb: usize,
        out: &mut [f64],
        ldo: usize,
        i: usize,
        j: usize,
        kc: usize,
        kn: usize,
    ) {
        debug_assert!((i + 7) * ldo + j + 16 <= out.len());
        debug_assert!(kn * 8 <= ap.len());
        let o = out.as_mut_ptr();
        let bp = b.as_ptr().add(kc * ldb + j);
        let mut lo = [_mm512_setzero_pd(); 8];
        let mut hi = [_mm512_setzero_pd(); 8];
        for r in 0..8 {
            lo[r] = _mm512_loadu_pd(o.add((i + r) * ldo + j));
            hi[r] = _mm512_loadu_pd(o.add((i + r) * ldo + j + 8));
        }
        for t in 0..kn {
            let brow = bp.add(t * ldb);
            let b_lo = _mm512_loadu_pd(brow);
            let b_hi = _mm512_loadu_pd(brow.add(8));
            let arow = ap.as_ptr().add(t * 8);
            for r in 0..8 {
                let av = _mm512_set1_pd(*arow.add(r));
                lo[r] = _mm512_add_pd(lo[r], _mm512_mul_pd(av, b_lo));
                hi[r] = _mm512_add_pd(hi[r], _mm512_mul_pd(av, b_hi));
            }
        }
        for r in 0..8 {
            _mm512_storeu_pd(o.add((i + r) * ldo + j), lo[r]);
            _mm512_storeu_pd(o.add((i + r) * ldo + j + 8), hi[r]);
        }
    }

    /// 4×8 AVX2 tile: four rows × two ymm halves, same packed-`A`
    /// layout with `tm = 4`.
    ///
    /// # Safety
    /// Caller guarantees AVX2, `ap.len() ≥ kn·4`, and in-bounds `out`
    /// tile / `b` rows as for [`tile_8x16_avx512`].
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn tile_4x8_avx2(
        ap: &[f64],
        b: &[f64],
        ldb: usize,
        out: &mut [f64],
        ldo: usize,
        i: usize,
        j: usize,
        kc: usize,
        kn: usize,
    ) {
        debug_assert!((i + 3) * ldo + j + 8 <= out.len());
        debug_assert!(kn * 4 <= ap.len());
        let o = out.as_mut_ptr();
        let bp = b.as_ptr().add(kc * ldb + j);
        let mut lo = [_mm256_setzero_pd(); 4];
        let mut hi = [_mm256_setzero_pd(); 4];
        for r in 0..4 {
            lo[r] = _mm256_loadu_pd(o.add((i + r) * ldo + j));
            hi[r] = _mm256_loadu_pd(o.add((i + r) * ldo + j + 4));
        }
        for t in 0..kn {
            let brow = bp.add(t * ldb);
            let b_lo = _mm256_loadu_pd(brow);
            let b_hi = _mm256_loadu_pd(brow.add(4));
            let arow = ap.as_ptr().add(t * 4);
            for r in 0..4 {
                let av = _mm256_set1_pd(*arow.add(r));
                lo[r] = _mm256_add_pd(lo[r], _mm256_mul_pd(av, b_lo));
                hi[r] = _mm256_add_pd(hi[r], _mm256_mul_pd(av, b_hi));
            }
        }
        for r in 0..4 {
            _mm256_storeu_pd(o.add((i + r) * ldo + j), lo[r]);
            _mm256_storeu_pd(o.add((i + r) * ldo + j + 4), hi[r]);
        }
    }
}

/// Ragged-edge tile (`mr × nr` with `mr ≤ MR`, `nr ≤ NR`): same
/// accumulator discipline as [`micro_tile_full`], safe indexing — edges
/// are a vanishing fraction of the work.
#[inline]
#[allow(clippy::too_many_arguments)]
fn micro_tile_edge<const V: u8>(
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ldo: usize,
    i: usize,
    j: usize,
    mr: usize,
    nr: usize,
    k0: usize,
    k1: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for r in 0..mr {
        for c in 0..nr {
            acc[r][c] = out[(i + r) * ldo + j + c];
        }
    }
    for k in k0..k1 {
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            let av = a[a_idx::<V>(i + r, k, lda)];
            for (c, cell) in row.iter_mut().enumerate().take(nr) {
                *cell += av * b[b_idx::<V>(k, j + c, ldb)];
            }
        }
    }
    for r in 0..mr {
        for c in 0..nr {
            out[(i + r) * ldo + j + c] = acc[r][c];
        }
    }
}

/// Cover an arbitrary output rectangle `[i0, i1) × [j0, j1)` with the
/// portable 4×4 register tiles (full where possible, ragged edges
/// otherwise). Used as the whole driver body in scalar mode and as the
/// edge sweeper around the SIMD tiles.
#[allow(clippy::too_many_arguments)]
fn scalar_block<const V: u8>(
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ldo: usize,
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
    k0: usize,
    k1: usize,
) {
    let mut ir = i0;
    while ir < i1 {
        let mr = (i1 - ir).min(MR);
        let mut jr = j0;
        while jr < j1 {
            let nr = (j1 - jr).min(NR);
            if mr == MR && nr == NR {
                micro_tile_full::<V>(a, lda, b, ldb, out, ldo, ir, jr, k0, k1);
            } else {
                micro_tile_edge::<V>(a, lda, b, ldb, out, ldo, ir, jr, mr, nr, k0, k1);
            }
            jr += nr;
        }
        ir += mr;
    }
}

/// Serial blocked GEMM over an `m × n × kdim` problem, writing
/// `out += op(A)·op(B)` for rows `0..m` of the output.
///
/// The `A·Bᵀ` variant always takes the scalar tiles: its `j` lanes
/// stride by `ldb`, which defeats vector loads — [`matmul_transpose`]
/// materializes `Bᵀ` up front and dispatches `A·B` instead whenever a
/// SIMD family is active.
#[allow(clippy::too_many_arguments)]
fn gemm_serial<const V: u8>(
    m: usize,
    n: usize,
    kdim: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ldo: usize,
) {
    let isa = if V == gemm::ABT { Isa::Scalar } else { isa() };
    let (tm, tn) = match isa {
        Isa::Avx512 => (8, 16),
        Isa::Avx2 => (4, 8),
        Isa::Scalar => (MR, NR),
    };
    let m_wide = m - m % tm;
    // Scratch for the packed `A` panel (`tm` output rows × `KC` depths,
    // depth-major): filled once per (kc, ir), reused across all `jr`
    // tiles of the column block. The buffer is thread-local so a
    // steady-state training step performs no heap allocation; reuse is
    // safe because the microkernel only reads panel depths written this
    // pass (`t < kn`), never stale contents.
    thread_local! {
        static APACK: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    APACK.with(|cell| {
        let mut apack = cell.borrow_mut();
        if isa != Isa::Scalar && apack.len() < tm * KC {
            apack.resize(tm * KC, 0.0);
        }
        for jc in (0..n).step_by(NC) {
            let jc_end = (jc + NC).min(n);
            let j_wide_end = jc + (jc_end - jc) - (jc_end - jc) % tn;
            for kc in (0..kdim).step_by(KC) {
                let kc_end = (kc + KC).min(kdim);
                match isa {
                    Isa::Scalar => {
                        scalar_block::<V>(a, lda, b, ldb, out, ldo, 0, m, jc, jc_end, kc, kc_end);
                    }
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx512 | Isa::Avx2 => {
                        let kn = kc_end - kc;
                        for ir in (0..m_wide).step_by(tm) {
                            for (t, quad) in apack.chunks_exact_mut(tm).enumerate().take(kn) {
                                for (r, slot) in quad.iter_mut().enumerate() {
                                    *slot = a[a_idx::<V>(ir + r, kc + t, lda)];
                                }
                            }
                            for jr in (jc..j_wide_end).step_by(tn) {
                                // SAFETY: the detected ISA guarantees the
                                // feature; tile bounds hold by construction
                                // (`ir + tm ≤ m`, `jr + tn ≤ n`, panel
                                // holds `kn·tm` elements).
                                unsafe {
                                    if isa == Isa::Avx512 {
                                        wide::tile_8x16_avx512(
                                            &apack, b, ldb, out, ldo, ir, jr, kc, kn,
                                        );
                                    } else {
                                        wide::tile_4x8_avx2(
                                            &apack, b, ldb, out, ldo, ir, jr, kc, kn,
                                        );
                                    }
                                }
                            }
                            if j_wide_end < jc_end {
                                scalar_block::<V>(
                                    a,
                                    lda,
                                    b,
                                    ldb,
                                    out,
                                    ldo,
                                    ir,
                                    ir + tm,
                                    j_wide_end,
                                    jc_end,
                                    kc,
                                    kc_end,
                                );
                            }
                        }
                        if m_wide < m {
                            scalar_block::<V>(
                                a, lda, b, ldb, out, ldo, m_wide, m, jc, jc_end, kc, kc_end,
                            );
                        }
                    }
                    #[cfg(not(target_arch = "x86_64"))]
                    _ => unreachable!("non-scalar ISA detected on non-x86_64"),
                }
            }
        }
    });
}

/// Blocked `A·B`. Bitwise identical to [`naive_matmul`] for finite
/// inputs (see module docs for the one NaN/∞ caveat).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    matmul_into(a, b, &mut out);
    out
}

/// Blocked `A·Bᵀ` without materializing the transpose: `out[i][j] =
/// Σ_k a[i][k]·b[j][k]`, both operands streamed contiguously.
///
/// # Panics
/// Panics unless `a.cols() == b.cols()`.
pub fn matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    matmul_transpose_into(a, b, &mut Matrix::default(), &mut out);
    out
}

/// Blocked `Aᵀ·B` without materializing the transpose: `out[i][j] =
/// Σ_k a[k][i]·b[k][j]` — a stream of rank-1 updates with both rows
/// contiguous (the `dzᵀ·x` shape of dense-layer backprop and the
/// `DᵀD` shape of covariance).
///
/// # Panics
/// Panics unless `a.rows() == b.rows()`.
pub fn transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::default();
    transpose_matmul_into(a, b, &mut out);
    out
}

/// Drive a GEMM into a caller-reused output buffer: `out` is reshaped in
/// place (reusing its allocation) and zero-filled once, then written
/// serially below the fan-out threshold and as fixed `ROW_BLOCK` slabs on
/// the shared worker pool above it. The decomposition depends only on
/// `m`, so results are bitwise identical for every thread count. The slab
/// copies in the parallel branch are the only transient allocations, and
/// training-shape problems (tens of rows) never reach it.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS-style gemm_serial signature
fn gemm_into<const V: u8>(
    m: usize,
    n: usize,
    kdim: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    out: &mut Matrix,
) {
    crate::obs::counter("kernel.gemm", 1);
    // Truncate first so the resize zero-fills every cell exactly once,
    // whether `out` arrives fresh, dirty or wrongly shaped.
    out.reset(0, 0);
    out.reset(m, n);
    // Below ~2 row blocks or ~128k flop there is nothing to win from
    // fan-out, and with a single-worker pool the slab round-trip is pure
    // overhead; the serial kernel gives the bitwise-same answer either
    // way (fixed blocks, ascending `k`).
    if m < 2 * ROW_BLOCK || m * n * kdim < 131_072 || crate::par::max_threads() <= 1 {
        gemm_serial::<V>(m, n, kdim, a, lda, b, ldb, out.as_mut_slice(), n.max(1));
        return;
    }
    crate::obs::counter("kernel.gemm_parallel", 1);
    let blocks: Vec<(usize, usize)> =
        (0..m).step_by(ROW_BLOCK).map(|s| (s, (s + ROW_BLOCK).min(m))).collect();
    let slabs: Vec<Vec<f64>> = crate::par::par_map(&blocks, |&(start, end)| {
        let rows = end - start;
        let mut slab = vec![0.0; rows * n];
        // Row-major operands let each block re-base `A` by slicing whole
        // rows; for AᵀB the output row index selects a *column* of `A`,
        // so the block re-bases the column origin instead.
        let a_block = if V == gemm::ATB { &a[start..] } else { &a[start * lda..] };
        gemm_serial::<V>(rows, n, kdim, a_block, lda, b, ldb, &mut slab, n);
        slab
    });
    let data = out.as_mut_slice();
    let mut off = 0;
    for slab in slabs {
        data[off..off + slab.len()].copy_from_slice(&slab);
        off += slab.len();
    }
}

/// `A·B` into a caller-reused buffer (any prior shape or contents) — the
/// body behind [`matmul`]; no fresh allocation once `out` has grown to
/// the steady-state shape.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul dimension mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    gemm_into::<{ gemm::AB }>(m, n, k, a.as_slice(), k, b.as_slice(), n, out);
}

/// `A·Bᵀ` into a caller-reused buffer — the body behind
/// [`matmul_transpose`]. With a SIMD family active the kernel
/// materializes `Bᵀ` into the caller-reused `bt` scratch (O(n·k),
/// blocked) so the vector tiles get contiguous `j` lanes; same products
/// in the same per-element order, so the result is value-identical to
/// the direct `A·Bᵀ` walk the scalar path takes (leaving `bt` untouched).
///
/// # Panics
/// Panics unless `a.cols() == b.cols()`.
pub fn matmul_transpose_into(a: &Matrix, b: &Matrix, bt: &mut Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transpose dimension mismatch: {}x{} * ({}x{})^T",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k) = a.shape();
    let n = b.rows();
    if isa() == Isa::Scalar {
        gemm_into::<{ gemm::ABT }>(m, n, k, a.as_slice(), k, b.as_slice(), k, out);
    } else {
        b.transpose_into(bt);
        gemm_into::<{ gemm::AB }>(m, n, k, a.as_slice(), k, bt.as_slice(), n, out);
    }
}

/// `Aᵀ·B` into a caller-reused buffer — the body behind
/// [`transpose_matmul`]; no fresh allocation at steady state (the `dzᵀ·x`
/// gradient shape of dense-layer backprop, accumulated without an
/// intermediate).
///
/// # Panics
/// Panics unless `a.rows() == b.rows()`.
pub fn transpose_matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "transpose_matmul dimension mismatch: ({}x{})^T * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (kdim, m) = a.shape();
    let n = b.cols();
    gemm_into::<{ gemm::ATB }>(m, n, kdim, a.as_slice(), m, b.as_slice(), n, out);
}

// ---------------------------------------------------------------------------
// Vector kernels
// ---------------------------------------------------------------------------

/// `A·v` into a fresh vector; see [`matvec_into`].
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matvec(a: &Matrix, v: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    matvec_into(a, v, &mut out);
    out
}

/// `Aᵀ·v` into a fresh vector; see [`transpose_matvec_into`].
///
/// # Panics
/// Panics on dimension mismatch.
pub fn transpose_matvec(a: &Matrix, v: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    transpose_matvec_into(a, v, &mut out);
    out
}

/// `A·v` into a caller-reused vector (any prior length or contents). Four
/// output rows are computed per pass so `v` is loaded once per quad
/// instead of once per row; each output keeps a single accumulator
/// walking `k` in order (bitwise equal to the naive dot). The allocation
/// is reused once it has grown to the steady-state length.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matvec_into(a: &Matrix, v: &[f64], out: &mut Vec<f64>) {
    assert_eq!(a.cols(), v.len(), "matvec dimension mismatch");
    let (m, k) = a.shape();
    let data = a.as_slice();
    out.clear();
    out.reserve(m);
    let m_full = m - m % MR;
    for i in (0..m_full).step_by(MR) {
        let r0 = &data[i * k..(i + 1) * k];
        let r1 = &data[(i + 1) * k..(i + 2) * k];
        let r2 = &data[(i + 2) * k..(i + 3) * k];
        let r3 = &data[(i + 3) * k..(i + 4) * k];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for (j, &vj) in v.iter().enumerate() {
            s0 += r0[j] * vj;
            s1 += r1[j] * vj;
            s2 += r2[j] * vj;
            s3 += r3[j] * vj;
        }
        out.extend_from_slice(&[s0, s1, s2, s3]);
    }
    for i in m_full..m {
        out.push(dot(&data[i * k..(i + 1) * k], v));
    }
}

/// `Aᵀ·v` into a caller-reused vector, without materializing the
/// transpose. Four input rows are folded per pass; the adds into each
/// output element stay in row order (`((o + t₀) + t₁) + …`), matching the
/// naive row-at-a-time loop. No fresh allocation at steady state.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn transpose_matvec_into(a: &Matrix, v: &[f64], out: &mut Vec<f64>) {
    assert_eq!(a.rows(), v.len(), "transpose_matvec dimension mismatch");
    let (m, n) = a.shape();
    let data = a.as_slice();
    out.clear();
    out.resize(n, 0.0);
    let m_full = m - m % MR;
    for i in (0..m_full).step_by(MR) {
        let (v0, v1, v2, v3) = (v[i], v[i + 1], v[i + 2], v[i + 3]);
        let r0 = &data[i * n..(i + 1) * n];
        let r1 = &data[(i + 1) * n..(i + 2) * n];
        let r2 = &data[(i + 2) * n..(i + 3) * n];
        let r3 = &data[(i + 3) * n..(i + 4) * n];
        for (j, o) in out.iter_mut().enumerate() {
            let mut acc = *o;
            acc += v0 * r0[j];
            acc += v1 * r1[j];
            acc += v2 * r2[j];
            acc += v3 * r3[j];
            *o = acc;
        }
    }
    for i in m_full..m {
        let vi = v[i];
        let row = &data[i * n..(i + 1) * n];
        for (o, &r) in out.iter_mut().zip(row) {
            *o += vi * r;
        }
    }
}

/// Plain ordered dot product — the shared inner product of the lasso
/// coordinate-descent solver and the `matvec` remainder path.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// `y[i] += alpha * x[i]` — the residual-update primitive of coordinate
/// descent.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

// ---------------------------------------------------------------------------
// Sanitization + batched pairwise distances
// ---------------------------------------------------------------------------

/// The single non-finite rule shared by every distance consumer: NaN and
/// ±∞ features count as zero. kNN and LOF used to carry hand-rolled
/// copies of this rule inside their per-pair loops; both now sanitize
/// **once** through [`sanitize_rows`] so they can never drift apart.
#[inline]
pub fn sanitize(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Copy `rows` into a contiguous row-major matrix, zeroing non-finite
/// features. Empty input yields a `0 × 0` matrix.
///
/// # Panics
/// Panics if the rows have inconsistent lengths.
pub fn sanitize_rows<R: AsRef<[f64]>>(rows: &[R]) -> Matrix {
    if rows.is_empty() {
        return Matrix::zeros(0, 0);
    }
    let dims = rows[0].as_ref().len();
    let mut data = Vec::with_capacity(rows.len() * dims);
    for r in rows {
        let r = r.as_ref();
        assert_eq!(r.len(), dims, "sanitize_rows: ragged rows");
        data.extend(r.iter().map(|&x| sanitize(x)));
    }
    Matrix::from_vec(rows.len(), dims, data)
}

/// Squared L2 norm of every row.
pub fn row_sq_norms(m: &Matrix) -> Vec<f64> {
    m.iter_rows().map(|r| dot(r, r)).collect()
}

/// A fitted reference set for batched pairwise squared distances:
/// non-finite features sanitized once into a contiguous row-major matrix
/// at fit time, row norms precomputed, and every query batch evaluated
/// as ‖q‖² + ‖r‖² − 2·q·r through the GEMM kernel.
#[derive(Debug, Clone)]
pub struct DistanceKernel {
    refs: Matrix,
    /// `refs.transpose()`, materialized once at fit time so every query
    /// batch runs the `j`-contiguous `A·B` kernel without a per-call
    /// transpose.
    refs_t: Matrix,
    norms: Vec<f64>,
}

impl DistanceKernel {
    /// Sanitize and pack the reference rows, precomputing their norms
    /// and transpose.
    pub fn fit<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        let refs = sanitize_rows(rows);
        let refs_t = refs.transpose();
        let norms = row_sq_norms(&refs);
        Self { refs, refs_t, norms }
    }

    /// Number of reference rows.
    pub fn len(&self) -> usize {
        self.refs.rows()
    }

    /// True when no references are stored.
    pub fn is_empty(&self) -> bool {
        self.refs.rows() == 0
    }

    /// Feature dimensionality of the reference rows.
    pub fn dims(&self) -> usize {
        self.refs.cols()
    }

    /// The sanitized reference row `i`.
    pub fn reference(&self, i: usize) -> &[f64] {
        self.refs.row(i)
    }

    /// Serialize into `w`. Only the reference matrix is written: the
    /// transpose and row norms are pure functions of it and are
    /// recomputed on decode (same arithmetic as fit, so the restored
    /// kernel's distances are bitwise identical).
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        w.put_matrix(&self.refs);
    }

    /// Decode a kernel written by [`DistanceKernel::encode`].
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> Result<Self, crate::codec::CodecError> {
        // References were sanitized at the original fit; re-deriving the
        // transpose and norms from the decoded matrix replays exactly
        // what `fit` computed from the sanitized rows.
        let refs = r.get_matrix()?;
        let refs_t = refs.transpose();
        let norms = row_sq_norms(&refs);
        Ok(Self { refs, refs_t, norms })
    }

    /// Batched squared distances: row `i` of the result holds the
    /// squared distance from `queries[i]` to every reference. Queries
    /// are sanitized with the same rule as the references; results are
    /// clamped at zero (Gram-trick cancellation can round slightly
    /// negative for near-coincident points).
    ///
    /// # Panics
    /// Panics if the query dimensionality differs from the references'.
    pub fn sq_distances<R: AsRef<[f64]>>(&self, queries: &[R]) -> Matrix {
        crate::obs::counter("kernel.dist_batch", 1);
        let q = sanitize_rows(queries);
        if q.rows() == 0 {
            return Matrix::zeros(0, self.len());
        }
        assert_eq!(
            q.cols(),
            self.dims(),
            "distance dimension mismatch: query dims {} vs reference dims {}",
            q.cols(),
            self.dims()
        );
        let qnorms = row_sq_norms(&q);
        self.gram_to_distances(&q, &qnorms)
    }

    /// Squared distances from one query to every reference, handed to
    /// `f` as a mutable row it may reorder in place (kNN/LOF select on
    /// it). Bitwise equal to the query's row of
    /// [`DistanceKernel::sq_distances`]: the Gram lane `j` is
    /// [`transpose_matvec_into`] over the stored `refs_t`, a sum in
    /// ascending `k` starting at `0.0` with the query operand on the left
    /// — exactly the products and the order each GEMM output element
    /// accumulates — followed by the same clamped `‖q‖² + ‖r‖² − 2g`
    /// sweep. The sanitized query and the row live in thread-local
    /// scratch (like the GEMM's packed panel), so a warmed call makes no
    /// allocation and the scratch scales with worker threads, not with
    /// fitted kernels.
    ///
    /// # Panics
    /// Panics if the query dimensionality differs from the references'.
    pub fn with_sq_distances_to<T>(&self, query: &[f64], f: impl FnOnce(&mut [f64]) -> T) -> T {
        assert_eq!(
            query.len(),
            self.dims(),
            "distance dimension mismatch: query dims {} vs reference dims {}",
            query.len(),
            self.dims()
        );
        thread_local! {
            static ONE_QUERY: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        // Taken out for the call, so a nested call finds empty buffers
        // instead of a held borrow.
        let (mut q, mut row) = ONE_QUERY.take();
        q.clear();
        q.extend(query.iter().map(|&x| sanitize(x)));
        let qn = dot(&q, &q);
        transpose_matvec_into(&self.refs_t, &q, &mut row);
        for (g, &rn) in row.iter_mut().zip(&self.norms) {
            *g = (qn + rn - 2.0 * *g).max(0.0);
        }
        let out = f(&mut row);
        ONE_QUERY.set((q, row));
        out
    }

    /// All-pairs squared distances of the reference set against itself
    /// (`len × len`), used by LOF fitting.
    pub fn self_sq_distances(&self) -> Matrix {
        crate::obs::counter("kernel.dist_batch", 1);
        self.gram_to_distances(&self.refs, &self.norms)
    }

    /// Shared Gram-trick core: one **serial** GEMM straight into the
    /// output buffer (distance consumers parallelize over query chunks
    /// themselves, so the row-block dispatch's slab join would only add
    /// a copy), then an in-place `‖q‖² + ‖r‖² − 2·q·r` sweep.
    fn gram_to_distances(&self, q: &Matrix, qnorms: &[f64]) -> Matrix {
        let (m, d) = q.shape();
        let n = self.len();
        let mut out = vec![0.0; m * n];
        gemm_serial::<{ gemm::AB }>(
            m,
            n,
            d,
            q.as_slice(),
            d,
            self.refs_t.as_slice(),
            n,
            &mut out,
            n.max(1),
        );
        for (i, &qn) in qnorms.iter().enumerate() {
            let row = &mut out[i * n..(i + 1) * n];
            for (g, &rn) in row.iter_mut().zip(&self.norms) {
                *g = (qn + rn - 2.0 * *g).max(0.0);
            }
        }
        Matrix::from_vec(m, n, out)
    }

    /// Scalar reference path: squared distances from one query to every
    /// reference via the retained per-pair loop. Used by the regression
    /// tests.
    pub fn naive_sq_distances_to(&self, query: &[f64]) -> Vec<f64> {
        self.refs.iter_rows().map(|r| naive_sq_distance(query, r)).collect()
    }
}

/// Retained scalar reference: `Σ (sanitize(aᵢ) − sanitize(bᵢ))²` — the
/// exact per-pair loop `KnnDetector::distance2` and `lof::distance`
/// carried before the kernel layer (zip semantics truncate to the
/// shorter row, as before).
pub fn naive_sq_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let x = sanitize(x);
            let y = sanitize(y);
            (x - y) * (x - y)
        })
        .sum()
}

// ---------------------------------------------------------------------------
// Retained naive GEMM references
// ---------------------------------------------------------------------------

/// The pre-kernel `Matrix::matmul` (`i-k-j` loop with the `a == 0.0`
/// skip), retained verbatim as the regression/bench reference.
pub fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul dimension mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, kdim) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = &a.as_slice()[i * kdim..(i + 1) * kdim];
        let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b.as_slice()[k * n..(k + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Naive `A·Bᵀ` via explicit transpose + [`naive_matmul`].
pub fn naive_matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
    naive_matmul(a, &naive_transpose(b))
}

/// Naive `Aᵀ·B` via explicit transpose + [`naive_matmul`].
pub fn naive_transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    naive_matmul(&naive_transpose(a), b)
}

/// The pre-kernel strided double-loop transpose, retained as the
/// regression/bench reference for the blocked `Matrix::transpose`.
pub fn naive_transpose(a: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    let mut out = Matrix::zeros(n, m);
    for i in 0..m {
        for j in 0..n {
            out.as_mut_slice()[j * m + i] = a.as_slice()[i * n + j];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let v = (i as u64).wrapping_mul(31).wrapping_add(j as u64).wrapping_mul(seed);
            ((v % 1000) as f64 - 500.0) * 0.01
        })
    }

    #[test]
    fn matmul_matches_naive_bitwise_on_finite_data() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (4, 4, 4), (17, 23, 9), (64, 64, 64), (5, 1, 5)] {
            let a = mat(m, k, 3);
            let b = mat(k, n, 7);
            let fast = matmul(&a, &b);
            let slow = naive_matmul(&a, &b);
            assert_eq!(fast.shape(), slow.shape());
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let a = mat(13, 21, 5);
        let b = mat(11, 21, 9);
        let fast = matmul_transpose(&a, &b);
        let slow = naive_matmul_transpose(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = mat(21, 13, 5);
        let b = mat(21, 11, 9);
        let fast = transpose_matmul(&a, &b);
        let slow = naive_transpose_matmul(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(matmul(&a, &b).shape(), (0, 3));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let out = matmul(&a, &b);
        assert_eq!(out.shape(), (3, 2));
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn matvec_kernels_match_methods() {
        let a = mat(11, 7, 3);
        let v: Vec<f64> = (0..7).map(|i| (i as f64 * 0.3).sin()).collect();
        let w: Vec<f64> = (0..11).map(|i| (i as f64 * 0.7).cos()).collect();
        let mv = matvec(&a, &v);
        let tv = transpose_matvec(&a, &w);
        let mv_ref: Vec<f64> = a.iter_rows().map(|r| dot(r, &v)).collect();
        assert_eq!(mv, mv_ref);
        let tref = naive_transpose(&a);
        let tv_ref: Vec<f64> = tref.iter_rows().map(|r| dot(r, &w)).collect();
        for (x, y) in tv.iter().zip(&tv_ref) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn sanitize_rows_zeroes_non_finite() {
        let rows = [vec![1.0, f64::NAN], vec![f64::INFINITY, -2.0]];
        let m = sanitize_rows(&rows);
        assert_eq!(m.as_slice(), &[1.0, 0.0, 0.0, -2.0]);
        assert_eq!(sanitize_rows::<Vec<f64>>(&[]).shape(), (0, 0));
    }

    #[test]
    fn distance_kernel_matches_scalar_reference() {
        let refs: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..5).map(|j| ((i * 5 + j) as f64 * 0.37).sin() * 3.0).collect())
            .collect();
        let queries: Vec<Vec<f64>> =
            (0..7).map(|i| (0..5).map(|j| ((i + j) as f64 * 0.91).cos() * 2.0).collect()).collect();
        let dk = DistanceKernel::fit(&refs);
        let batched = dk.sq_distances(&queries);
        for (i, q) in queries.iter().enumerate() {
            let scalar = dk.naive_sq_distances_to(q);
            for (j, &s) in scalar.iter().enumerate() {
                let b = batched[(i, j)];
                let tol = 1e-9 * s.abs().max(1.0);
                assert!((b - s).abs() <= tol, "({i},{j}): batched {b} vs scalar {s}");
            }
        }
    }

    #[test]
    fn distance_kernel_sanitizes_like_the_scalar_path() {
        let refs = [vec![f64::INFINITY, 1.0], vec![f64::NEG_INFINITY, 2.0], vec![0.0, 3.0]];
        let queries = [vec![f64::NAN, 1.5], vec![f64::INFINITY, 2.5]];
        let dk = DistanceKernel::fit(&refs);
        let batched = dk.sq_distances(&queries);
        assert!(batched.as_slice().iter().all(|d| d.is_finite() && *d >= 0.0));
        for (i, q) in queries.iter().enumerate() {
            for (j, &s) in dk.naive_sq_distances_to(q).iter().enumerate() {
                assert!((batched[(i, j)] - s).abs() <= 1e-9 * s.max(1.0));
            }
        }
    }

    #[test]
    fn one_query_distances_match_batch_rows_bitwise() {
        // 300 wide: the batch side sums over two `k`-panels.
        for (n, d) in [(1, 1), (9, 5), (37, 16), (5, 300)] {
            let refs: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..d).map(|j| ((i * d + j) as f64 * 0.37).sin() * 3.0).collect())
                .collect();
            let mut queries: Vec<Vec<f64>> = (0..11)
                .map(|i| (0..d).map(|j| ((i + j) as f64 * 0.91).cos() * 2.0).collect())
                .collect();
            queries[3][0] = f64::NAN;
            queries[5][d - 1] = f64::NEG_INFINITY;
            let dk = DistanceKernel::fit(&refs);
            let batched = dk.sq_distances(&queries);
            for (i, q) in queries.iter().enumerate() {
                let one = dk.with_sq_distances_to(q, |row| row.to_vec());
                let want: Vec<u64> = batched.row(i).iter().map(|x| x.to_bits()).collect();
                assert_eq!(
                    one.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want,
                    "{n}x{d} q{i}"
                );
            }
        }
    }

    #[test]
    fn self_distances_have_zero_diagonal() {
        let refs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, (i as f64 * 0.5).sin()]).collect();
        let dk = DistanceKernel::fit(&refs);
        let d = dk.self_sq_distances();
        for i in 0..6 {
            assert!(d[(i, i)].abs() < 1e-12, "diagonal ({i}) = {}", d[(i, i)]);
        }
    }

    #[test]
    fn dot_and_axpy() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        assert_eq!(dot(&x, &y), 10.0 + 40.0 + 90.0);
        axpy(-2.0, &x, &mut y);
        assert_eq!(y, [8.0, 16.0, 24.0]);
    }
}
