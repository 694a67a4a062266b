//! Runtime-dispatched SIMD kernels for the modular hot loops.
//!
//! PR 5 made the HE pipeline NTT-resident, so essentially all hot-path
//! time is pointwise `u64` arithmetic over RNS limbs: NTT butterflies
//! (Shoup multiplication), pointwise multiply (Barrett), ciphertext
//! add/sub, key-switch digit extraction/accumulation, base conversion
//! and the encode/decode permutations. This module hand-rolls AVX2 and
//! AVX-512 versions of exactly those loops with `std::arch`, behind a
//! scalar fallback, under one invariant:
//!
//! > **Bit identity.** For every input, every vector kernel produces the
//! > same bytes as the scalar kernel — the same guarantee the PR 4
//! > thread pool gives for thread counts. SIMD width is a pure
//! > performance knob; wire bytes and logits never depend on it.
//!
//! The invariant holds by construction, not by rounding luck: every
//! kernel ends in a *canonical* residue in `[0, p)`.
//!
//! * add/sub/neg and the butterflies use the identical `+p` / conditional-
//!   subtract branch structure as the scalar code, just 4 or 8 lanes wide.
//! * Shoup multiplication uses the identical `q = mulhi(x, w_shoup)`;
//!   `r = x·w − q·p (mod 2^64)`; one conditional subtract.
//! * Pointwise multiply differs in *algorithm* (lane-wise Barrett with the
//!   cached [`Modulus::barrett_mu`] vs the scalar `u128 %`) but both fully
//!   reduce, and the canonical residue of `a·b mod p` is unique.
//! * The AVX-512 tier has two interchangeable 64×64→128 product
//!   implementations — `_mm512_mul_epu32` partial products, or an IFMA
//!   `vpmadd52{lo,hi}` 52-bit-limb synthesis picked at dispatch when the
//!   CPU reports `avx512ifma` — and both compute the *exact* integer
//!   product, so the choice is invisible in the output.
//!
//! # Tiers and dispatch
//!
//! | tier     | lanes | requires                          |
//! |----------|-------|-----------------------------------|
//! | `scalar` | 1     | nothing (reference semantics)     |
//! | `avx2`   | 4×64  | `avx2`                            |
//! | `avx512` | 8×64  | `avx512f` + `avx512dq` (IFMA sub-path also `avx512ifma`) |
//!
//! Dispatch is runtime: [`level`] re-reads the `PRIMER_SIMD` environment
//! variable on every call (the same idiom the thread pool uses for
//! `PRIMER_THREADS`, so tests can flip it in-process). The variable is a
//! [`SimdPolicy`]: `scalar|avx2|avx512|auto` (plus the legacy `0`/`off`
//! for scalar and `1`/`on` for auto), and a typo is a **typed error** at
//! config assembly — `SystemConfig` validates it once, so
//! `PRIMER_SIMD=axv512` fails Setup instead of silently running some
//! other tier. A *valid* request that exceeds what
//! the CPU offers degrades to the best supported tier (never UB):
//! `avx512` on an AVX2-only host runs the AVX2 kernels, `avx2` on a
//! non-x86 host runs scalar. Every entry point re-checks CPU support
//! before taking a vector arm, so even a forged [`SimdLevel`] can never
//! execute unsupported instructions. Non-x86_64 targets compile the
//! scalar path only.
//!
//! Beyond the PR 6 slice kernels, this module carries the key-switch and
//! conversion kernels PR 10 vectorized: [`extract_digit`] (decomposition
//! shift/mask), [`ks_accumulate`] (fused dual-accumulator multiply-add —
//! one pass per digit covers both ciphertext parts across all RNS
//! limbs), [`gather`] (NTT-point permutations and encode/decode slot
//! maps), [`lift_centered`] (centered plaintext lift) and
//! [`scale_combine`] (the `round(q·m/t)` base-conversion combine).

use crate::modulus::Modulus;

/// Lane width selected for a kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops — the reference semantics.
    Scalar,
    /// 4×64-bit lanes via AVX2 (`x86_64` only; falls back to scalar on
    /// other architectures or CPUs without the feature).
    Avx2,
    /// 8×64-bit lanes via AVX-512F/DQ, with an IFMA `vpmadd52` product
    /// sub-path when the CPU additionally reports `avx512ifma`.
    Avx512,
}

impl SimdLevel {
    /// Short human-readable name (bench metadata, logs).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// The parsed `PRIMER_SIMD` policy: what the operator *asked for*, before
/// CPU capability clamps it to a [`SimdLevel`].
///
/// Split into [`parse`](SimdPolicy::parse) and `from_env` so config
/// assembly can validate the variable once: unknown values are a hard
/// error surfaced as a typed `ConfigError`, because a typo silently
/// selecting a different tier would invalidate whatever experiment set
/// it. Unlike a layout, the tier is local to one process — every tier
/// is bit-identical, so the two parties may run different ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPolicy {
    /// Best tier the CPU supports (the default).
    Auto,
    /// Force the scalar reference kernels.
    Scalar,
    /// Cap at the AVX2 tier (scalar where AVX2 is unavailable).
    Avx2,
    /// Cap at the AVX-512 tier (degrades to AVX2, then scalar).
    Avx512,
}

impl SimdPolicy {
    /// Parses a `PRIMER_SIMD` value (case-insensitive, whitespace
    /// trimmed). `0|off|scalar` force scalar and `1|on|auto` mean
    /// auto-detect — the first two spellings of each are the PR 6 legacy
    /// forms and keep old scripts working.
    ///
    /// # Errors
    ///
    /// The offending value, verbatim, on anything but
    /// `scalar|avx2|avx512|auto` / `0|off` / `1|on`.
    pub fn parse(value: &str) -> Result<SimdPolicy, String> {
        let v = value.trim();
        if v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("scalar") {
            Ok(SimdPolicy::Scalar)
        } else if v == "1" || v.eq_ignore_ascii_case("on") || v.eq_ignore_ascii_case("auto") {
            Ok(SimdPolicy::Auto)
        } else if v.eq_ignore_ascii_case("avx2") {
            Ok(SimdPolicy::Avx2)
        } else if v.eq_ignore_ascii_case("avx512") {
            Ok(SimdPolicy::Avx512)
        } else {
            Err(value.to_string())
        }
    }

    /// Reads `PRIMER_SIMD` (re-evaluated per call; see the module docs).
    /// Unset means [`SimdPolicy::Auto`].
    ///
    /// # Errors
    ///
    /// The unrecognised value (see [`SimdPolicy::parse`]).
    pub fn from_env() -> Result<SimdPolicy, String> {
        match std::env::var("PRIMER_SIMD") {
            Err(_) => Ok(SimdPolicy::Auto),
            Ok(v) => Self::parse(&v),
        }
    }

    /// Clamps the requested policy to what the running CPU supports:
    /// degrade (512 → 2 → scalar), never UB.
    pub fn level(self) -> SimdLevel {
        match self {
            SimdPolicy::Scalar => SimdLevel::Scalar,
            SimdPolicy::Auto | SimdPolicy::Avx512 if avx512_available() => SimdLevel::Avx512,
            SimdPolicy::Auto | SimdPolicy::Avx512 | SimdPolicy::Avx2 if avx2_available() => {
                SimdLevel::Avx2
            }
            _ => SimdLevel::Scalar,
        }
    }
}

/// True when the running CPU can execute the AVX2 kernels.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the running CPU can execute the AVX-512 kernels
/// (`avx512f` for the lane ops **and** `avx512dq` for `vpmullq`).
#[inline]
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the AVX-512 tier will take the IFMA (`vpmadd52`) product
/// sub-path. Purely informational outside this module — both product
/// implementations are exact, so IFMA changes speed, never bytes.
#[inline]
pub fn ifma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx512_available() && std::arch::is_x86_feature_detected!("avx512ifma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Selects the lane width for this call: `PRIMER_SIMD` policy (re-read
/// from the environment **every call**, never cached) clamped to CPU
/// support.
///
/// # Panics
///
/// Panics on an unparseable `PRIMER_SIMD`. This is the backstop for
/// callers that bypassed config assembly — `primer_core::SystemConfig`
/// validates the variable with [`SimdPolicy::from_env`] and rejects a
/// typo as a typed `ConfigError` before any session reaches this point.
#[inline]
pub fn level() -> SimdLevel {
    SimdPolicy::from_env()
        .unwrap_or_else(|v| {
            panic!("PRIMER_SIMD must be scalar|avx2|avx512|auto (or 0|off|1|on), got {v:?}")
        })
        .level()
}

/// One RNS limb of a key-switch digit accumulation: the borrowed rows
/// [`ks_accumulate`] walks in a single fused pass.
pub struct KsLimb<'a> {
    /// The limb's prime.
    pub m: Modulus,
    /// Accumulator row of the output `c0` part.
    pub acc0: &'a mut [u64],
    /// Accumulator row of the output `c1` part.
    pub acc1: &'a mut [u64],
    /// The decomposed digit row (NTT form) — loaded once, used twice.
    pub x: &'a [u64],
    /// Key-switch key row multiplying into `acc0`.
    pub b: &'a [u64],
    /// Key-switch key row multiplying into `acc1`.
    pub a: &'a [u64],
}

/// Fused key-switch accumulation over **all** RNS limbs of one digit:
/// per limb, `acc0 += x ⊙ b` and `acc1 += x ⊙ a` in a single interleaved
/// pass — each digit chunk is loaded into lanes once and multiplied
/// against both key parts while it sits in registers, instead of the two
/// separate `add_mul` sweeps (and three extra digit loads) the pre-PR 10
/// code made per limb.
///
/// Bit-identical to the two-sweep formulation: the per-element operations
/// and their order within each element are unchanged.
///
/// # Panics
///
/// Panics if any limb's slice lengths disagree.
pub fn ks_accumulate(limbs: &mut [KsLimb<'_>], lvl: SimdLevel) {
    for l in limbs.iter_mut() {
        add_mul_mod2(l.m, l.acc0, l.acc1, l.x, l.b, l.a, lvl);
    }
}

/// `a[i] = a[i] + b[i] mod p` lane-wise.
///
/// # Panics
///
/// Panics if the slices differ in length (all kernels in this module).
pub fn add_mod(m: Modulus, a: &mut [u64], b: &[u64], lvl: SimdLevel) {
    assert_eq!(a.len(), b.len(), "simd kernel length mismatch");
    match lvl {
        SimdLevel::Avx512 if use_avx512(a.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support.
            unsafe {
                avx512::add_mod(m, a, b)
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(a.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support.
            unsafe {
                avx2::add_mod(m, a, b)
            }
        }
        _ => scalar::add_mod(m, a, b),
    }
}

/// `a[i] = a[i] - b[i] mod p` lane-wise.
pub fn sub_mod(m: Modulus, a: &mut [u64], b: &[u64], lvl: SimdLevel) {
    assert_eq!(a.len(), b.len(), "simd kernel length mismatch");
    match lvl {
        SimdLevel::Avx512 if use_avx512(a.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support.
            unsafe {
                avx512::sub_mod(m, a, b)
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(a.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support.
            unsafe {
                avx2::sub_mod(m, a, b)
            }
        }
        _ => scalar::sub_mod(m, a, b),
    }
}

/// `a[i] = -a[i] mod p` lane-wise.
pub fn neg_mod(m: Modulus, a: &mut [u64], lvl: SimdLevel) {
    match lvl {
        SimdLevel::Avx512 if use_avx512(a.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support.
            unsafe {
                avx512::neg_mod(m, a)
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(a.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support.
            unsafe {
                avx2::neg_mod(m, a)
            }
        }
        _ => scalar::neg_mod(m, a),
    }
}

/// `a[i] = a[i] * b[i] mod p` lane-wise (Barrett under AVX2/AVX-512).
pub fn mul_mod(m: Modulus, a: &mut [u64], b: &[u64], lvl: SimdLevel) {
    assert_eq!(a.len(), b.len(), "simd kernel length mismatch");
    match lvl {
        SimdLevel::Avx512 if use_avx512(a.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support.
            unsafe {
                if ifma_available() {
                    avx512::ifma::mul_mod(m, a, b)
                } else {
                    avx512::dq::mul_mod(m, a, b)
                }
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(a.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support.
            unsafe {
                avx2::mul_mod(m, a, b)
            }
        }
        _ => scalar::mul_mod(m, a, b),
    }
}

/// `acc[i] = acc[i] + a[i] * b[i] mod p` lane-wise.
pub fn add_mul_mod(m: Modulus, acc: &mut [u64], a: &[u64], b: &[u64], lvl: SimdLevel) {
    assert_eq!(acc.len(), a.len(), "simd kernel length mismatch");
    assert_eq!(acc.len(), b.len(), "simd kernel length mismatch");
    match lvl {
        SimdLevel::Avx512 if use_avx512(acc.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support.
            unsafe {
                if ifma_available() {
                    avx512::ifma::add_mul_mod(m, acc, a, b)
                } else {
                    avx512::dq::add_mul_mod(m, acc, a, b)
                }
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(acc.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support.
            unsafe {
                avx2::add_mul_mod(m, acc, a, b)
            }
        }
        _ => scalar::add_mul_mod(m, acc, a, b),
    }
}

/// Fused dual accumulate: `acc0[i] += x[i] * b[i]` and
/// `acc1[i] += x[i] * a[i]` (mod p) in one pass — `x` is loaded once per
/// chunk. Element-wise identical to two [`add_mul_mod`] calls.
pub fn add_mul_mod2(
    m: Modulus,
    acc0: &mut [u64],
    acc1: &mut [u64],
    x: &[u64],
    b: &[u64],
    a: &[u64],
    lvl: SimdLevel,
) {
    assert_eq!(acc0.len(), acc1.len(), "simd kernel length mismatch");
    assert_eq!(acc0.len(), x.len(), "simd kernel length mismatch");
    assert_eq!(acc0.len(), b.len(), "simd kernel length mismatch");
    assert_eq!(acc0.len(), a.len(), "simd kernel length mismatch");
    match lvl {
        SimdLevel::Avx512 if use_avx512(acc0.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support.
            unsafe {
                if ifma_available() {
                    avx512::ifma::add_mul_mod2(m, acc0, acc1, x, b, a)
                } else {
                    avx512::dq::add_mul_mod2(m, acc0, acc1, x, b, a)
                }
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(acc0.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support.
            unsafe {
                avx2::add_mul_mod2(m, acc0, acc1, x, b, a)
            }
        }
        _ => scalar::add_mul_mod2(m, acc0, acc1, x, b, a),
    }
}

/// One level of Cooley–Tukey forward butterflies with a shared twiddle:
/// `(lo[i], hi[i]) = (lo[i] + w·hi[i], lo[i] − w·hi[i]) mod p`.
pub fn forward_butterflies(p: u64, w: u64, ws: u64, lo: &mut [u64], hi: &mut [u64], lvl: SimdLevel) {
    assert_eq!(lo.len(), hi.len(), "simd kernel length mismatch");
    match lvl {
        SimdLevel::Avx512 if use_avx512(lo.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support.
            unsafe {
                if ifma_available() {
                    avx512::ifma::forward_butterflies(p, w, ws, lo, hi)
                } else {
                    avx512::dq::forward_butterflies(p, w, ws, lo, hi)
                }
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(lo.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support.
            unsafe {
                avx2::forward_butterflies(p, w, ws, lo, hi)
            }
        }
        _ => scalar::forward_butterflies(p, w, ws, lo, hi),
    }
}

/// One level of Gentleman–Sande inverse butterflies with a shared twiddle:
/// `(lo[i], hi[i]) = (lo[i] + hi[i], w·(lo[i] − hi[i])) mod p`.
pub fn inverse_butterflies(p: u64, w: u64, ws: u64, lo: &mut [u64], hi: &mut [u64], lvl: SimdLevel) {
    assert_eq!(lo.len(), hi.len(), "simd kernel length mismatch");
    match lvl {
        SimdLevel::Avx512 if use_avx512(lo.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support.
            unsafe {
                if ifma_available() {
                    avx512::ifma::inverse_butterflies(p, w, ws, lo, hi)
                } else {
                    avx512::dq::inverse_butterflies(p, w, ws, lo, hi)
                }
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(lo.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support.
            unsafe {
                avx2::inverse_butterflies(p, w, ws, lo, hi)
            }
        }
        _ => scalar::inverse_butterflies(p, w, ws, lo, hi),
    }
}

/// `a[i] = a[i] * w mod p` with a Shoup-precomputed constant (the inverse
/// NTT's final `n^{-1}` scaling).
pub fn mul_shoup_slice(p: u64, w: u64, ws: u64, a: &mut [u64], lvl: SimdLevel) {
    match lvl {
        SimdLevel::Avx512 if use_avx512(a.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support.
            unsafe {
                if ifma_available() {
                    avx512::ifma::mul_shoup_slice(p, w, ws, a)
                } else {
                    avx512::dq::mul_shoup_slice(p, w, ws, a)
                }
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(a.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support.
            unsafe {
                avx2::mul_shoup_slice(p, w, ws, a)
            }
        }
        _ => scalar::mul_shoup_slice(p, w, ws, a),
    }
}

/// Digit extraction for key-switch decomposition:
/// `dst[i] = (src[i] >> shift) & mask`.
///
/// # Panics
///
/// Panics if `shift >= 64` or the slices differ in length.
pub fn extract_digit(src: &[u64], shift: u32, mask: u64, dst: &mut [u64], lvl: SimdLevel) {
    assert!(shift < 64, "digit shift out of range");
    assert_eq!(src.len(), dst.len(), "simd kernel length mismatch");
    match lvl {
        SimdLevel::Avx512 if use_avx512(src.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support.
            unsafe {
                avx512::extract_digit(src, shift, mask, dst)
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(src.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support.
            unsafe {
                avx2::extract_digit(src, shift, mask, dst)
            }
        }
        _ => scalar::extract_digit(src, shift, mask, dst),
    }
}

/// Permutation gather: `dst[i] = src[idx[i]]` — the NTT-domain Galois
/// automorphism and the encoder's slot↔position maps.
///
/// # Panics
///
/// Panics if `idx` and `dst` differ in length or any index is out of
/// bounds for `src` (checked up front so the vector gathers are safe).
pub fn gather(src: &[u64], idx: &[u32], dst: &mut [u64], lvl: SimdLevel) {
    assert_eq!(idx.len(), dst.len(), "simd kernel length mismatch");
    let max = idx.iter().copied().max().unwrap_or(0);
    assert!(idx.is_empty() || (max as usize) < src.len(), "gather index out of bounds");
    match lvl {
        SimdLevel::Avx512 if use_avx512(idx.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support; indices bounds-
            // checked above.
            unsafe {
                avx512::gather(src, idx, dst)
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(idx.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support; indices bounds-
            // checked above.
            unsafe {
                avx2::gather(src, idx, dst)
            }
        }
        _ => scalar::gather(src, idx, dst),
    }
}

/// Centered plaintext lift into one RNS limb:
/// `dst[i] = if src[i] > t/2 { p − t + src[i] } else { src[i] }`.
/// Bit-identical to `Modulus::from_signed(t.to_signed(c))` whenever
/// `t < p` and `src[i] < t` (the dispatcher asserts the former; callers
/// guarantee the latter — plaintexts are reduced mod `t`).
///
/// # Panics
///
/// Panics if `t >= p` or the slices differ in length.
pub fn lift_centered(p: u64, t: u64, src: &[u64], dst: &mut [u64], lvl: SimdLevel) {
    assert!(t < p, "centered lift requires t < p");
    assert_eq!(src.len(), dst.len(), "simd kernel length mismatch");
    match lvl {
        SimdLevel::Avx512 if use_avx512(src.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support.
            unsafe {
                avx512::lift_centered(p, t, src, dst)
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(src.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support.
            unsafe {
                avx2::lift_centered(p, t, src, dst)
            }
        }
        _ => scalar::lift_centered(p, t, src, dst),
    }
}

/// Base-conversion combine for `round(q·m/t)` scaling into one RNS limb:
/// `out[i] = (Δ_p · plain[i] + rt[i]) mod p`, with `Δ_p = Δ mod p` fed as
/// a Shoup pair `(delta, delta_shoup)` and `rt[i] < p` the per-coefficient
/// rounding term (computed once, scalar, by the caller). Canonical-residue
/// identical to reducing the full `u128` product: both are the unique
/// value of `(Δ·m + rt) mod p`.
#[allow(clippy::too_many_arguments)]
pub fn scale_combine(
    m: Modulus,
    delta: u64,
    delta_shoup: u64,
    plain: &[u64],
    rt: &[u64],
    out: &mut [u64],
    lvl: SimdLevel,
) {
    assert_eq!(plain.len(), rt.len(), "simd kernel length mismatch");
    assert_eq!(plain.len(), out.len(), "simd kernel length mismatch");
    match lvl {
        SimdLevel::Avx512 if use_avx512(plain.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx512 verified CPU support.
            unsafe {
                if ifma_available() {
                    avx512::ifma::scale_combine(m, delta, delta_shoup, plain, rt, out)
                } else {
                    avx512::dq::scale_combine(m, delta, delta_shoup, plain, rt, out)
                }
            }
        }
        SimdLevel::Avx512 | SimdLevel::Avx2 if use_avx2(plain.len()) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: use_avx2 verified CPU support.
            unsafe {
                avx2::scale_combine(m, delta, delta_shoup, plain, rt, out)
            }
        }
        _ => scalar::scale_combine(m, delta, delta_shoup, plain, rt, out),
    }
}

/// Tiny slices are all tail; skip the `target_feature` call and (on every
/// entry) re-verify CPU support so a forged [`SimdLevel::Avx2`] on a
/// non-AVX2 CPU degrades to scalar instead of executing illegal
/// instructions.
#[inline]
fn use_avx2(len: usize) -> bool {
    len >= 4 && avx2_available()
}

/// AVX-512 twin of [`use_avx2`]: 8 lanes minimum, CPU support re-checked
/// on every entry.
#[inline]
fn use_avx512(len: usize) -> bool {
    len >= 8 && avx512_available()
}

/// Shoup modular multiplication: `x · w mod p` with `w_shoup` precomputed
/// as `floor(w · 2^64 / p)`. Requires `p < 2^63` and `w < p` (any `x`);
/// result is canonical.
#[inline]
pub fn mul_shoup(x: u64, w: u64, w_shoup: u64, p: u64) -> u64 {
    let q = ((x as u128 * w_shoup as u128) >> 64) as u64;
    let r = (x.wrapping_mul(w)).wrapping_sub(q.wrapping_mul(p));
    if r >= p {
        r - p
    } else {
        r
    }
}

/// The portable reference kernels. The AVX2 and AVX-512 kernels must
/// match these bit-for-bit (proptested in `tests/simd_bit_identity.rs`).
pub mod scalar {
    use super::{mul_shoup, Modulus};

    pub fn add_mod(m: Modulus, a: &mut [u64], b: &[u64]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = m.add(*x, y);
        }
    }

    pub fn sub_mod(m: Modulus, a: &mut [u64], b: &[u64]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = m.sub(*x, y);
        }
    }

    pub fn neg_mod(m: Modulus, a: &mut [u64]) {
        for x in a.iter_mut() {
            *x = m.neg(*x);
        }
    }

    pub fn mul_mod(m: Modulus, a: &mut [u64], b: &[u64]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = m.mul(*x, y);
        }
    }

    pub fn add_mul_mod(m: Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        for ((d, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *d = m.add(*d, m.mul(x, y));
        }
    }

    pub fn add_mul_mod2(
        m: Modulus,
        acc0: &mut [u64],
        acc1: &mut [u64],
        x: &[u64],
        b: &[u64],
        a: &[u64],
    ) {
        for ((((d0, d1), &xv), &bv), &av) in
            acc0.iter_mut().zip(acc1.iter_mut()).zip(x).zip(b).zip(a)
        {
            *d0 = m.add(*d0, m.mul(xv, bv));
            *d1 = m.add(*d1, m.mul(xv, av));
        }
    }

    pub fn forward_butterflies(p: u64, w: u64, ws: u64, lo: &mut [u64], hi: &mut [u64]) {
        for (u_ref, v_ref) in lo.iter_mut().zip(hi.iter_mut()) {
            let u = *u_ref;
            let v = mul_shoup(*v_ref, w, ws, p);
            let sum = u + v;
            *u_ref = if sum >= p { sum - p } else { sum };
            *v_ref = if u >= v { u - v } else { u + p - v };
        }
    }

    pub fn inverse_butterflies(p: u64, w: u64, ws: u64, lo: &mut [u64], hi: &mut [u64]) {
        for (u_ref, v_ref) in lo.iter_mut().zip(hi.iter_mut()) {
            let u = *u_ref;
            let v = *v_ref;
            let sum = u + v;
            *u_ref = if sum >= p { sum - p } else { sum };
            let diff = if u >= v { u - v } else { u + p - v };
            *v_ref = mul_shoup(diff, w, ws, p);
        }
    }

    pub fn mul_shoup_slice(p: u64, w: u64, ws: u64, a: &mut [u64]) {
        for x in a.iter_mut() {
            *x = mul_shoup(*x, w, ws, p);
        }
    }

    pub fn extract_digit(src: &[u64], shift: u32, mask: u64, dst: &mut [u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = (s >> shift) & mask;
        }
    }

    pub fn gather(src: &[u64], idx: &[u32], dst: &mut [u64]) {
        for (d, &i) in dst.iter_mut().zip(idx) {
            *d = src[i as usize];
        }
    }

    pub fn lift_centered(p: u64, t: u64, src: &[u64], dst: &mut [u64]) {
        let half = t / 2;
        let offset = p - t;
        for (d, &c) in dst.iter_mut().zip(src) {
            debug_assert!(c < t, "plaintext coefficient not reduced");
            *d = if c > half { offset + c } else { c };
        }
    }

    pub fn scale_combine(
        m: Modulus,
        delta: u64,
        delta_shoup: u64,
        plain: &[u64],
        rt: &[u64],
        out: &mut [u64],
    ) {
        let p = m.value();
        for ((o, &c), &r) in out.iter_mut().zip(plain).zip(rt) {
            *o = m.add(mul_shoup(c, delta, delta_shoup, p), r);
        }
    }
}

/// The AVX2 kernels: 4×64-bit lanes, `target_feature(enable = "avx2")`.
///
/// # Safety
///
/// Every function in this module must only be called on a CPU with AVX2
/// (the public dispatchers in the parent module enforce this). Lane math
/// notes:
///
/// * 64×64→128 multiplication is synthesised from four
///   `_mm256_mul_epu32` partial products plus a cross-term carry.
/// * Unsigned 64-bit compares go through a sign-bit flip and
///   `_mm256_cmpgt_epi64`.
/// * Barrett reduction uses per-modulus runtime shift counts
///   (`L−1`, `L+1` with `L = Modulus::bits()`, all within `[1, 63]`
///   because `2 ≤ p < 2^62`), fed via `_mm256_srl_epi64`/`_mm256_sll_epi64`.
/// * `gather` relies on the dispatcher's up-front index bounds check.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Modulus;
    use std::arch::x86_64::*;

    const LO32: i64 = 0xFFFF_FFFF;

    /// Full 64×64→128 lane product as (low 64, high 64) halves.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_lo_hi(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
        let lomask = _mm256_set1_epi64x(LO32);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let lh = _mm256_mul_epu32(a, b_hi);
        let hl = _mm256_mul_epu32(a_hi, b);
        let hh = _mm256_mul_epu32(a_hi, b_hi);
        // cross < 3·2^32, so its own carry lives in bits 32..34 and the
        // three-way add below cannot overflow a lane.
        let cross = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64::<32>(ll), _mm256_and_si256(lh, lomask)),
            _mm256_and_si256(hl, lomask),
        );
        let hi = _mm256_add_epi64(
            _mm256_add_epi64(hh, _mm256_srli_epi64::<32>(lh)),
            _mm256_add_epi64(_mm256_srli_epi64::<32>(hl), _mm256_srli_epi64::<32>(cross)),
        );
        let lo = _mm256_or_si256(_mm256_slli_epi64::<32>(cross), _mm256_and_si256(ll, lomask));
        (lo, hi)
    }

    /// Low 64 bits of the lane product (wrapping, matches `wrapping_mul`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_lo(a: __m256i, b: __m256i) -> __m256i {
        let ll = _mm256_mul_epu32(a, b);
        let lh = _mm256_mul_epu32(a, _mm256_srli_epi64::<32>(b));
        let hl = _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b);
        _mm256_add_epi64(ll, _mm256_slli_epi64::<32>(_mm256_add_epi64(lh, hl)))
    }

    /// Per-modulus lane constants shared by the kernels.
    struct Lanes {
        p: __m256i,
        /// `(p − 1) ^ SIGN` — the unsigned-compare threshold for `x ≥ p`.
        pm1s: __m256i,
        sign: __m256i,
    }

    impl Lanes {
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn new(p: u64) -> Self {
            let sign = _mm256_set1_epi64x(i64::MIN);
            Lanes {
                p: _mm256_set1_epi64x(p as i64),
                pm1s: _mm256_xor_si256(_mm256_set1_epi64x((p - 1) as i64), sign),
                sign,
            }
        }

        /// Conditional subtract: `x − p` where `x ≥ p` (unsigned), else `x`.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn csub(&self, x: __m256i) -> __m256i {
            let ge = _mm256_cmpgt_epi64(_mm256_xor_si256(x, self.sign), self.pm1s);
            _mm256_sub_epi64(x, _mm256_and_si256(self.p, ge))
        }

        /// Shoup multiply by a broadcast constant; canonical result.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn mul_shoup(&self, x: __m256i, w: __m256i, ws: __m256i) -> __m256i {
            let (_, q) = mul_lo_hi(x, ws);
            let r = _mm256_sub_epi64(mul_lo(x, w), mul_lo(q, self.p));
            self.csub(r)
        }
    }

    /// Barrett context: reduces a full 128-bit lane product to the
    /// canonical residue, bit-identical to the scalar `u128 %`.
    struct Barrett {
        lanes: Lanes,
        mu: __m256i,
        sh1: __m128i,
        sh1c: __m128i,
        sh2: __m128i,
        sh2c: __m128i,
    }

    impl Barrett {
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn new(m: Modulus) -> Self {
            let bits = m.bits() as i32;
            Barrett {
                lanes: Lanes::new(m.value()),
                mu: _mm256_set1_epi64x(m.barrett_mu() as i64),
                // q1 combines (lo >> (L−1)) | (hi << (64−(L−1))); q3 the
                // same with L+1. All four counts are in [1, 63].
                sh1: _mm_cvtsi32_si128(bits - 1),
                sh1c: _mm_cvtsi32_si128(64 - (bits - 1)),
                sh2: _mm_cvtsi32_si128(bits + 1),
                sh2c: _mm_cvtsi32_si128(64 - (bits + 1)),
            }
        }

        /// `a · b mod p`, fully reduced.
        ///
        /// With `L = bits(p)`: `q1 = floor(x / 2^(L−1))` fits 64 bits
        /// because `x < p² < 2^(2L)`; `q3 = floor(q1·mu / 2^(L+1))`
        /// satisfies `q3 ≤ floor(x/p) ≤ q3 + 2`, so the remainder after
        /// one low-64 subtraction sits in `[0, 3p)` (`3p < 2^64` since
        /// `p < 2^62`) and two conditional subtracts canonicalise it.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn mul_mod(&self, a: __m256i, b: __m256i) -> __m256i {
            let (xlo, xhi) = mul_lo_hi(a, b);
            let q1 = _mm256_or_si256(
                _mm256_srl_epi64(xlo, self.sh1),
                _mm256_sll_epi64(xhi, self.sh1c),
            );
            let (qlo, qhi) = mul_lo_hi(q1, self.mu);
            let q3 = _mm256_or_si256(
                _mm256_srl_epi64(qlo, self.sh2),
                _mm256_sll_epi64(qhi, self.sh2c),
            );
            let r = _mm256_sub_epi64(xlo, mul_lo(q3, self.lanes.p));
            self.lanes.csub(self.lanes.csub(r))
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(chunk: &[u64]) -> __m256i {
        _mm256_loadu_si256(chunk.as_ptr() as *const __m256i)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store(chunk: &mut [u64], v: __m256i) {
        _mm256_storeu_si256(chunk.as_mut_ptr() as *mut __m256i, v)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn add_mod(m: Modulus, a: &mut [u64], b: &[u64]) {
        let lanes = Lanes::new(m.value());
        let mut bs = b.chunks_exact(4);
        let mut av = a.chunks_exact_mut(4);
        for (x, y) in av.by_ref().zip(bs.by_ref()) {
            store(x, lanes.csub(_mm256_add_epi64(load(x), load(y))));
        }
        super::scalar::add_mod(m, av.into_remainder(), bs.remainder());
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sub_mod(m: Modulus, a: &mut [u64], b: &[u64]) {
        let lanes = Lanes::new(m.value());
        let mut bs = b.chunks_exact(4);
        let mut av = a.chunks_exact_mut(4);
        for (x, y) in av.by_ref().zip(bs.by_ref()) {
            // a + p − b lands in (0, 2p); one csub matches both scalar
            // branches exactly.
            let t = _mm256_sub_epi64(_mm256_add_epi64(load(x), lanes.p), load(y));
            store(x, lanes.csub(t));
        }
        super::scalar::sub_mod(m, av.into_remainder(), bs.remainder());
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn neg_mod(m: Modulus, a: &mut [u64]) {
        let lanes = Lanes::new(m.value());
        let zero = _mm256_setzero_si256();
        let mut av = a.chunks_exact_mut(4);
        for x in av.by_ref() {
            let v = load(x);
            let nz = _mm256_cmpeq_epi64(v, zero);
            // p − a, forced to 0 where a == 0 (andnot keeps non-zero lanes).
            store(x, _mm256_andnot_si256(nz, _mm256_sub_epi64(lanes.p, v)));
        }
        super::scalar::neg_mod(m, av.into_remainder());
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_mod(m: Modulus, a: &mut [u64], b: &[u64]) {
        let barrett = Barrett::new(m);
        let mut bs = b.chunks_exact(4);
        let mut av = a.chunks_exact_mut(4);
        for (x, y) in av.by_ref().zip(bs.by_ref()) {
            store(x, barrett.mul_mod(load(x), load(y)));
        }
        super::scalar::mul_mod(m, av.into_remainder(), bs.remainder());
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn add_mul_mod(m: Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        let barrett = Barrett::new(m);
        let mut asl = a.chunks_exact(4);
        let mut bs = b.chunks_exact(4);
        let mut accv = acc.chunks_exact_mut(4);
        for ((d, x), y) in accv.by_ref().zip(asl.by_ref()).zip(bs.by_ref()) {
            let prod = barrett.mul_mod(load(x), load(y));
            store(d, barrett.lanes.csub(_mm256_add_epi64(load(d), prod)));
        }
        super::scalar::add_mul_mod(m, accv.into_remainder(), asl.remainder(), bs.remainder());
    }

    /// Fused dual accumulate: the digit chunk `x` is loaded once and
    /// multiplied against both key parts while in registers.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_mul_mod2(
        m: Modulus,
        acc0: &mut [u64],
        acc1: &mut [u64],
        x: &[u64],
        b: &[u64],
        a: &[u64],
    ) {
        let barrett = Barrett::new(m);
        let mut xs = x.chunks_exact(4);
        let mut bs = b.chunks_exact(4);
        let mut asl = a.chunks_exact(4);
        let mut a0 = acc0.chunks_exact_mut(4);
        let mut a1 = acc1.chunks_exact_mut(4);
        for ((((d0, d1), xv), bv), av) in a0
            .by_ref()
            .zip(a1.by_ref())
            .zip(xs.by_ref())
            .zip(bs.by_ref())
            .zip(asl.by_ref())
        {
            let xc = load(xv);
            let p0 = barrett.mul_mod(xc, load(bv));
            store(d0, barrett.lanes.csub(_mm256_add_epi64(load(d0), p0)));
            let p1 = barrett.mul_mod(xc, load(av));
            store(d1, barrett.lanes.csub(_mm256_add_epi64(load(d1), p1)));
        }
        super::scalar::add_mul_mod2(
            m,
            a0.into_remainder(),
            a1.into_remainder(),
            xs.remainder(),
            bs.remainder(),
            asl.remainder(),
        );
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn forward_butterflies(p: u64, w: u64, ws: u64, lo: &mut [u64], hi: &mut [u64]) {
        let lanes = Lanes::new(p);
        let wv = _mm256_set1_epi64x(w as i64);
        let wsv = _mm256_set1_epi64x(ws as i64);
        let mut los = lo.chunks_exact_mut(4);
        let mut his = hi.chunks_exact_mut(4);
        for (lc, hc) in los.by_ref().zip(his.by_ref()) {
            let u = load(lc);
            let v = lanes.mul_shoup(load(hc), wv, wsv);
            store(lc, lanes.csub(_mm256_add_epi64(u, v)));
            let diff = _mm256_sub_epi64(_mm256_add_epi64(u, lanes.p), v);
            store(hc, lanes.csub(diff));
        }
        super::scalar::forward_butterflies(p, w, ws, los.into_remainder(), his.into_remainder());
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn inverse_butterflies(p: u64, w: u64, ws: u64, lo: &mut [u64], hi: &mut [u64]) {
        let lanes = Lanes::new(p);
        let wv = _mm256_set1_epi64x(w as i64);
        let wsv = _mm256_set1_epi64x(ws as i64);
        let mut los = lo.chunks_exact_mut(4);
        let mut his = hi.chunks_exact_mut(4);
        for (lc, hc) in los.by_ref().zip(his.by_ref()) {
            let u = load(lc);
            let v = load(hc);
            store(lc, lanes.csub(_mm256_add_epi64(u, v)));
            let diff = lanes.csub(_mm256_sub_epi64(_mm256_add_epi64(u, lanes.p), v));
            store(hc, lanes.mul_shoup(diff, wv, wsv));
        }
        super::scalar::inverse_butterflies(p, w, ws, los.into_remainder(), his.into_remainder());
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_shoup_slice(p: u64, w: u64, ws: u64, a: &mut [u64]) {
        let lanes = Lanes::new(p);
        let wv = _mm256_set1_epi64x(w as i64);
        let wsv = _mm256_set1_epi64x(ws as i64);
        let mut av = a.chunks_exact_mut(4);
        for x in av.by_ref() {
            store(x, lanes.mul_shoup(load(x), wv, wsv));
        }
        super::scalar::mul_shoup_slice(p, w, ws, av.into_remainder());
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn extract_digit(src: &[u64], shift: u32, mask: u64, dst: &mut [u64]) {
        let cnt = _mm_cvtsi32_si128(shift as i32);
        let maskv = _mm256_set1_epi64x(mask as i64);
        let mut ss = src.chunks_exact(4);
        let mut ds = dst.chunks_exact_mut(4);
        for (d, s) in ds.by_ref().zip(ss.by_ref()) {
            store(d, _mm256_and_si256(_mm256_srl_epi64(load(s), cnt), maskv));
        }
        super::scalar::extract_digit(ss.remainder(), shift, mask, ds.into_remainder());
    }

    /// # Safety
    ///
    /// Besides AVX2, every `idx` entry must be in bounds for `src` (the
    /// dispatcher checks this before calling).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather(src: &[u64], idx: &[u32], dst: &mut [u64]) {
        let base = src.as_ptr() as *const i64;
        let mut is = idx.chunks_exact(4);
        let mut ds = dst.chunks_exact_mut(4);
        for (d, i) in ds.by_ref().zip(is.by_ref()) {
            let iv = _mm_loadu_si128(i.as_ptr() as *const __m128i);
            store(d, _mm256_i32gather_epi64::<8>(base, iv));
        }
        super::scalar::gather(src, is.remainder(), ds.into_remainder());
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn lift_centered(p: u64, t: u64, src: &[u64], dst: &mut [u64]) {
        let sign = _mm256_set1_epi64x(i64::MIN);
        let halfs = _mm256_xor_si256(_mm256_set1_epi64x((t / 2) as i64), sign);
        let offset = _mm256_set1_epi64x((p - t) as i64);
        let mut ss = src.chunks_exact(4);
        let mut ds = dst.chunks_exact_mut(4);
        for (d, s) in ds.by_ref().zip(ss.by_ref()) {
            let c = load(s);
            let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(c, sign), halfs);
            store(d, _mm256_add_epi64(c, _mm256_and_si256(offset, gt)));
        }
        super::scalar::lift_centered(p, t, ss.remainder(), ds.into_remainder());
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_combine(
        m: Modulus,
        delta: u64,
        delta_shoup: u64,
        plain: &[u64],
        rt: &[u64],
        out: &mut [u64],
    ) {
        let lanes = Lanes::new(m.value());
        let wv = _mm256_set1_epi64x(delta as i64);
        let wsv = _mm256_set1_epi64x(delta_shoup as i64);
        let mut ps = plain.chunks_exact(4);
        let mut rs = rt.chunks_exact(4);
        let mut os = out.chunks_exact_mut(4);
        for ((o, c), r) in os.by_ref().zip(ps.by_ref()).zip(rs.by_ref()) {
            let v = lanes.mul_shoup(load(c), wv, wsv);
            store(o, lanes.csub(_mm256_add_epi64(v, load(r))));
        }
        super::scalar::scale_combine(
            m,
            delta,
            delta_shoup,
            ps.remainder(),
            rs.remainder(),
            os.into_remainder(),
        );
    }
}

/// The AVX-512 kernels: 8×64-bit lanes.
///
/// # Safety
///
/// Every function must only be called on a CPU with `avx512f` +
/// `avx512dq` (the public dispatchers enforce this; the `ifma` submodule
/// additionally requires `avx512ifma`). Lane math notes:
///
/// * Unsigned compares and conditional subtracts use native mask
///   registers (`_mm512_cmpge_epu64_mask` + `_mm512_mask_sub_epi64`) —
///   no sign-flip tricks needed at this width.
/// * The low 64 bits of a product are a single `vpmullq`
///   (`_mm512_mullo_epi64`, the reason `avx512dq` is required).
/// * The product kernels exist twice via one macro: [`dq`] synthesises
///   the 128-bit product from `_mm512_mul_epu32` partials exactly like
///   the AVX2 tier; [`ifma`] splits operands into 52-bit limbs and uses
///   `vpmadd52{lo,hi}` — fewer µops on CPUs that have it. Both compute
///   the exact integer product, so results are bit-identical and the
///   dispatcher picks by `ifma_available()` alone.
/// * `gather` relies on the dispatcher's up-front index bounds check.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::Modulus;
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load(chunk: &[u64]) -> __m512i {
        _mm512_loadu_epi64(chunk.as_ptr() as *const i64)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store(chunk: &mut [u64], v: __m512i) {
        _mm512_storeu_epi64(chunk.as_mut_ptr() as *mut i64, v)
    }

    /// Conditional subtract: `x − p` where `x ≥ p` (unsigned), else `x`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn csub(x: __m512i, p: __m512i) -> __m512i {
        let ge = _mm512_cmpge_epu64_mask(x, p);
        _mm512_mask_sub_epi64(x, ge, x, p)
    }

    /// `_mm512_mul_epu32`-synthesised 64×64→128 product (lo, hi). Exact
    /// for arbitrary `u64` lanes; mirrors the AVX2 derivation, except the
    /// low half is a native `vpmullq`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn mul_lo_hi_u32(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
        let lomask = _mm512_set1_epi64(0xFFFF_FFFF);
        let a_hi = _mm512_srli_epi64::<32>(a);
        let b_hi = _mm512_srli_epi64::<32>(b);
        let ll = _mm512_mul_epu32(a, b);
        let lh = _mm512_mul_epu32(a, b_hi);
        let hl = _mm512_mul_epu32(a_hi, b);
        let hh = _mm512_mul_epu32(a_hi, b_hi);
        let cross = _mm512_add_epi64(
            _mm512_add_epi64(_mm512_srli_epi64::<32>(ll), _mm512_and_si512(lh, lomask)),
            _mm512_and_si512(hl, lomask),
        );
        let hi = _mm512_add_epi64(
            _mm512_add_epi64(hh, _mm512_srli_epi64::<32>(lh)),
            _mm512_add_epi64(_mm512_srli_epi64::<32>(hl), _mm512_srli_epi64::<32>(cross)),
        );
        (_mm512_mullo_epi64(a, b), hi)
    }

    /// IFMA 64×64→128 product (lo, hi) from 52-bit limbs. With
    /// `a = a_lo + 2^52·a_hi` (`a_hi < 2^12`, ditto `b`):
    ///
    /// `a·b = ll + 2^52·cross + 2^104·hh`, where `vpmadd52lo/hi` deliver
    /// the 52-bit halves of `a_lo·b_lo` (`ll_lo`, `ll_hi`) and of the two
    /// cross products (accumulated: `cr_lo < 2^53`, `cr_hi < 2^13`).
    /// Writing `mid = ll_hi + cr_lo < 2^54`, `top = cr_hi + a_hi·b_hi`:
    ///
    /// * `lo = ll_lo + (mid << 52)` is exact (`ll_lo < 2^52`, no carry);
    /// * `hi = (mid >> 12) + (top << 40)` is exact because the full
    ///   product is `< 2^128`, forcing `top < 2^24`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn mul_lo_hi_ifma(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
        let z = _mm512_setzero_si512();
        let a_hi = _mm512_srli_epi64::<52>(a);
        let b_hi = _mm512_srli_epi64::<52>(b);
        let ll_lo = _mm512_madd52lo_epu64(z, a, b);
        let ll_hi = _mm512_madd52hi_epu64(z, a, b);
        let cr_lo = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(z, a_hi, b), a, b_hi);
        let cr_hi = _mm512_madd52hi_epu64(_mm512_madd52hi_epu64(z, a_hi, b), a, b_hi);
        let hh = _mm512_mullo_epi64(a_hi, b_hi);
        let mid = _mm512_add_epi64(ll_hi, cr_lo);
        let top = _mm512_add_epi64(cr_hi, hh);
        let lo = _mm512_add_epi64(ll_lo, _mm512_slli_epi64::<52>(mid));
        let hi = _mm512_add_epi64(_mm512_srli_epi64::<12>(mid), _mm512_slli_epi64::<40>(top));
        (lo, hi)
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn add_mod(m: Modulus, a: &mut [u64], b: &[u64]) {
        let p = _mm512_set1_epi64(m.value() as i64);
        let mut bs = b.chunks_exact(8);
        let mut av = a.chunks_exact_mut(8);
        for (x, y) in av.by_ref().zip(bs.by_ref()) {
            store(x, csub(_mm512_add_epi64(load(x), load(y)), p));
        }
        super::scalar::add_mod(m, av.into_remainder(), bs.remainder());
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn sub_mod(m: Modulus, a: &mut [u64], b: &[u64]) {
        let p = _mm512_set1_epi64(m.value() as i64);
        let mut bs = b.chunks_exact(8);
        let mut av = a.chunks_exact_mut(8);
        for (x, y) in av.by_ref().zip(bs.by_ref()) {
            let t = _mm512_sub_epi64(_mm512_add_epi64(load(x), p), load(y));
            store(x, csub(t, p));
        }
        super::scalar::sub_mod(m, av.into_remainder(), bs.remainder());
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn neg_mod(m: Modulus, a: &mut [u64]) {
        let p = _mm512_set1_epi64(m.value() as i64);
        let zero = _mm512_setzero_si512();
        let mut av = a.chunks_exact_mut(8);
        for x in av.by_ref() {
            let v = load(x);
            // p − a, zeroed (via maskz) where a == 0.
            let nz = _mm512_cmpneq_epi64_mask(v, zero);
            store(x, _mm512_maskz_sub_epi64(nz, p, v));
        }
        super::scalar::neg_mod(m, av.into_remainder());
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn extract_digit(src: &[u64], shift: u32, mask: u64, dst: &mut [u64]) {
        let cnt = _mm_cvtsi32_si128(shift as i32);
        let maskv = _mm512_set1_epi64(mask as i64);
        let mut ss = src.chunks_exact(8);
        let mut ds = dst.chunks_exact_mut(8);
        for (d, s) in ds.by_ref().zip(ss.by_ref()) {
            store(d, _mm512_and_si512(_mm512_srl_epi64(load(s), cnt), maskv));
        }
        super::scalar::extract_digit(ss.remainder(), shift, mask, ds.into_remainder());
    }

    /// # Safety
    ///
    /// Besides AVX-512F, every `idx` entry must be in bounds for `src`
    /// (the dispatcher checks this before calling).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gather(src: &[u64], idx: &[u32], dst: &mut [u64]) {
        let base = src.as_ptr() as *const i64;
        let mut is = idx.chunks_exact(8);
        let mut ds = dst.chunks_exact_mut(8);
        for (d, i) in ds.by_ref().zip(is.by_ref()) {
            let iv = _mm256_loadu_si256(i.as_ptr() as *const __m256i);
            store(d, _mm512_i32gather_epi64::<8>(iv, base));
        }
        super::scalar::gather(src, is.remainder(), ds.into_remainder());
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn lift_centered(p: u64, t: u64, src: &[u64], dst: &mut [u64]) {
        let half = _mm512_set1_epi64((t / 2) as i64);
        let offset = _mm512_set1_epi64((p - t) as i64);
        let mut ss = src.chunks_exact(8);
        let mut ds = dst.chunks_exact_mut(8);
        for (d, s) in ds.by_ref().zip(ss.by_ref()) {
            let c = load(s);
            let gt = _mm512_cmpgt_epu64_mask(c, half);
            store(d, _mm512_mask_add_epi64(c, gt, c, offset));
        }
        super::scalar::lift_centered(p, t, ss.remainder(), ds.into_remainder());
    }

    /// Expands the product-dependent kernel set once per 64×64→128
    /// implementation ([`dq`] / [`ifma`]); bodies are identical, only the
    /// `mul_lo_hi` callee and the enabled features differ.
    macro_rules! product_kernels {
        ($modname:ident, $feat:literal, $mul_lo_hi:path, $doc:literal) => {
            #[doc = $doc]
            pub mod $modname {
                use super::super::Modulus;
                use super::{csub, load, store};
                use std::arch::x86_64::*;

                /// Shoup multiply by a broadcast constant; canonical result.
                #[inline]
                #[target_feature(enable = $feat)]
                unsafe fn mul_shoup(x: __m512i, w: __m512i, ws: __m512i, p: __m512i) -> __m512i {
                    let (_, q) = $mul_lo_hi(x, ws);
                    let r = _mm512_sub_epi64(
                        _mm512_mullo_epi64(x, w),
                        _mm512_mullo_epi64(q, p),
                    );
                    csub(r, p)
                }

                /// Barrett lane constants (shift counts are per-modulus
                /// runtime values, all in `[1, 63]` since `2 ≤ p < 2^62`).
                pub(super) struct Barrett {
                    p: __m512i,
                    mu: __m512i,
                    sh1: __m128i,
                    sh1c: __m128i,
                    sh2: __m128i,
                    sh2c: __m128i,
                }

                impl Barrett {
                    #[inline]
                    #[target_feature(enable = $feat)]
                    unsafe fn new(m: Modulus) -> Self {
                        let bits = m.bits() as i32;
                        Barrett {
                            p: _mm512_set1_epi64(m.value() as i64),
                            mu: _mm512_set1_epi64(m.barrett_mu() as i64),
                            sh1: _mm_cvtsi32_si128(bits - 1),
                            sh1c: _mm_cvtsi32_si128(64 - (bits - 1)),
                            sh2: _mm_cvtsi32_si128(bits + 1),
                            sh2c: _mm_cvtsi32_si128(64 - (bits + 1)),
                        }
                    }

                    /// `a · b mod p`, fully reduced (same derivation as the
                    /// AVX2 tier: remainder in `[0, 3p)`, two csubs).
                    #[inline]
                    #[target_feature(enable = $feat)]
                    unsafe fn mul_mod(&self, a: __m512i, b: __m512i) -> __m512i {
                        let (xlo, xhi) = $mul_lo_hi(a, b);
                        let q1 = _mm512_or_si512(
                            _mm512_srl_epi64(xlo, self.sh1),
                            _mm512_sll_epi64(xhi, self.sh1c),
                        );
                        let (qlo, qhi) = $mul_lo_hi(q1, self.mu);
                        let q3 = _mm512_or_si512(
                            _mm512_srl_epi64(qlo, self.sh2),
                            _mm512_sll_epi64(qhi, self.sh2c),
                        );
                        let r = _mm512_sub_epi64(xlo, _mm512_mullo_epi64(q3, self.p));
                        csub(csub(r, self.p), self.p)
                    }
                }

                #[target_feature(enable = $feat)]
                pub unsafe fn mul_mod(m: Modulus, a: &mut [u64], b: &[u64]) {
                    let barrett = Barrett::new(m);
                    let mut bs = b.chunks_exact(8);
                    let mut av = a.chunks_exact_mut(8);
                    for (x, y) in av.by_ref().zip(bs.by_ref()) {
                        store(x, barrett.mul_mod(load(x), load(y)));
                    }
                    super::super::scalar::mul_mod(m, av.into_remainder(), bs.remainder());
                }

                #[target_feature(enable = $feat)]
                pub unsafe fn add_mul_mod(m: Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
                    let barrett = Barrett::new(m);
                    let mut asl = a.chunks_exact(8);
                    let mut bs = b.chunks_exact(8);
                    let mut accv = acc.chunks_exact_mut(8);
                    for ((d, x), y) in accv.by_ref().zip(asl.by_ref()).zip(bs.by_ref()) {
                        let prod = barrett.mul_mod(load(x), load(y));
                        store(d, csub(_mm512_add_epi64(load(d), prod), barrett.p));
                    }
                    super::super::scalar::add_mul_mod(
                        m,
                        accv.into_remainder(),
                        asl.remainder(),
                        bs.remainder(),
                    );
                }

                /// Fused dual accumulate: the digit chunk `x` is loaded
                /// once and multiplied against both key parts in registers.
                #[target_feature(enable = $feat)]
                pub unsafe fn add_mul_mod2(
                    m: Modulus,
                    acc0: &mut [u64],
                    acc1: &mut [u64],
                    x: &[u64],
                    b: &[u64],
                    a: &[u64],
                ) {
                    let barrett = Barrett::new(m);
                    let mut xs = x.chunks_exact(8);
                    let mut bs = b.chunks_exact(8);
                    let mut asl = a.chunks_exact(8);
                    let mut a0 = acc0.chunks_exact_mut(8);
                    let mut a1 = acc1.chunks_exact_mut(8);
                    for ((((d0, d1), xv), bv), av) in a0
                        .by_ref()
                        .zip(a1.by_ref())
                        .zip(xs.by_ref())
                        .zip(bs.by_ref())
                        .zip(asl.by_ref())
                    {
                        let xc = load(xv);
                        let p0 = barrett.mul_mod(xc, load(bv));
                        store(d0, csub(_mm512_add_epi64(load(d0), p0), barrett.p));
                        let p1 = barrett.mul_mod(xc, load(av));
                        store(d1, csub(_mm512_add_epi64(load(d1), p1), barrett.p));
                    }
                    super::super::scalar::add_mul_mod2(
                        m,
                        a0.into_remainder(),
                        a1.into_remainder(),
                        xs.remainder(),
                        bs.remainder(),
                        asl.remainder(),
                    );
                }

                #[target_feature(enable = $feat)]
                pub unsafe fn forward_butterflies(
                    p: u64,
                    w: u64,
                    ws: u64,
                    lo: &mut [u64],
                    hi: &mut [u64],
                ) {
                    let pv = _mm512_set1_epi64(p as i64);
                    let wv = _mm512_set1_epi64(w as i64);
                    let wsv = _mm512_set1_epi64(ws as i64);
                    let mut los = lo.chunks_exact_mut(8);
                    let mut his = hi.chunks_exact_mut(8);
                    for (lc, hc) in los.by_ref().zip(his.by_ref()) {
                        let u = load(lc);
                        let v = mul_shoup(load(hc), wv, wsv, pv);
                        store(lc, csub(_mm512_add_epi64(u, v), pv));
                        let diff = _mm512_sub_epi64(_mm512_add_epi64(u, pv), v);
                        store(hc, csub(diff, pv));
                    }
                    super::super::scalar::forward_butterflies(
                        p,
                        w,
                        ws,
                        los.into_remainder(),
                        his.into_remainder(),
                    );
                }

                #[target_feature(enable = $feat)]
                pub unsafe fn inverse_butterflies(
                    p: u64,
                    w: u64,
                    ws: u64,
                    lo: &mut [u64],
                    hi: &mut [u64],
                ) {
                    let pv = _mm512_set1_epi64(p as i64);
                    let wv = _mm512_set1_epi64(w as i64);
                    let wsv = _mm512_set1_epi64(ws as i64);
                    let mut los = lo.chunks_exact_mut(8);
                    let mut his = hi.chunks_exact_mut(8);
                    for (lc, hc) in los.by_ref().zip(his.by_ref()) {
                        let u = load(lc);
                        let v = load(hc);
                        store(lc, csub(_mm512_add_epi64(u, v), pv));
                        let diff = csub(_mm512_sub_epi64(_mm512_add_epi64(u, pv), v), pv);
                        store(hc, mul_shoup(diff, wv, wsv, pv));
                    }
                    super::super::scalar::inverse_butterflies(
                        p,
                        w,
                        ws,
                        los.into_remainder(),
                        his.into_remainder(),
                    );
                }

                #[target_feature(enable = $feat)]
                pub unsafe fn mul_shoup_slice(p: u64, w: u64, ws: u64, a: &mut [u64]) {
                    let pv = _mm512_set1_epi64(p as i64);
                    let wv = _mm512_set1_epi64(w as i64);
                    let wsv = _mm512_set1_epi64(ws as i64);
                    let mut av = a.chunks_exact_mut(8);
                    for x in av.by_ref() {
                        store(x, mul_shoup(load(x), wv, wsv, pv));
                    }
                    super::super::scalar::mul_shoup_slice(p, w, ws, av.into_remainder());
                }

                #[target_feature(enable = $feat)]
                pub unsafe fn scale_combine(
                    m: Modulus,
                    delta: u64,
                    delta_shoup: u64,
                    plain: &[u64],
                    rt: &[u64],
                    out: &mut [u64],
                ) {
                    let pv = _mm512_set1_epi64(m.value() as i64);
                    let wv = _mm512_set1_epi64(delta as i64);
                    let wsv = _mm512_set1_epi64(delta_shoup as i64);
                    let mut ps = plain.chunks_exact(8);
                    let mut rs = rt.chunks_exact(8);
                    let mut os = out.chunks_exact_mut(8);
                    for ((o, c), r) in os.by_ref().zip(ps.by_ref()).zip(rs.by_ref()) {
                        let v = mul_shoup(load(c), wv, wsv, pv);
                        store(o, csub(_mm512_add_epi64(v, load(r)), pv));
                    }
                    super::super::scalar::scale_combine(
                        m,
                        delta,
                        delta_shoup,
                        ps.remainder(),
                        rs.remainder(),
                        os.into_remainder(),
                    );
                }
            }
        };
    }

    product_kernels!(
        dq,
        "avx512f,avx512dq",
        super::mul_lo_hi_u32,
        "Product kernels on the `_mm512_mul_epu32` synthesis (no IFMA)."
    );
    product_kernels!(
        ifma,
        "avx512f,avx512dq,avx512ifma",
        super::mul_lo_hi_ifma,
        "Product kernels on the `vpmadd52` 52-bit-limb synthesis."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn vecs(m: Modulus, len: usize, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = |rng: &mut StdRng| (0..len).map(|_| rng.gen_range(0..m.value())).collect();
        (g(&mut rng), g(&mut rng), g(&mut rng))
    }

    /// Odd lengths exercise the scalar tail inside the vector kernels;
    /// 5 and 9 straddle the 4- and 8-lane minimums.
    const LENS: [usize; 6] = [1, 4, 5, 9, 31, 256];

    /// Small, medium and near-limit moduli (the last stresses the
    /// Barrett shift counts at `L = 62`).
    fn moduli() -> Vec<Modulus> {
        vec![
            Modulus::new(97),
            Modulus::new(65537),
            Modulus::new(1032193),
            Modulus::new((1u64 << 50) + 4097),
            Modulus::new((1u64 << 62) - 57), // not prime; kernels don't care
        ]
    }

    /// The vector tiers this CPU can actually run (testing an
    /// unsupported tier would silently degrade — vacuous, not wrong).
    fn vector_tiers() -> Vec<SimdLevel> {
        let mut tiers = Vec::new();
        if avx2_available() {
            tiers.push(SimdLevel::Avx2);
        }
        if avx512_available() {
            tiers.push(SimdLevel::Avx512);
        }
        tiers
    }

    #[test]
    fn vector_tiers_match_scalar_on_all_kernels() {
        for tier in vector_tiers() {
            for m in moduli() {
                for len in LENS {
                    let (a, b, c) = vecs(m, len, 0xC0FFEE ^ m.value() ^ len as u64);
                    let check = |name: &str, f: &dyn Fn(&mut [u64], SimdLevel)| {
                        let mut s = a.clone();
                        let mut v = a.clone();
                        f(&mut s, SimdLevel::Scalar);
                        f(&mut v, tier);
                        assert_eq!(
                            s,
                            v,
                            "{name} diverged (tier={}, p={}, len={len})",
                            tier.name(),
                            m.value()
                        );
                    };
                    check("add", &|x, l| add_mod(m, x, &b, l));
                    check("sub", &|x, l| sub_mod(m, x, &b, l));
                    check("neg", &|x, l| neg_mod(m, x, l));
                    check("mul", &|x, l| mul_mod(m, x, &b, l));
                    check("add_mul", &|x, l| add_mul_mod(m, x, &b, &c, l));
                    let p = m.value();
                    let w = b[0] % p;
                    let ws = (((w as u128) << 64) / p as u128) as u64;
                    check("mul_shoup_slice", &|x, l| mul_shoup_slice(p, w, ws, x, l));
                    check("scale_combine", &|x, l| {
                        let src = x.to_vec();
                        scale_combine(m, w, ws, &src, &c, x, l)
                    });
                    let shift = (m.value() % 23) as u32;
                    let mask = (1u64 << 16) - 1;
                    check("extract_digit", &|x, l| {
                        let src = x.to_vec();
                        extract_digit(&src, shift, mask, x, l)
                    });
                    let idx: Vec<u32> = (0..len as u32).rev().collect();
                    check("gather", &|x, l| {
                        let src = x.to_vec();
                        gather(&src, &idx, x, l)
                    });
                    type PairKernel<'f> = &'f dyn Fn(&mut [u64], &mut [u64], SimdLevel);
                    let check2 = |name: &str, f: PairKernel<'_>| {
                        let (mut sl, mut sh) = (a.clone(), b.clone());
                        let (mut vl, mut vh) = (a.clone(), b.clone());
                        f(&mut sl, &mut sh, SimdLevel::Scalar);
                        f(&mut vl, &mut vh, tier);
                        assert_eq!(
                            (sl, sh),
                            (vl, vh),
                            "{name} diverged (tier={}, p={}, len={len})",
                            tier.name(),
                            m.value()
                        );
                    };
                    check2("fwd_bfly", &|l0, h0, l| forward_butterflies(p, w, ws, l0, h0, l));
                    check2("inv_bfly", &|l0, h0, l| inverse_butterflies(p, w, ws, l0, h0, l));
                    check2("add_mul2", &|a0, a1, l| add_mul_mod2(m, a0, a1, &a, &b, &c, l));
                }
            }
        }
    }

    /// The fused dual accumulate must equal two independent single
    /// accumulates — at every tier (this is what lets `key_switch` fuse
    /// its two sweeps without changing bytes).
    #[test]
    fn fused_accumulate_equals_two_passes() {
        for m in moduli() {
            for len in LENS {
                let (x, b, a) = vecs(m, len, 0xFACE ^ m.value());
                let (acc0_init, acc1_init, _) = vecs(m, len, 0xBEEF ^ len as u64);
                let mut want0 = acc0_init.clone();
                let mut want1 = acc1_init.clone();
                add_mul_mod(m, &mut want0, &x, &b, SimdLevel::Scalar);
                add_mul_mod(m, &mut want1, &x, &a, SimdLevel::Scalar);
                for tier in
                    [SimdLevel::Scalar].into_iter().chain(vector_tiers())
                {
                    let mut acc0 = acc0_init.clone();
                    let mut acc1 = acc1_init.clone();
                    let mut limbs = [KsLimb {
                        m,
                        acc0: &mut acc0,
                        acc1: &mut acc1,
                        x: &x,
                        b: &b,
                        a: &a,
                    }];
                    ks_accumulate(&mut limbs, tier);
                    assert_eq!(acc0, want0, "acc0 diverged (tier={})", tier.name());
                    assert_eq!(acc1, want1, "acc1 diverged (tier={})", tier.name());
                }
            }
        }
    }

    /// The lift/scale kernels' scalar references must match the original
    /// formulas they replaced (`to_signed`/`from_signed` round trip; full
    /// `u128` reduction).
    #[test]
    fn conversion_kernels_match_original_formulas() {
        let mut rng = StdRng::seed_from_u64(0x51D);
        for m in moduli() {
            let p = m.value();
            let t_candidates = [2u64, 97, 65537, p / 2 + 1, p - 1];
            for &tv in t_candidates.iter().filter(|&&tv| (2..p).contains(&tv)) {
                let t = Modulus::new(tv);
                let src: Vec<u64> = (0..64)
                    .map(|i| match i {
                        0 => 0,
                        1 => tv - 1,
                        2 => tv / 2,
                        3 => (tv / 2).saturating_add(1).min(tv - 1),
                        _ => rng.gen_range(0..tv),
                    })
                    .collect();
                let mut got = vec![0u64; src.len()];
                lift_centered(p, tv, &src, &mut got, SimdLevel::Scalar);
                let want: Vec<u64> =
                    src.iter().map(|&c| m.from_signed(t.to_signed(c))).collect();
                assert_eq!(got, want, "lift_centered != from_signed∘to_signed (p={p}, t={tv})");

                let delta = rng.gen_range(0..p);
                let ds = (((delta as u128) << 64) / p as u128) as u64;
                let rt: Vec<u64> = src.iter().map(|&c| c % tv).collect();
                let mut out = vec![0u64; src.len()];
                scale_combine(m, delta, ds, &src, &rt, &mut out, SimdLevel::Scalar);
                let want: Vec<u64> = src
                    .iter()
                    .zip(&rt)
                    .map(|(&c, &r)| m.reduce_u128(delta as u128 * c as u128 + r as u128))
                    .collect();
                assert_eq!(out, want, "scale_combine != u128 reduction (p={p})");
            }
        }
    }

    #[test]
    fn policy_parses_tier_names_and_rejects_typos() {
        for (s, want) in [
            ("scalar", SimdPolicy::Scalar),
            ("0", SimdPolicy::Scalar),
            ("off", SimdPolicy::Scalar),
            ("OFF", SimdPolicy::Scalar),
            ("auto", SimdPolicy::Auto),
            ("1", SimdPolicy::Auto),
            ("on", SimdPolicy::Auto),
            ("avx2", SimdPolicy::Avx2),
            ("AVX2", SimdPolicy::Avx2),
            ("avx512", SimdPolicy::Avx512),
            (" avx512 ", SimdPolicy::Avx512),
        ] {
            assert_eq!(SimdPolicy::parse(s), Ok(want), "parse({s:?})");
        }
        for bad in ["axv512", "avx", "2", "scalar512", "avx-512", ""] {
            assert_eq!(SimdPolicy::parse(bad), Err(bad.to_string()), "parse({bad:?})");
        }
    }

    /// Requested tiers beyond CPU support degrade (never UB), and the
    /// degradation order is 512 → 2 → scalar.
    #[test]
    fn policy_degrades_to_cpu_support() {
        assert_eq!(SimdPolicy::Scalar.level(), SimdLevel::Scalar);
        let best = SimdPolicy::Auto.level();
        match best {
            SimdLevel::Avx512 => assert!(avx512_available()),
            SimdLevel::Avx2 => assert!(avx2_available() && !avx512_available()),
            SimdLevel::Scalar => assert!(!avx2_available()),
        }
        assert_eq!(SimdPolicy::Avx512.level(), best, "avx512 request = best tier");
        let capped = SimdPolicy::Avx2.level();
        assert!(capped != SimdLevel::Avx512, "avx2 request must cap below 512");
        assert_eq!(capped == SimdLevel::Avx2, avx2_available());
    }

    #[test]
    fn forced_scalar_override() {
        std::env::set_var("PRIMER_SIMD", "0");
        assert_eq!(level(), SimdLevel::Scalar);
        std::env::set_var("PRIMER_SIMD", "off");
        assert_eq!(level(), SimdLevel::Scalar);
        std::env::set_var("PRIMER_SIMD", "1");
        let auto = level();
        std::env::remove_var("PRIMER_SIMD");
        assert_eq!(auto, level(), "legacy \"1\" must mean auto-detect");
        assert_eq!(auto, SimdPolicy::Auto.level());
    }

    #[test]
    fn boundary_values_reduce_canonically() {
        // p−1 in every lane is the worst case for every csub chain.
        for tier in vector_tiers() {
            for m in moduli() {
                let top = m.value() - 1;
                let mut a = vec![top; 16];
                let b = vec![top; 16];
                let want: Vec<u64> = a.iter().map(|&x| m.mul(x, top)).collect();
                mul_mod(m, &mut a, &b, tier);
                assert_eq!(a, want, "tier={}", tier.name());
                let mut s = vec![top; 16];
                add_mod(m, &mut s, &b, SimdLevel::Scalar);
                let mut v = vec![top; 16];
                add_mod(m, &mut v, &b, tier);
                assert_eq!(s, v, "tier={}", tier.name());
            }
        }
    }
}
