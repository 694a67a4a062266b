//! Zero-rotation replicated column packing (ZeRo-MOAI style) for the
//! encrypted-operand products FHGS runs online.
//!
//! The diagonal layouts in `packing::matmul` minimize ciphertext count
//! and pay for it with rotation chains. This layout spends *slots*
//! instead: to multiply an encrypted `rows × cols` matrix `X` by a
//! plaintext operand on the right, every row of `X` is replicated once
//! per output column, so each output entry owns a private region of
//! `cols` slots and the whole product is **one slot-wise plaintext
//! multiplication — zero rotations, zero Galois keys**. The inner-product
//! sum is *not* performed homomorphically; the decrypting party sums each
//! region in plaintext ([`ZrLayout::decrypt_grid`]).
//!
//! Layout geometry (one global slot index, flattened across as many
//! ciphertexts as needed):
//!
//! ```text
//! slot((i·reps + r)·cols + l) = X[i, l]      for r in 0..reps
//! ```
//!
//! Region `p = i·reps + r` (its `cols` slots) is where output entry
//! `(i, r)` accumulates. Because region slots hold *unsummed partial
//! products* — data, once the other operand is secret-shared — any
//! additive mask subtracted from a flight in this layout must cover
//! **every used slot** (a full `(rows·reps) × cols` matrix via
//! [`ZrLayout::flat_slots`]), not just one value per region: a
//! per-region mask would leave `cols − 1` raw partials per region for
//! the decryptor to read.
//!
//! Since nothing ever rotates, the layout is free to use the full slot
//! count `n` (both batching rows), not just one row.

use primer_he::{BatchEncoder, Ciphertext, Encryptor};
use primer_math::{MatZ, Ring};
use rand::rngs::StdRng;

/// Replicated-row layout metadata (public, shape-derived).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZrLayout {
    /// Logical rows of the replicated matrix.
    pub rows: usize,
    /// Logical columns (the inner-product dimension).
    pub cols: usize,
    /// Replication factor (output columns of the product).
    pub reps: usize,
    /// Slots per ciphertext (the full slot count, both batching rows).
    pub slots: usize,
    /// Ciphertexts needed.
    pub num_cts: usize,
}

impl ZrLayout {
    /// Plans the layout for `rows × cols` replicated `reps` times.
    pub fn plan(rows: usize, cols: usize, reps: usize, slots: usize) -> Self {
        assert!(rows * cols * reps > 0, "degenerate replicated layout");
        let num_cts = (rows * reps * cols).div_ceil(slots);
        Self { rows, cols, reps, slots, num_cts }
    }

    /// Used slots (the tail of the last ciphertext stays zero).
    pub fn used_slots(&self) -> usize {
        self.rows * self.reps * self.cols
    }

    /// Builds the per-ciphertext slot vectors from a global-slot filler.
    fn slot_vectors(&self, value: impl Fn(usize, usize, usize) -> u64) -> Vec<Vec<u64>> {
        let mut cts = vec![vec![0u64; self.slots]; self.num_cts];
        for i in 0..self.rows {
            for r in 0..self.reps {
                for l in 0..self.cols {
                    let g = (i * self.reps + r) * self.cols + l;
                    cts[g / self.slots][g % self.slots] = value(i, r, l);
                }
            }
        }
        cts
    }

    /// Slot vectors of `x` (`rows × cols`) replicated `reps` times.
    pub fn replicated_slots(&self, x: &MatZ) -> Vec<Vec<u64>> {
        assert_eq!(x.shape(), (self.rows, self.cols), "replicated operand shape");
        self.slot_vectors(|i, _r, l| x[(i, l)])
    }

    /// Slot vectors of a rep-indexed mask `m` (`reps × cols`): region
    /// `(i, r)` gets row `r` of `m`, independent of `i` — multiplying by
    /// this against replicated `x` leaves `x[i,l]·m[r,l]` in slot
    /// `(i·reps+r)·cols+l`, whose region sum is the product entry.
    pub fn mask_slots(&self, m: &MatZ) -> Vec<Vec<u64>> {
        assert_eq!(m.shape(), (self.reps, self.cols), "rep-indexed mask shape");
        self.slot_vectors(|_i, r, l| m[(r, l)])
    }

    /// Slot vectors placing `v` (`rows × reps`) at each region's origin
    /// slot (`l = 0`), zeros elsewhere — a value already summed, aligned
    /// for addition to a grid of partial products.
    pub fn grid_origin_slots(&self, v: &MatZ) -> Vec<Vec<u64>> {
        assert_eq!(v.shape(), (self.rows, self.reps), "grid value shape");
        self.slot_vectors(|i, r, l| if l == 0 { v[(i, r)] } else { 0 })
    }

    /// Slot vectors of a full-slot matrix `s` (`(rows·reps) × cols`) —
    /// the only mask shape that blinds every partial product (see the
    /// module docs' security note).
    pub fn flat_slots(&self, s: &MatZ) -> Vec<Vec<u64>> {
        assert_eq!(s.shape(), (self.rows * self.reps, self.cols), "flat mask shape");
        self.slot_vectors(|i, r, l| s[(i * self.reps + r, l)])
    }

    /// Encrypts slot vectors, one sub-rng per ciphertext drawn in order
    /// first so the bytes are thread-count independent (the same idiom
    /// as `encrypt_matrix_in_layout_with`).
    pub fn encrypt(
        &self,
        slot_vecs: &[Vec<u64>],
        encoder: &BatchEncoder,
        encryptor: &Encryptor,
        rng: &mut StdRng,
    ) -> Vec<Ciphertext> {
        assert_eq!(slot_vecs.len(), self.num_cts, "slot vector count");
        let seeds: Vec<u64> = (0..self.num_cts).map(|_| rand::Rng::gen(rng)).collect();
        rayon::par_iter_chunks(self.num_cts, |k| {
            let mut ct_rng: StdRng = rand::SeedableRng::seed_from_u64(seeds[k]);
            encryptor.encrypt_with(&encoder.encode(&slot_vecs[k]), &mut ct_rng)
        })
    }

    /// Decrypts a ciphertext batch and sums each region mod `t`,
    /// yielding the `rows × reps` product-grid readout.
    pub fn decrypt_grid(
        &self,
        cts: &[Ciphertext],
        ring: &Ring,
        encoder: &BatchEncoder,
        encryptor: &Encryptor,
    ) -> MatZ {
        assert_eq!(cts.len(), self.num_cts, "ciphertext count");
        let decoded: Vec<Vec<u64>> = rayon::par_iter_chunks(self.num_cts, |k| {
            encoder.decode(&encryptor.decrypt(&cts[k]))
        });
        let at = |g: usize| decoded[g / self.slots][g % self.slots];
        MatZ::from_fn(self.rows, self.reps, |i, r| {
            let base = (i * self.reps + r) * self.cols;
            (0..self.cols).fold(0u64, |acc, l| ring.add(acc, at(base + l)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{fixture, small_matrix};
    use super::*;

    #[test]
    fn replicated_times_mask_grid_reads_the_product() {
        // Enc(X rep m) · mask(Wᵀ) must region-sum to X·W with zero
        // rotations — the whole point of the layout.
        let fx = fixture(4);
        let slots = 2 * fx.encoder.row_size();
        let (rows, cols, reps) = (3usize, 6usize, 4usize);
        let x = small_matrix(&fx.ring, rows, cols, 300);
        let w = small_matrix(&fx.ring, cols, reps, 301);

        let l = ZrLayout::plan(rows, cols, reps, slots);
        let mut rng = fx.encryptor.fork_rng();
        let enc = l.encrypt(&l.replicated_slots(&x), &fx.encoder, &fx.encryptor, &mut rng);
        assert_eq!(enc.len(), l.num_cts);

        let before = fx.eval.counts();
        let masks = l.mask_slots(&w.transpose());
        let prod: Vec<Ciphertext> = enc
            .iter()
            .zip(&masks)
            .map(|(ct, m)| fx.eval.mul_plain(ct, &fx.eval.prepare_mul_plain(&fx.encoder.encode(m))))
            .collect();
        let spent = fx.eval.counts().since(&before);
        assert_eq!(spent.rotations, 0, "zero-rotation layout rotated");
        assert_eq!(spent.mul_plain, l.num_cts as u64);

        let got = l.decrypt_grid(&prod, &fx.ring, &fx.encoder, &fx.encryptor);
        assert_eq!(got, x.matmul(&fx.ring, &w));
    }

    #[test]
    fn grid_origin_and_flat_masks_align_with_regions() {
        let fx = fixture(4);
        let slots = 2 * fx.encoder.row_size();
        let (rows, cols, reps) = (2usize, 5usize, 3usize);
        let l = ZrLayout::plan(rows, cols, reps, slots);
        let v = small_matrix(&fx.ring, rows, reps, 310);
        let s = small_matrix(&fx.ring, rows * reps, cols, 311);

        // grid(v) − flat(s) region-sums to v − row-sums(s).
        let grid = l.grid_origin_slots(&v);
        let flat = l.flat_slots(&s);
        let mut rng = fx.encryptor.fork_rng();
        let enc = l.encrypt(&grid, &fx.encoder, &fx.encryptor, &mut rng);
        let diff: Vec<Ciphertext> = enc
            .iter()
            .zip(&flat)
            .map(|(ct, m)| fx.eval.sub_plain(ct, &fx.encoder.encode(m)))
            .collect();
        let got = l.decrypt_grid(&diff, &fx.ring, &fx.encoder, &fx.encryptor);
        let expect = MatZ::from_fn(rows, reps, |i, r| {
            let row_sum =
                (0..cols).fold(0u64, |acc, c| fx.ring.add(acc, s[(i * reps + r, c)]));
            fx.ring.sub(v[(i, r)], row_sum)
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn layout_spans_multiple_ciphertexts_when_needed() {
        let fx = fixture(4);
        let slots = 2 * fx.encoder.row_size();
        // Big enough to need > 1 ct at toy params (2048 slots).
        let (rows, cols, reps) = (8usize, 48usize, 8usize);
        let l = ZrLayout::plan(rows, cols, reps, slots);
        assert!(l.num_cts > 1, "test shape must straddle ciphertexts");
        let x = small_matrix(&fx.ring, rows, cols, 320);
        let w = small_matrix(&fx.ring, cols, reps, 321);
        let mut rng = fx.encryptor.fork_rng();
        let enc = l.encrypt(&l.replicated_slots(&x), &fx.encoder, &fx.encryptor, &mut rng);
        let masks = l.mask_slots(&w.transpose());
        let prod: Vec<Ciphertext> = enc
            .iter()
            .zip(&masks)
            .map(|(ct, m)| fx.eval.mul_plain(ct, &fx.eval.prepare_mul_plain(&fx.encoder.encode(m))))
            .collect();
        let got = l.decrypt_grid(&prod, &fx.ring, &fx.encoder, &fx.encryptor);
        assert_eq!(got, x.matmul(&fx.ring, &w));
    }
}
