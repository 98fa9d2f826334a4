//! Encrypted channel × block matrices.

use pisa_bigint::Ibig;
use pisa_crypto::paillier::{Ciphertext, PaillierPublicKey};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense `C × B` matrix of Paillier ciphertexts — the encrypted
/// counterpart of [`pisa_watch::IntMatrix`].
///
/// All operations take the public key explicitly so a matrix can be
/// moved between parties as plain data.
///
/// # Examples
///
/// ```
/// use pisa::CipherMatrix;
/// use pisa_crypto::paillier::PaillierKeyPair;
/// use pisa_watch::IntMatrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let kp = PaillierKeyPair::generate(&mut rng, 256);
/// let m = IntMatrix::from_fn(2, 2, |c, b| (c + b) as i128);
/// let enc = CipherMatrix::encrypt(&m, kp.public(), &mut rng);
/// let dec = enc.decrypt(kp.secret());
/// assert_eq!(dec, m);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct CipherMatrix {
    channels: usize,
    blocks: usize,
    data: Vec<Ciphertext>,
}

impl CipherMatrix {
    /// Encrypts every entry of a plaintext matrix with fresh randomness.
    pub fn encrypt<R: rand::Rng + ?Sized>(
        m: &pisa_watch::IntMatrix,
        pk: &PaillierPublicKey,
        rng: &mut R,
    ) -> Self {
        CipherMatrix {
            channels: m.channels(),
            blocks: m.blocks(),
            data: m
                .as_slice()
                .iter()
                .map(|&v| pk.encrypt(&i128_to_ibig(v), rng))
                .collect(),
        }
    }

    /// Deterministic encryption (r = 1) for **public** matrices such as
    /// **E** — not semantically secure, used only where the paper treats
    /// the data as public knowledge.
    pub fn encrypt_public(m: &pisa_watch::IntMatrix, pk: &PaillierPublicKey) -> Self {
        CipherMatrix {
            channels: m.channels(),
            blocks: m.blocks(),
            data: m
                .as_slice()
                .iter()
                .map(|&v| pk.encrypt_public_constant(&i128_to_ibig(v)))
                .collect(),
        }
    }

    /// A matrix of trivial encryptions of zero (the ⊕-identity).
    pub fn zeros(channels: usize, blocks: usize, pk: &PaillierPublicKey) -> Self {
        CipherMatrix {
            channels,
            blocks,
            data: (0..channels * blocks).map(|_| pk.trivial_zero()).collect(),
        }
    }

    /// Builds a matrix from raw ciphertexts (row-major, channel-major).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != channels * blocks`.
    pub fn from_ciphertexts(channels: usize, blocks: usize, data: Vec<Ciphertext>) -> Self {
        assert_eq!(data.len(), channels * blocks, "ciphertext count mismatch");
        CipherMatrix {
            channels,
            blocks,
            data,
        }
    }

    /// Channels `C`.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Blocks `B`.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Number of ciphertexts.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix has no entries (never for valid dims).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Entry `(c, b)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, c: usize, b: usize) -> &Ciphertext {
        &self.data[self.index(c, b)]
    }

    /// Replaces entry `(c, b)`.
    pub fn set(&mut self, c: usize, b: usize, ct: Ciphertext) {
        let i = self.index(c, b);
        self.data[i] = ct;
    }

    /// The flat ciphertext storage (channel-major).
    pub fn ciphertexts(&self) -> &[Ciphertext] {
        &self.data
    }

    /// Element-wise homomorphic addition ⊕.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &CipherMatrix, pk: &PaillierPublicKey) -> CipherMatrix {
        self.zip(other, |a, b| pk.add(a, b))
    }

    /// Element-wise homomorphic subtraction ⊖. Fails on the first
    /// non-unit (adversarial) ciphertext in `other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(
        &self,
        other: &CipherMatrix,
        pk: &PaillierPublicKey,
    ) -> Result<CipherMatrix, pisa_crypto::CryptoError> {
        self.try_zip(other, |a, b| pk.sub(a, b))
    }

    /// Scalar multiplication ⊗ of every entry by `k`. Fails on the first
    /// non-unit (adversarial) ciphertext when `k` is negative.
    pub fn scale(
        &self,
        k: &Ibig,
        pk: &PaillierPublicKey,
    ) -> Result<CipherMatrix, pisa_crypto::CryptoError> {
        Ok(CipherMatrix {
            channels: self.channels,
            blocks: self.blocks,
            data: self
                .data
                .iter()
                .map(|c| pk.scalar_mul(c, k))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Re-randomizes every entry (the paper's cheap request refresh).
    pub fn rerandomize<R: rand::Rng + ?Sized>(
        &self,
        pk: &PaillierPublicKey,
        rng: &mut R,
    ) -> CipherMatrix {
        CipherMatrix {
            channels: self.channels,
            blocks: self.blocks,
            data: self.data.iter().map(|c| pk.rerandomize(c, rng)).collect(),
        }
    }

    /// Decrypts every entry (test/diagnostic use by key holders).
    pub fn decrypt(&self, sk: &pisa_crypto::paillier::PaillierSecretKey) -> pisa_watch::IntMatrix {
        pisa_watch::IntMatrix::from_fn(self.channels, self.blocks, |c, b| {
            ibig_to_i128(&sk.decrypt(self.get(c, b)))
        })
    }

    /// Total serialized size in bytes: every ciphertext padded to the
    /// `n²` width (how the paper computes its 29 MB request size).
    pub fn wire_bytes(&self, pk: &PaillierPublicKey) -> usize {
        self.data.len() * pk.ciphertext_bytes()
    }

    fn index(&self, c: usize, b: usize) -> usize {
        assert!(
            c < self.channels && b < self.blocks,
            "index ({c}, {b}) out of {}x{} cipher matrix",
            self.channels,
            self.blocks
        );
        c * self.blocks + b
    }

    fn check_shape(&self, other: &CipherMatrix) {
        assert!(
            self.channels == other.channels && self.blocks == other.blocks,
            "cipher matrix shape mismatch"
        );
    }

    fn zip(
        &self,
        other: &CipherMatrix,
        f: impl Fn(&Ciphertext, &Ciphertext) -> Ciphertext,
    ) -> CipherMatrix {
        self.check_shape(other);
        CipherMatrix {
            channels: self.channels,
            blocks: self.blocks,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| f(a, b))
                .collect(),
        }
    }

    fn try_zip<E>(
        &self,
        other: &CipherMatrix,
        f: impl Fn(&Ciphertext, &Ciphertext) -> Result<Ciphertext, E>,
    ) -> Result<CipherMatrix, E> {
        self.check_shape(other);
        Ok(CipherMatrix {
            channels: self.channels,
            blocks: self.blocks,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| f(a, b))
                .collect::<Result<_, _>>()?,
        })
    }
}

impl fmt::Debug for CipherMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CipherMatrix({}x{})", self.channels, self.blocks)
    }
}

/// Converts a plaintext i128 into the signed big-integer domain.
pub(crate) fn i128_to_ibig(v: i128) -> Ibig {
    let magnitude = pisa_bigint::Ubig::from(v.unsigned_abs());
    let sign = if v < 0 {
        pisa_bigint::Sign::Negative
    } else {
        pisa_bigint::Sign::Positive
    };
    Ibig::from_sign_magnitude(sign, magnitude)
}

/// Converts back, panicking on overflow (plaintext domain values always
/// fit: quantizer width + headroom ≪ 127 bits).
pub(crate) fn ibig_to_i128(v: &Ibig) -> i128 {
    let mag = u128::try_from(v.magnitude()).expect("plaintext fits i128");
    let mag = i128::try_from(mag).expect("plaintext fits i128");
    if v.is_negative() {
        -mag
    } else {
        mag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pisa_crypto::paillier::PaillierKeyPair;
    use pisa_watch::IntMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn kp() -> PaillierKeyPair {
        let mut rng = StdRng::seed_from_u64(10);
        PaillierKeyPair::generate(&mut rng, 256)
    }

    #[test]
    fn i128_ibig_roundtrip() {
        for v in [i128::MIN + 1, -1, 0, 1, i128::MAX] {
            assert_eq!(ibig_to_i128(&i128_to_ibig(v)), v);
        }
    }

    #[test]
    fn encrypt_decrypt_matrix() {
        let kp = kp();
        let mut rng = StdRng::seed_from_u64(11);
        let m = IntMatrix::from_fn(3, 4, |c, b| c as i128 * 100 - b as i128);
        let enc = CipherMatrix::encrypt(&m, kp.public(), &mut rng);
        assert_eq!(enc.decrypt(kp.secret()), m);
    }

    #[test]
    fn homomorphic_matrix_ops() {
        let kp = kp();
        let mut rng = StdRng::seed_from_u64(12);
        let a = IntMatrix::from_fn(2, 3, |c, b| (c * 3 + b) as i128);
        let b = IntMatrix::from_fn(2, 3, |_, _| 10);
        let ea = CipherMatrix::encrypt(&a, kp.public(), &mut rng);
        let eb = CipherMatrix::encrypt(&b, kp.public(), &mut rng);

        assert_eq!(ea.add(&eb, kp.public()).decrypt(kp.secret()), &a + &b);
        assert_eq!(
            ea.sub(&eb, kp.public()).unwrap().decrypt(kp.secret()),
            &a - &b
        );
        assert_eq!(
            ea.scale(&Ibig::from(-3i64), kp.public())
                .unwrap()
                .decrypt(kp.secret()),
            a.scale(-3)
        );
    }

    #[test]
    fn rerandomize_changes_every_ciphertext() {
        let kp = kp();
        let mut rng = StdRng::seed_from_u64(13);
        let m = IntMatrix::from_fn(2, 2, |_, _| 7);
        let enc = CipherMatrix::encrypt(&m, kp.public(), &mut rng);
        let re = enc.rerandomize(kp.public(), &mut rng);
        for (a, b) in enc.ciphertexts().iter().zip(re.ciphertexts()) {
            assert_ne!(a, b);
        }
        assert_eq!(re.decrypt(kp.secret()), m);
    }

    #[test]
    fn wire_bytes_scales_with_entries() {
        let kp = kp();
        let m = IntMatrix::zeros(4, 25);
        let enc = CipherMatrix::encrypt_public(&m, kp.public());
        assert_eq!(
            enc.wire_bytes(kp.public()),
            100 * kp.public().ciphertext_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let kp = kp();
        let a = CipherMatrix::zeros(2, 2, kp.public());
        let b = CipherMatrix::zeros(2, 3, kp.public());
        let _ = a.add(&b, kp.public());
    }
}
