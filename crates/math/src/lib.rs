//! # ark-math — arithmetic substrate for the ARK reproduction
//!
//! Everything an RNS-CKKS implementation needs below the scheme level,
//! implemented from scratch:
//!
//! - [`modulus`] — word-sized prime fields with Barrett/Shoup reduction;
//! - [`primes`] — NTT-friendly prime generation (`q ≡ 1 mod 2N`);
//! - [`ntt`] — in-place table-driven radix-2 negacyclic NTT (the
//!   paper's evaluation representation; ARK's 4-step NTTU and its
//!   OF-Twist storage live in the `ark-core` cycle model);
//! - [`poly`] — RNS polynomials as flat limb-major `(limbs × N)` word
//!   buffers, read by row and written by limb-wise kernels;
//! - [`rows`] — fixed-width row kernels (the autovectorized inner loops
//!   of every RNS op); like the NTT, they subtract conditionally with
//!   the sign-mask [`modulus::csub`], because the compare-and-mask form
//!   compiled to branches (see [`ntt`]'s "Lazy reduction");
//! - [`scratch`] — recycling buffer arenas for allocation-free hot
//!   paths;
//! - [`bconv`] — fast base conversion (Eq. 4) and the BConvRoutine
//!   (Alg. 1);
//! - [`automorphism`] — the Galois maps behind `HRot`/conjugation and the
//!   strided-permutation property exploited by ARK's AutoU;
//! - [`par`] — limb-row fan-out on scoped threads, behind a work floor
//!   that keeps small operands on the caller (the host counterpart of
//!   the paper's parallel lanes);
//! - [`crt`] — minimal big integers + CRT reconstruction (test oracles);
//! - [`cfft`] — complex arithmetic and the CKKS special FFT (canonical
//!   embedding).
//!
//! # Examples
//!
//! ```
//! use ark_math::poly::{RnsBasis, RnsPoly, Representation};
//! use ark_math::primes::generate_ntt_primes;
//!
//! // A degree-16 ring with a 3-prime RNS basis.
//! let basis = RnsBasis::new(16, &generate_ntt_primes(16, 30, 3));
//! let mut p = RnsPoly::from_signed_coeffs(&basis, &[0, 1, 2], &[1i64; 16]);
//! p.to_eval(&basis);   // NTT on every limb
//! p.to_coeff(&basis);  // and back
//! assert_eq!(p.limb(0)[0], 1);
//! ```

#![forbid(unsafe_code)]

pub mod automorphism;
pub mod bconv;
pub mod cfft;
pub mod crt;
pub mod modulus;
pub mod ntt;
pub mod par;
pub mod poly;
pub mod primes;
pub mod rows;
pub mod scratch;
pub mod wire;

pub use modulus::Modulus;
pub use par::ThreadPool;
pub use poly::{Representation, RnsBasis, RnsPoly};
