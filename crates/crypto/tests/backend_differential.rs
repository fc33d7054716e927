//! Cross-backend differential harness for the AES layer.
//!
//! The three backends — byte-wise reference, T-table `fast`, bitsliced
//! constant-time `hardened` — must be ciphertext-identical on every input:
//! that equivalence is what lets `RMCC_BACKEND` change the timing profile
//! of the whole stack without moving a single golden fixture. This suite
//! pins it three ways, all through one shared matrix helper:
//!
//! * the NIST vector set (FIPS-197 appendices and SP 800-38A ECB
//!   vectors) against every backend, scalar and batched;
//! * property-generated random keys/plaintexts for AES-128 and AES-256;
//! * all-lanes and partial-batch (< 8 blocks) paths against the scalar
//!   path, per backend and across backends;
//! * lane-keyed schedules (a different key per lane) against per-key
//!   scalar encryption, for random lane → key maps and live-lane counts.

// Test harness: panicking on malformed fixtures is the failure mode we
// want, and seed-derived bytes truncate by design.
#![allow(clippy::expect_used, clippy::cast_possible_truncation)]
use proptest::prelude::*;
use rmcc_crypto::aes::{encrypt_u128_lanes, Aes, AesVariant, Backend, Block, BATCH_BLOCKS};
use rmcc_crypto::splitmix64_next;

const BACKENDS: [Backend; 3] = [Backend::Reference, Backend::Fast, Backend::Hardened];

/// Deterministic byte material from a seed (splitmix64 stream).
fn bytes_from_seed<const N: usize>(mut seed: u64) -> [u8; N] {
    core::array::from_fn(|_| splitmix64_next(&mut seed) as u8)
}

/// One schedule per backend for the same key.
fn schedule_matrix(key: &[u8], variant: AesVariant) -> Vec<(Backend, Aes)> {
    BACKENDS
        .iter()
        .map(|&b| {
            (
                b,
                Aes::expand_on(key, variant, b).expect("matrix key has the variant's length"),
            )
        })
        .collect()
}

/// The shared matrix helper: encrypts `pt` under `key` on every backend —
/// scalar, full 8-lane batch, and every partial batch width — asserts all
/// routes agree, and returns the agreed ciphertext.
fn agreed_ciphertext(key: &[u8], variant: AesVariant, pt: Block) -> Block {
    let matrix = schedule_matrix(key, variant);
    let mut agreed: Option<(Backend, Block)> = None;
    for (backend, aes) in &matrix {
        let scalar = aes.encrypt_block(pt);
        // Full batch: the block in all 8 lanes must give 8 copies.
        assert_eq!(
            aes.encrypt_batch8([pt; BATCH_BLOCKS]),
            [scalar; BATCH_BLOCKS],
            "{backend}: full batch diverged from scalar"
        );
        // Every partial width, including the 8-lane one.
        for n in 1..=BATCH_BLOCKS {
            let mut io = vec![pt; n];
            aes.encrypt_blocks(&mut io);
            assert_eq!(
                io,
                vec![scalar; n],
                "{backend}: partial batch of {n} diverged from scalar"
            );
        }
        match &agreed {
            None => agreed = Some((*backend, scalar)),
            Some((first, ct)) => {
                assert_eq!(scalar, *ct, "{backend} disagrees with {first}");
            }
        }
    }
    agreed.expect("matrix is never empty").1
}

/// A known-answer vector: key, plaintext, expected ciphertext.
struct Vector {
    name: &'static str,
    key: &'static [u8],
    pt: Block,
    ct: Block,
}

/// FIPS-197 appendix and NIST SP 800-38A ECB vectors for AES-128/AES-256.
fn nist_vectors() -> Vec<Vector> {
    const SP800_KEY_128: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    const SP800_KEY_256: [u8; 32] = [
        0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca, 0x71, 0xbe, 0x2b, 0x73, 0xae, 0xf0, 0x85, 0x7d, 0x77,
        0x81, 0x1f, 0x35, 0x2c, 0x07, 0x3b, 0x61, 0x08, 0xd7, 0x2d, 0x98, 0x10, 0xa3, 0x09, 0x14,
        0xdf, 0xf4,
    ];
    const SEQ_KEY_128: [u8; 16] = [
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
        0x0f,
    ];
    const SEQ_KEY_256: [u8; 32] = [
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
        0x0f, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b, 0x1c, 0x1d,
        0x1e, 0x1f,
    ];
    vec![
        Vector {
            name: "FIPS-197 Appendix B (AES-128)",
            key: &SP800_KEY_128,
            pt: [
                0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                0x07, 0x34,
            ],
            ct: [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32,
            ],
        },
        Vector {
            name: "FIPS-197 Appendix C.1 (AES-128)",
            key: &SEQ_KEY_128,
            pt: [
                0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
                0xee, 0xff,
            ],
            ct: [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a,
            ],
        },
        Vector {
            name: "FIPS-197 Appendix C.3 (AES-256)",
            key: &SEQ_KEY_256,
            pt: [
                0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
                0xee, 0xff,
            ],
            ct: [
                0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
                0x60, 0x89,
            ],
        },
        Vector {
            name: "SP 800-38A F.1.1 ECB-AES128 block 1",
            key: &SP800_KEY_128,
            pt: [
                0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
                0x17, 0x2a,
            ],
            ct: [
                0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
                0xef, 0x97,
            ],
        },
        Vector {
            name: "SP 800-38A F.1.1 ECB-AES128 block 2",
            key: &SP800_KEY_128,
            pt: [
                0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
                0x8e, 0x51,
            ],
            ct: [
                0xf5, 0xd3, 0xd5, 0x85, 0x03, 0xb9, 0x69, 0x9d, 0xe7, 0x85, 0x89, 0x5a, 0x96, 0xfd,
                0xba, 0xaf,
            ],
        },
        Vector {
            name: "SP 800-38A F.1.1 ECB-AES128 block 3",
            key: &SP800_KEY_128,
            pt: [
                0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a, 0x0a,
                0x52, 0xef,
            ],
            ct: [
                0x43, 0xb1, 0xcd, 0x7f, 0x59, 0x8e, 0xce, 0x23, 0x88, 0x1b, 0x00, 0xe3, 0xed, 0x03,
                0x06, 0x88,
            ],
        },
        Vector {
            name: "SP 800-38A F.1.1 ECB-AES128 block 4",
            key: &SP800_KEY_128,
            pt: [
                0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c,
                0x37, 0x10,
            ],
            ct: [
                0x7b, 0x0c, 0x78, 0x5e, 0x27, 0xe8, 0xad, 0x3f, 0x82, 0x23, 0x20, 0x71, 0x04, 0x72,
                0x5d, 0xd4,
            ],
        },
        Vector {
            name: "SP 800-38A F.1.5 ECB-AES256 block 1",
            key: &SP800_KEY_256,
            pt: [
                0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
                0x17, 0x2a,
            ],
            ct: [
                0xf3, 0xee, 0xd1, 0xbd, 0xb5, 0xd2, 0xa0, 0x3c, 0x06, 0x4b, 0x5a, 0x7e, 0x3d, 0xb1,
                0x81, 0xf8,
            ],
        },
        Vector {
            name: "SP 800-38A F.1.5 ECB-AES256 block 2",
            key: &SP800_KEY_256,
            pt: [
                0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
                0x8e, 0x51,
            ],
            ct: [
                0x59, 0x1c, 0xcb, 0x10, 0xd4, 0x10, 0xed, 0x26, 0xdc, 0x5b, 0xa7, 0x4a, 0x31, 0x36,
                0x28, 0x70,
            ],
        },
        Vector {
            name: "SP 800-38A F.1.5 ECB-AES256 block 3",
            key: &SP800_KEY_256,
            pt: [
                0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a, 0x0a,
                0x52, 0xef,
            ],
            ct: [
                0xb6, 0xed, 0x21, 0xb9, 0x9c, 0xa6, 0xf4, 0xf9, 0xf1, 0x53, 0xe7, 0xb1, 0xbe, 0xaf,
                0xed, 0x1d,
            ],
        },
        Vector {
            name: "SP 800-38A F.1.5 ECB-AES256 block 4",
            key: &SP800_KEY_256,
            pt: [
                0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c,
                0x37, 0x10,
            ],
            ct: [
                0x23, 0x30, 0x4b, 0x7a, 0x39, 0xf9, 0xf3, 0xff, 0x06, 0x7d, 0x8d, 0x8f, 0x9e, 0x24,
                0xec, 0xc7,
            ],
        },
    ]
}

/// The full NIST vector set through the matrix helper: every backend,
/// scalar and batched, must produce the published ciphertext.
#[test]
fn nist_vectors_pass_on_every_backend() {
    for v in nist_vectors() {
        let variant = if v.key.len() == 16 {
            AesVariant::Aes128
        } else {
            AesVariant::Aes256
        };
        assert_eq!(
            agreed_ciphertext(v.key, variant, v.pt),
            v.ct,
            "{} produced the wrong ciphertext",
            v.name
        );
    }
}

/// Distinct plaintexts in distinct lanes: each lane must encrypt to its
/// own scalar ciphertext, independent of its neighbors, on every backend.
#[test]
fn distinct_lanes_stay_independent_on_every_backend() {
    for variant in [AesVariant::Aes128, AesVariant::Aes256] {
        let key: [u8; 32] = bytes_from_seed(0xfeed);
        let key = &key[..variant.key_bytes()];
        for (backend, aes) in schedule_matrix(key, variant) {
            let blocks: [Block; BATCH_BLOCKS] =
                core::array::from_fn(|lane| bytes_from_seed(lane as u64 + 1));
            let batch = aes.encrypt_batch8(blocks);
            for (lane, (got, pt)) in batch.iter().zip(blocks.iter()).enumerate() {
                assert_eq!(
                    *got,
                    aes.encrypt_block(*pt),
                    "{backend} {variant}: lane {lane} leaked into its neighbors"
                );
            }
        }
    }
}

proptest! {
    /// Random AES-128 keys and plaintexts: all backends and all batch
    /// routes must agree.
    #[test]
    fn random_aes128_inputs_agree(kseed in any::<u64>(), pseed in any::<u64>()) {
        let key: [u8; 16] = bytes_from_seed(kseed);
        let pt: Block = bytes_from_seed(pseed);
        let _ = agreed_ciphertext(&key, AesVariant::Aes128, pt);
    }

    /// Random AES-256 keys and plaintexts: all backends and all batch
    /// routes must agree.
    #[test]
    fn random_aes256_inputs_agree(kseed in any::<u64>(), pseed in any::<u64>()) {
        let key: [u8; 32] = bytes_from_seed(kseed);
        let pt: Block = bytes_from_seed(pseed);
        let _ = agreed_ciphertext(&key, AesVariant::Aes256, pt);
    }

    /// Random partial batches of random widths: `encrypt_blocks` must
    /// match per-block scalar encryption on every backend, and the
    /// backends must match each other lane for lane.
    #[test]
    fn random_partial_batches_agree(seed in any::<u64>(), n in 1usize..9) {
        let key: [u8; 16] = bytes_from_seed(seed ^ 0xa5a5);
        let blocks: Vec<Block> = (0..n)
            .map(|i| bytes_from_seed(seed.wrapping_add(i as u64)))
            .collect();
        let mut outputs: Vec<Vec<Block>> = Vec::new();
        for (backend, aes) in schedule_matrix(&key, AesVariant::Aes128) {
            let mut io = blocks.clone();
            aes.encrypt_blocks(&mut io);
            for (lane, (got, pt)) in io.iter().zip(blocks.iter()).enumerate() {
                prop_assert_eq!(
                    *got,
                    aes.encrypt_block(*pt),
                    "{} lane {} of {} diverged from scalar",
                    backend,
                    lane,
                    n
                );
            }
            outputs.push(io);
        }
        for pair in outputs.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1], "backends disagree on a partial batch");
        }
    }

    /// The `u128` batch form (what the OTP pipeline drives) agrees with
    /// the scalar `u128` form on every backend.
    #[test]
    fn random_u128_batches_agree(seed in any::<u64>()) {
        let key: [u8; 16] = bytes_from_seed(seed ^ 0x5a5a);
        let inputs: [u128; BATCH_BLOCKS] = core::array::from_fn(|lane| {
            u128::from_be_bytes(bytes_from_seed(seed.wrapping_add(lane as u64 * 7)))
        });
        for (backend, aes) in schedule_matrix(&key, AesVariant::Aes128) {
            let batch = aes.encrypt_u128_batch8(inputs);
            for (lane, (got, input)) in batch.iter().zip(inputs.iter()).enumerate() {
                prop_assert_eq!(
                    *got,
                    aes.encrypt_u128(*input),
                    "{} lane {} diverged on the u128 route",
                    backend,
                    lane
                );
            }
        }
    }

    /// A lane-keyed call encrypts every live lane exactly as that lane's
    /// own key does on the scalar path, for any lane → key map over three
    /// random keys, any live-lane count, both variants, and every
    /// backend; lanes past the live count are left untouched.
    #[test]
    fn random_lane_keyed_schedules_match_per_key_scalar(
        seed in any::<u64>(),
        map in any::<u64>(),
        live in 0usize..10,
        wide in any::<bool>(),
    ) {
        let variant = if wide { AesVariant::Aes256 } else { AesVariant::Aes128 };
        let material: [[u8; 32]; 3] =
            core::array::from_fn(|k| bytes_from_seed(seed ^ (k as u64 + 1) * 0x1f1f));
        let inputs: Vec<u128> = (0..live)
            .map(|lane| u128::from_be_bytes(bytes_from_seed(seed.wrapping_add(lane as u64))))
            .collect();
        for backend in BACKENDS {
            let schedules: Vec<Aes> = material
                .iter()
                .map(|m| Aes::expand_on(&m[..variant.key_bytes()], variant, backend).expect("length"))
                .collect();
            let which: [usize; BATCH_BLOCKS] =
                core::array::from_fn(|lane| ((map >> (lane * 2)) % 3) as usize);
            let palette: Vec<&Aes> = schedules.iter().collect();
            let mut io = inputs.clone();
            encrypt_u128_lanes(&palette, &which, &mut io);
            for (lane, (got, input)) in io.iter().zip(&inputs).enumerate() {
                let want = if lane < BATCH_BLOCKS {
                    schedules[which[lane]].encrypt_u128(*input)
                } else {
                    *input
                };
                prop_assert_eq!(*got, want, "{} {} lane {} of {}", backend, variant, lane, live);
            }
        }
    }
}
