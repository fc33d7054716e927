//! One-time-pad (OTP) construction for counter-mode secure memory.
//!
//! Two OTP pipelines are provided, matching the paper:
//!
//! * [`SgxOtp`] — the baseline (Figure 2): a single AES invocation takes
//!   *both* the block's address and its write counter, so nothing can start
//!   until the counter is known.
//! * [`RmccOtp`] — RMCC's split pipeline (Figure 11): one AES depends only on
//!   the counter (`AES_k(0^72 ‖ ctr)`), another only on the address
//!   (`AES_k'(addr ‖ 0^64)`), and a truncated carry-less multiplication
//!   combines them. The counter-only half is what the memoization table
//!   stores; the address-only half is computed while DRAM is busy.
//!
//! Both pipelines derive **different pads for encryption and for MAC
//! generation** by using distinct AES keys, as SGX does (paper Figure 11
//! caption).

use std::cell::RefCell;

use crate::aes::{encrypt_u128_lanes, Aes, Backend, BATCH_BLOCKS};
use crate::clmul::clmul_truncate_mid;

/// Number of 128-bit words in a 64-byte memory block.
pub const WORDS_PER_BLOCK: usize = 4;

/// Width of a write counter in bits (SGX counters are 56-bit, §II-A).
pub const COUNTER_BITS: u32 = 56;

/// Maximum representable counter value (2^56 - 1).
pub const COUNTER_MAX: u64 = (1 << COUNTER_BITS) - 1;

/// What a pad will be used for. Encryption and MAC pads must differ for the
/// same (address, counter) pair, so each purpose uses its own AES key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PadPurpose {
    /// Pad XORed with plaintext/ciphertext.
    Encryption,
    /// Pad XORed with the GF dot product to form the MAC.
    Mac,
}

/// The set of AES keys a memory controller holds.
///
/// # Examples
///
/// ```
/// use rmcc_crypto::otp::KeySet;
///
/// let keys = KeySet::from_master(0xfeed_beef);
/// // Deterministic: the same master seed derives the same keys.
/// assert_eq!(
///     KeySet::from_master(0xfeed_beef).encryption().encrypt_u128(1),
///     keys.encryption().encrypt_u128(1),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct KeySet {
    /// Key for encryption pads (baseline) / counter-only AES (RMCC).
    enc: Aes,
    /// Key for MAC pads (baseline) / counter-only MAC AES (RMCC).
    mac: Aes,
    /// RMCC address-only AES key for encryption pads.
    addr_enc: Aes,
    /// RMCC address-only AES key for MAC pads.
    addr_mac: Aes,
}

impl KeySet {
    /// Derives four independent AES-128 keys from a master seed.
    ///
    /// Real hardware would use a DRBG seeded at boot; deriving via AES of
    /// distinct constants gives the same independence for simulation.
    pub fn from_master(master: u64) -> Self {
        Self::from_master_with(master, crate::aes::AesVariant::Aes128)
    }

    /// Derives the key set for a chosen AES variant. The paper's §VI
    /// sensitivity study models the "quantum safe" AES-256 (14 rounds,
    /// 22 ns); this constructor makes the functional engine match.
    ///
    /// The AES backend comes from `RMCC_BACKEND` ([`Backend::from_env`]);
    /// use [`KeySet::from_master_on`] to pin one explicitly.
    pub fn from_master_with(master: u64, variant: crate::aes::AesVariant) -> Self {
        Self::from_master_on(master, variant, Backend::from_env())
    }

    /// Derives the key set for a chosen AES variant on an explicit
    /// backend. Backends are ciphertext-identical, so the derived keys —
    /// and every pad ever produced from them — are bit-identical across
    /// backends; only the timing profile changes.
    pub fn from_master_on(master: u64, variant: crate::aes::AesVariant, backend: Backend) -> Self {
        let mut mk = [0u8; 16];
        let (mk_lo, mk_hi) = mk.split_at_mut(8);
        mk_lo.copy_from_slice(&master.to_be_bytes());
        mk_hi.copy_from_slice(&(!master).to_be_bytes());
        let root = Aes::new_128_on(&mk, backend);
        let derive = |label: u128| {
            let lo = root.encrypt_u128(label);
            match variant {
                crate::aes::AesVariant::Aes128 => Aes::new_128_on(&lo.to_be_bytes(), backend),
                crate::aes::AesVariant::Aes256 => {
                    let hi = root.encrypt_u128(label | 1 << 64);
                    let mut key = [0u8; 32];
                    let (key_lo, key_hi) = key.split_at_mut(16);
                    key_lo.copy_from_slice(&lo.to_be_bytes());
                    key_hi.copy_from_slice(&hi.to_be_bytes());
                    Aes::new_256_on(&key, backend)
                }
            }
        };
        KeySet {
            enc: derive(1),
            mac: derive(2),
            addr_enc: derive(3),
            addr_mac: derive(4),
        }
    }

    /// The AES variant the keys were expanded for.
    pub fn variant(&self) -> crate::aes::AesVariant {
        self.enc.variant()
    }

    /// The AES backend the keys were expanded on.
    pub fn backend(&self) -> Backend {
        self.enc.backend()
    }

    /// The encryption-pad key (counter-only key under RMCC).
    pub fn encryption(&self) -> &Aes {
        &self.enc
    }

    /// The MAC-pad key (counter-only MAC key under RMCC).
    pub fn mac(&self) -> &Aes {
        &self.mac
    }

    /// RMCC's address-only key for the given purpose.
    pub fn address_only(&self, purpose: PadPurpose) -> &Aes {
        match purpose {
            PadPurpose::Encryption => &self.addr_enc,
            PadPurpose::Mac => &self.addr_mac,
        }
    }

    /// The counter-only key for the given purpose (also the baseline key).
    pub fn counter_only(&self, purpose: PadPurpose) -> &Aes {
        match purpose {
            PadPurpose::Encryption => &self.enc,
            PadPurpose::Mac => &self.mac,
        }
    }
}

/// The pads needed to process one 64-byte block: four 128-bit encryption
/// pads (one per word) and one MAC pad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockPads {
    /// One pad per 128-bit word of the data block.
    pub words: [u128; WORDS_PER_BLOCK],
    /// Pad folded into the MAC computation.
    pub mac: u128,
}

/// An OTP construction: anything that can turn `(address, counter)` into the
/// pads for a block.
///
/// The trait is object-safe so simulators can switch pipelines at runtime.
pub trait OtpPipeline: Send {
    /// Computes all pads for the 64-byte block at `block_addr` (a *block*
    /// address, i.e. byte address / 64) with write counter `ctr`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `ctr` exceeds [`COUNTER_MAX`].
    fn block_pads(&self, block_addr: u64, ctr: u64) -> BlockPads;

    /// Computes only the MAC pad: exactly `block_pads(block_addr, ctr).mac`.
    ///
    /// Integrity-tree verification authenticates node images without ever
    /// decrypting them, so it needs none of the data-word pads. The default
    /// derives the full block and discards the words; implementations
    /// override it with the narrow pipeline so tree walks do not pay
    /// [`WORDS_PER_BLOCK`] wasted pad derivations per node.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `ctr` exceeds [`COUNTER_MAX`].
    fn mac_pad(&self, block_addr: u64, ctr: u64) -> u128 {
        // audit:allow(R5, reason = "counters are public metadata (stored in plaintext in the tree); deriving pads from (addr, ctr) is the pipeline contract")
        self.block_pads(block_addr, ctr).mac
    }

    /// Hints that the pads for these `(block_addr, ctr)` requests are
    /// about to be asked for, letting the pipeline derive them through a
    /// batched AES path ahead of time. `purpose` names what the caller
    /// will ask for next: [`PadPurpose::Encryption`] warms full
    /// [`BlockPads`] (data blocks, which are decrypted and MACed),
    /// [`PadPurpose::Mac`] only the MAC pad (tree-node images, which are
    /// authenticated but never decrypted).
    ///
    /// Purely a wall-clock accelerator: subsequent
    /// [`OtpPipeline::block_pads`]/[`OtpPipeline::mac_pad`] calls return
    /// bit-identical values whether or not this ran, and the caller's
    /// modeled crypto accounting is charged at request time either way.
    /// The default is a no-op (the baseline pipeline has no batch path and
    /// no memo to warm).
    fn warm_pads(&self, reqs: &[(u64, u64)], purpose: PadPurpose) {
        let _ = (reqs, purpose);
    }

    /// A short human-readable name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Packs the baseline AES input: `µ ‖ address ‖ word_index ‖ counter`
/// (Figure 2a: 8b + 56b + 8b + 56b = 128b).
fn sgx_tweak(block_addr: u64, word_index: u8, ctr: u64) -> u128 {
    debug_assert!(ctr <= COUNTER_MAX, "counter overflows 56 bits");
    let mu = 0x5au128; // fixed domain-separation byte, as in the MEE
    (mu << 120)
        | ((block_addr as u128 & ((1 << 56) - 1)) << 64)
        | ((word_index as u128) << 56)
        | (ctr as u128 & ((1 << 56) - 1))
}

/// Baseline SGX-style pipeline: one AES per pad, taking address *and*
/// counter together.
///
/// # Examples
///
/// ```
/// use rmcc_crypto::otp::{KeySet, OtpPipeline, SgxOtp};
///
/// let pipe = SgxOtp::new(KeySet::from_master(1));
/// let pads = pipe.block_pads(0x1000, 7);
/// // Different counters give completely different pads for the same block.
/// assert_ne!(pads, pipe.block_pads(0x1000, 8));
/// ```
#[derive(Clone)]
pub struct SgxOtp {
    keys: KeySet,
}

impl std::fmt::Debug for SgxOtp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never expose the key set through Debug output.
        f.debug_struct("SgxOtp").finish_non_exhaustive()
    }
}

impl SgxOtp {
    /// Creates the baseline pipeline over `keys`.
    pub fn new(keys: KeySet) -> Self {
        SgxOtp { keys }
    }
}

impl OtpPipeline for SgxOtp {
    /// One lane-keyed batch: the four word pads under the encryption key,
    /// then the MAC pad under the MAC key.
    fn block_pads(&self, block_addr: u64, ctr: u64) -> BlockPads {
        assert!(ctr <= COUNTER_MAX, "counter overflows 56 bits");
        let mut io = [0, 1, 2, 3, 0xff].map(|i| sgx_tweak(block_addr, i, ctr));
        encrypt_u128_lanes(&[&self.keys.enc, &self.keys.mac], &[0, 0, 0, 0, 1], &mut io);
        let [w0, w1, w2, w3, mac] = io;
        BlockPads {
            words: [w0, w1, w2, w3],
            mac,
        }
    }

    fn mac_pad(&self, block_addr: u64, ctr: u64) -> u128 {
        assert!(ctr <= COUNTER_MAX, "counter overflows 56 bits");
        self.keys.mac.encrypt_u128(sgx_tweak(block_addr, 0xff, ctr))
    }

    fn name(&self) -> &'static str {
        "sgx-baseline"
    }
}

/// Packs the address-only AES input for one 128-bit word of a block:
/// µ1 ‖ µ2 ‖ addr_56(word-granular) ‖ 0^64 — the word index is folded into
/// the low bits of the 56-bit address field, since each 128-bit word of a
/// block has its own address (Figure 2 / §II-A).
fn addr_input(block_addr: u64, word_index: u8) -> u128 {
    let word_addr = ((block_addr << 2) | word_index as u64) & ((1 << 56) - 1);
    let mu = 0xa5_00u128; // µ1 ‖ µ2 domain separation
    (mu << 112) | ((word_addr as u128) << 64)
}

// Indices of the split pipeline's four AES schedules in
// `RmccOtp::schedules`; every derivation lane runs one of them.
/// Address-only encryption key.
const ADDR_ENC: usize = 0;
/// Address-only MAC key.
const ADDR_MAC: usize = 1;
/// Counter-only encryption key.
const CTR_ENC: usize = 2;
/// Counter-only MAC key.
const CTR_MAC: usize = 3;

/// Lanes behind one block's address-only halves: the four `addr_enc`
/// words, then `addr_mac`.
const ADDR_LANES: usize = WORDS_PER_BLOCK + 1;

/// Most lanes one group of [`BATCH_BLOCKS`] requests can need: every
/// request missing its address halves and a counter of its own (`enc`,
/// `mac`).
const GROUP_LANES: usize = BATCH_BLOCKS * (ADDR_LANES + 2);

/// Slots in the block way (a power of two, like every table size here).
const BLOCK_SLOTS: usize = 1 << 12;

/// Slots in the node-MAC way.
const NODE_SLOTS: usize = 1 << 12;

/// Slots in the counter table.
const CTR_SLOTS: usize = 1 << 12;

/// The `ctr` of a never-filled slot. It lies above [`COUNTER_MAX`], and
/// every lookup checks its counter against that bound first, so no
/// request can match an empty slot — whatever its address.
const EMPTY: u64 = u64::MAX;

/// Direct-mapped slot of `key` in a table of `slots` entries (a power of
/// two): a multiplicative mix, taking the top bits so nearby addresses
/// and counter values spread apart.
fn slot_of(key: u64, slots: usize) -> usize {
    let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let shifted = mixed.checked_shr(64 - slots.trailing_zeros()).unwrap_or(0);
    usize::try_from(shifted).unwrap_or(0)
}

/// The address-only AES results of one block: `addr_enc` for each word
/// and `addr_mac`. They depend on nothing but the address, so one block
/// always gets the same values.
#[derive(Clone, Copy, Default)]
struct AddrHalves {
    words: [u128; WORDS_PER_BLOCK],
    mac: u128,
}

/// The counter-only AES results of one counter value: §IV-E's table
/// entry, 16 B for decryption plus 16 B for verification.
#[derive(Clone, Copy, Default)]
struct CtrHalves {
    enc: u128,
    mac: u128,
}

/// One block-way slot: a data block's address-only halves plus the last
/// `(ctr, pads)` it served, so an exact repeat costs one lookup.
#[derive(Clone, Copy)]
struct BlockSlot {
    addr: u64,
    ctr: u64,
    halves: AddrHalves,
    pads: BlockPads,
}

/// One node-MAC-way slot: a tree node's address-only MAC half plus the
/// last `(ctr, mac)` it served.
#[derive(Clone, Copy)]
struct NodeSlot {
    addr: u64,
    ctr: u64,
    amac: u128,
    mac: u128,
}

/// One counter-table slot: the counter-only halves of one counter value.
#[derive(Clone, Copy)]
struct CtrSlot {
    ctr: u64,
    halves: CtrHalves,
}

/// Bytes of pad memo per [`RmccOtp`] (one per shard): block way, node-MAC
/// way and counter table together.
pub const PAD_MEMO_BYTES: usize = CTR_SLOTS * std::mem::size_of::<CtrSlot>()
    + BLOCK_SLOTS * std::mem::size_of::<BlockSlot>()
    + NODE_SLOTS * std::mem::size_of::<NodeSlot>();

/// The split pipeline's memo — the paper's titular trick applied to the
/// reproduction's own wall clock. Each table is direct-mapped and keyed
/// by public metadata only: block and node addresses, counter values.
/// All three live in the same trust domain as the [`KeySet`]: halves and
/// pads are secret material and never leave the modeled memory
/// controller.
#[derive(Clone)]
struct SplitMemo {
    /// Block way, keyed by data-block address.
    blocks: Vec<BlockSlot>,
    /// Node-MAC way, keyed by tree-node address.
    nodes: Vec<NodeSlot>,
    /// Counter table, keyed by counter value.
    ctrs: Vec<CtrSlot>,
}

impl SplitMemo {
    fn new() -> Self {
        SplitMemo {
            blocks: vec![
                BlockSlot {
                    addr: 0,
                    ctr: EMPTY,
                    halves: AddrHalves::default(),
                    pads: BlockPads::default(),
                };
                BLOCK_SLOTS
            ],
            nodes: vec![
                NodeSlot {
                    addr: 0,
                    ctr: EMPTY,
                    amac: 0,
                    mac: 0,
                };
                NODE_SLOTS
            ],
            ctrs: vec![
                CtrSlot {
                    ctr: EMPTY,
                    halves: CtrHalves::default(),
                };
                CTR_SLOTS
            ],
        }
    }
}

/// Where one request finds a half: in the memo, or in the derivation
/// lanes starting at the given index.
#[derive(Clone, Copy)]
enum Half<T> {
    Memo(T),
    Lane(usize),
}

/// The AES lanes one group of requests still needs, in request order.
struct Lanes {
    io: [u128; GROUP_LANES],
    schedule_of: [usize; GROUP_LANES],
    len: usize,
}

impl Lanes {
    fn new() -> Self {
        Lanes {
            io: [0; GROUP_LANES],
            schedule_of: [0; GROUP_LANES],
            len: 0,
        }
    }

    /// Queues `(schedule, input)` lanes; returns the index of the first.
    fn push(&mut self, lanes: &[(usize, u128)]) -> usize {
        let first = self.len;
        for &(schedule, input) in lanes {
            if let (Some(s), Some(v)) = (
                self.schedule_of.get_mut(self.len),
                self.io.get_mut(self.len),
            ) {
                (*s, *v) = (schedule, input);
                self.len += 1;
            }
        }
        first
    }

    /// Encrypts every queued lane, [`BATCH_BLOCKS`] to a lane-keyed call.
    fn run(&mut self, schedules: &[&Aes]) {
        let io = self.io.get_mut(..self.len).unwrap_or_default();
        let schedule_of = self.schedule_of.get(..self.len).unwrap_or_default();
        for (io, schedule_of) in io
            .chunks_mut(BATCH_BLOCKS)
            .zip(schedule_of.chunks(BATCH_BLOCKS))
        {
            encrypt_u128_lanes(schedules, schedule_of, io);
        }
    }

    /// The output of lane `lane` (after [`Lanes::run`]).
    fn out(&self, lane: usize) -> u128 {
        self.io.get(lane).copied().unwrap_or(0)
    }
}

/// RMCC's split pipeline (Figure 11).
///
/// The two AES halves use asymmetric zero padding — the counter is
/// *prefixed* with 72 zero bits while the address is *suffixed* with 64 zero
/// bits — which eliminates the commutativity repeat class (§IV-D1: the OTP
/// for (addr = x, ctr = y) must differ from (addr = y, ctr = x)).
///
/// The pipeline memoizes the two halves the way the paper does, in three
/// direct-mapped tables ([`PAD_MEMO_BYTES`] in all):
///
/// * a **block way** keyed by data-block address holds the block's five
///   address-only halves and the last `(ctr, pads)` it served;
/// * a **node-MAC way** keyed by tree-node address holds the node's
///   address-only MAC half and the last `(ctr, mac)` it served;
/// * a **counter table** keyed by counter *value* holds the two
///   counter-only halves (§IV-E's table).
///
/// A request derives only the halves it misses and combines the rest, so
/// a write under a counter value already in the table costs clmuls and no
/// AES, and a relevel re-encrypting a region under one new counter
/// derives that counter once. The memo is *transparent* — hits return
/// bit-identical pads, and the engine's modeled crypto tally is charged
/// per request either way — so it only changes host wall clock, never
/// results or accounting.
///
/// Every derivation runs through [`encrypt_u128_lanes`]: the missing
/// halves of a request (or of a group of warmed requests) fill the lanes
/// of one batch, each lane under the key its purpose selects. On the
/// hardened backend that is one circuit per [`BATCH_BLOCKS`] lanes; the
/// table backends make exactly one call per live lane.
#[derive(Clone)]
pub struct RmccOtp {
    keys: KeySet,
    memo: RefCell<SplitMemo>,
}

impl std::fmt::Debug for RmccOtp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never expose the key set through Debug output.
        f.debug_struct("RmccOtp").finish_non_exhaustive()
    }
}

impl RmccOtp {
    /// Creates the split pipeline over `keys`.
    pub fn new(keys: KeySet) -> Self {
        RmccOtp {
            keys,
            memo: RefCell::new(SplitMemo::new()),
        }
    }

    /// The four AES schedules, in lane-schedule order ([`ADDR_ENC`],
    /// [`ADDR_MAC`], [`CTR_ENC`], [`CTR_MAC`]).
    fn schedules(&self) -> [&Aes; 4] {
        let k = &self.keys;
        [&k.addr_enc, &k.addr_mac, &k.enc, &k.mac]
    }

    /// The one lookup routine behind [`OtpPipeline::block_pads`],
    /// [`OtpPipeline::mac_pad`] and [`OtpPipeline::warm_pads`], for up to
    /// [`BATCH_BLOCKS`] requests: look every request up, derive only the
    /// missing halves — all of them through one lane queue, a counter
    /// value missing twice derived once — then combine and fill the memo.
    /// `purpose` picks the table: data blocks ([`PadPurpose::Encryption`],
    /// all five pads in `out[i]`) or tree nodes ([`PadPurpose::Mac`], only
    /// `out[i].mac`). Requests past `out` or past [`BATCH_BLOCKS`] are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if any counter exceeds [`COUNTER_MAX`].
    // audit:allow(R5, scope = fn, reason = "memo slots are addressed by block/node address and by counter value, all public metadata; the hit/miss pattern is the paper's architecturally visible memoization")
    fn serve(
        &self,
        memo: &mut SplitMemo,
        reqs: &[(u64, u64)],
        purpose: PadPurpose,
        out: &mut [BlockPads],
    ) {
        let mut plans: [Option<(Half<AddrHalves>, Half<CtrHalves>)>; BATCH_BLOCKS] =
            [None; BATCH_BLOCKS];
        let mut lanes = Lanes::new();
        // Counter values queued so far in this group, with their lanes.
        let mut queued = [(EMPTY, 0usize); BATCH_BLOCKS];
        for (((&(addr, ctr), pads), plan), queue) in
            reqs.iter().zip(out.iter_mut()).zip(&mut plans).zip(0..)
        {
            assert!(ctr <= COUNTER_MAX, "counter overflows 56 bits");
            let a0 = addr_input(addr, 0);
            let addr_half = match purpose {
                PadPurpose::Encryption => {
                    let slot = memo.blocks.get(slot_of(addr, BLOCK_SLOTS));
                    match slot.filter(|s| s.addr == addr && s.ctr != EMPTY) {
                        Some(s) if s.ctr == ctr => {
                            *pads = s.pads;
                            continue;
                        }
                        Some(s) => Half::Memo(s.halves),
                        None => Half::Lane(lanes.push(&[
                            (ADDR_ENC, a0),
                            (ADDR_ENC, addr_input(addr, 1)),
                            (ADDR_ENC, addr_input(addr, 2)),
                            (ADDR_ENC, addr_input(addr, 3)),
                            (ADDR_MAC, a0),
                        ])),
                    }
                }
                PadPurpose::Mac => {
                    let slot = memo.nodes.get(slot_of(addr, NODE_SLOTS));
                    match slot.filter(|s| s.addr == addr && s.ctr != EMPTY) {
                        Some(s) if s.ctr == ctr => {
                            pads.mac = s.mac;
                            continue;
                        }
                        Some(s) => Half::Memo(AddrHalves {
                            mac: s.amac,
                            ..AddrHalves::default()
                        }),
                        None => Half::Lane(lanes.push(&[(ADDR_MAC, a0)])),
                    }
                }
            };
            let hit = memo
                .ctrs
                .get(slot_of(ctr, CTR_SLOTS))
                .filter(|s| s.ctr == ctr);
            let earlier = queued.iter().take(queue).find(|(c, _)| *c == ctr);
            let ctr_half = match (hit, earlier) {
                (Some(s), _) => Half::Memo(s.halves),
                (None, Some(&(_, lane))) => Half::Lane(lane),
                (None, None) => {
                    // 0^72 ‖ ctr_56 (Figure 11 left input), through both
                    // counter keys.
                    let lane = lanes.push(&[(CTR_ENC, ctr as u128), (CTR_MAC, ctr as u128)]);
                    if let Some(q) = queued.get_mut(queue) {
                        *q = (ctr, lane);
                    }
                    Half::Lane(lane)
                }
            };
            *plan = Some((addr_half, ctr_half));
        }
        lanes.run(&self.schedules());
        for ((&(addr, ctr), pads), plan) in reqs.iter().zip(out.iter_mut()).zip(plans) {
            let Some((addr_half, ctr_half)) = plan else {
                continue;
            };
            let ctr_halves = match ctr_half {
                Half::Memo(h) => h,
                Half::Lane(l) => {
                    let h = CtrHalves {
                        enc: lanes.out(l),
                        mac: lanes.out(l + 1),
                    };
                    if let Some(slot) = memo.ctrs.get_mut(slot_of(ctr, CTR_SLOTS)) {
                        *slot = CtrSlot { ctr, halves: h };
                    }
                    h
                }
            };
            let halves = match addr_half {
                Half::Memo(h) => h,
                Half::Lane(l) => match purpose {
                    PadPurpose::Encryption => AddrHalves {
                        words: std::array::from_fn(|w| lanes.out(l + w)),
                        mac: lanes.out(l + WORDS_PER_BLOCK),
                    },
                    PadPurpose::Mac => AddrHalves {
                        mac: lanes.out(l),
                        ..AddrHalves::default()
                    },
                },
            };
            pads.mac = Self::combine(ctr_halves.mac, halves.mac);
            match purpose {
                PadPurpose::Encryption => {
                    pads.words = halves.words.map(|a| Self::combine(ctr_halves.enc, a));
                    if let Some(slot) = memo.blocks.get_mut(slot_of(addr, BLOCK_SLOTS)) {
                        *slot = BlockSlot {
                            addr,
                            ctr,
                            halves,
                            pads: *pads,
                        };
                    }
                }
                PadPurpose::Mac => {
                    if let Some(slot) = memo.nodes.get_mut(slot_of(addr, NODE_SLOTS)) {
                        *slot = NodeSlot {
                            addr,
                            ctr,
                            amac: halves.mac,
                            mac: pads.mac,
                        };
                    }
                }
            }
        }
    }

    /// The counter-only AES result for `ctr` — exactly the value RMCC's
    /// memoization table stores per purpose (16 B for decryption + 16 B for
    /// verification per entry, §IV-E).
    ///
    /// # Panics
    ///
    /// Panics if `ctr` exceeds [`COUNTER_MAX`].
    pub fn counter_only(&self, ctr: u64, purpose: PadPurpose) -> u128 {
        assert!(ctr <= COUNTER_MAX, "counter overflows 56 bits");
        // 0^72 ‖ ctr_56 (Figure 11 left input).
        self.keys.counter_only(purpose).encrypt_u128(ctr as u128)
    }

    /// The address-only AES result for one 128-bit word of a block.
    ///
    /// Address-only results are always fast to produce because the MC knows
    /// the address as soon as the request arrives (§IV).
    pub fn address_only(&self, block_addr: u64, word_index: u8, purpose: PadPurpose) -> u128 {
        self.keys
            .address_only(purpose)
            .encrypt_u128(addr_input(block_addr, word_index))
    }

    /// Derives full block pads for up to [`BATCH_BLOCKS`] `(block_addr,
    /// ctr)` requests at once, driving each AES key's 8-wide batch entry
    /// point so the hardened backend runs one circuit evaluation per key
    /// per word instead of one per lane.
    ///
    /// Lane `i` of the result corresponds to `reqs[i]` and is
    /// bit-identical to `block_pads(reqs[i].0, reqs[i].1)`; lanes past
    /// `reqs.len()` are derived for the all-zero request and must be
    /// discarded by the caller. The memo is neither consulted nor
    /// updated — this is the raw derivation.
    ///
    /// # Panics
    ///
    /// Panics if any counter exceeds [`COUNTER_MAX`].
    pub fn block_pads_batch8(&self, reqs: &[(u64, u64)]) -> [BlockPads; BATCH_BLOCKS] {
        let mut lanes = [(0u64, 0u64); BATCH_BLOCKS];
        for (slot, req) in lanes.iter_mut().zip(reqs.iter()) {
            assert!(req.1 <= COUNTER_MAX, "counter overflows 56 bits");
            *slot = *req;
        }
        // 0^72 ‖ ctr_56 per lane (Figure 11 left input), through both
        // counter keys.
        let ctr_in = lanes.map(|(_, ctr)| ctr as u128);
        let ctr_enc = self.keys.enc.encrypt_u128_batch8(ctr_in);
        let ctr_mac = self.keys.mac.encrypt_u128_batch8(ctr_in);
        // Address-only halves: one 8-wide batch per word index, plus one
        // for the MAC (which uses word 0 under the MAC address key).
        let addr_in = |w: u8| lanes.map(|(addr, _)| addr_input(addr, w));
        let ae0 = self.keys.addr_enc.encrypt_u128_batch8(addr_in(0));
        let ae1 = self.keys.addr_enc.encrypt_u128_batch8(addr_in(1));
        let ae2 = self.keys.addr_enc.encrypt_u128_batch8(addr_in(2));
        let ae3 = self.keys.addr_enc.encrypt_u128_batch8(addr_in(3));
        let am = self.keys.addr_mac.encrypt_u128_batch8(addr_in(0));
        let mut out = [BlockPads::default(); BATCH_BLOCKS];
        let halves = ctr_enc
            .into_iter()
            .zip(ctr_mac)
            .zip(ae0)
            .zip(ae1)
            .zip(ae2)
            .zip(ae3)
            .zip(am);
        for (pads, ((((((ce, cm), a0), a1), a2), a3), amac)) in out.iter_mut().zip(halves) {
            pads.words = [
                Self::combine(ce, a0),
                Self::combine(ce, a1),
                Self::combine(ce, a2),
                Self::combine(ce, a3),
            ];
            pads.mac = Self::combine(cm, amac);
        }
        out
    }

    /// Combines a counter-only and an address-only AES result into the final
    /// pad: `truncate_mid(clmul(counter_only, address_only))`.
    pub fn combine(counter_only: u128, address_only: u128) -> u128 {
        clmul_truncate_mid(counter_only, address_only)
    }

    /// Full pad for a single word, going through the split pipeline.
    pub fn word_pad(&self, block_addr: u64, word_index: u8, ctr: u64, purpose: PadPurpose) -> u128 {
        Self::combine(
            self.counter_only(ctr, purpose),
            self.address_only(block_addr, word_index, purpose),
        )
    }
}

impl OtpPipeline for RmccOtp {
    // audit:allow(R5, scope = fn, reason = "memo slots are addressed by block address and counter value, both public metadata; the hit/miss pattern is the paper's architecturally visible memoization")
    fn block_pads(&self, block_addr: u64, ctr: u64) -> BlockPads {
        // Checked before any lookup: an empty slot holds counter
        // `u64::MAX`, which no request may match.
        assert!(ctr <= COUNTER_MAX, "counter overflows 56 bits");
        // `try_borrow_mut` instead of `borrow_mut`: the memo is a pure
        // accelerator, so on the (impossible today) reentrant path we just
        // derive without it rather than risk a panic in a trusted crate.
        let Ok(mut memo) = self.memo.try_borrow_mut() else {
            let [pads, ..] = self.block_pads_batch8(&[(block_addr, ctr)]);
            return pads;
        };
        // An exact repeat needs no lane queue at all (measured: ~11% of
        // `kv_resident` throughput, where nearly every lookup repeats).
        if let Some(slot) = memo.blocks.get(slot_of(block_addr, BLOCK_SLOTS)) {
            if slot.addr == block_addr && slot.ctr == ctr {
                return slot.pads;
            }
        }
        let mut pads = [BlockPads::default()];
        self.serve(
            &mut memo,
            &[(block_addr, ctr)],
            PadPurpose::Encryption,
            &mut pads,
        );
        let [pads] = pads;
        pads
    }

    // audit:allow(R5, scope = fn, reason = "memo slots are addressed by node address and counter value, both public metadata; the hit/miss pattern is the paper's architecturally visible memoization")
    fn mac_pad(&self, block_addr: u64, ctr: u64) -> u128 {
        assert!(ctr <= COUNTER_MAX, "counter overflows 56 bits");
        let Ok(mut memo) = self.memo.try_borrow_mut() else {
            let [pads, ..] = self.block_pads_batch8(&[(block_addr, ctr)]);
            return pads.mac;
        };
        if let Some(slot) = memo.nodes.get(slot_of(block_addr, NODE_SLOTS)) {
            if slot.addr == block_addr && slot.ctr == ctr {
                return slot.mac;
            }
        }
        let mut pads = [BlockPads::default()];
        self.serve(&mut memo, &[(block_addr, ctr)], PadPurpose::Mac, &mut pads);
        let [pads] = pads;
        pads.mac
    }

    /// Warms the memo through [`RmccOtp`]'s one lookup routine,
    /// [`BATCH_BLOCKS`] requests at a time: each group's missing halves
    /// share lane-keyed batches. [`PadPurpose::Encryption`] fills the
    /// block way, [`PadPurpose::Mac`] the node-MAC way; both fill the
    /// counter table. Correctness-neutral by construction — hits serve
    /// bit-identical pads, and evictions only cost a re-derivation later.
    fn warm_pads(&self, reqs: &[(u64, u64)], purpose: PadPurpose) {
        let Ok(mut memo) = self.memo.try_borrow_mut() else {
            return;
        };
        let mut out = [BlockPads::default(); BATCH_BLOCKS];
        for group in reqs.chunks(BATCH_BLOCKS) {
            self.serve(&mut memo, group, purpose, &mut out);
        }
    }

    fn name(&self) -> &'static str {
        "rmcc-split"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> KeySet {
        KeySet::from_master(0x1234_5678)
    }

    #[test]
    fn sgx_pads_vary_with_counter_and_address() {
        let p = SgxOtp::new(keys());
        let a = p.block_pads(10, 1);
        assert_ne!(a, p.block_pads(10, 2), "counter must change pads");
        assert_ne!(a, p.block_pads(11, 1), "address must change pads");
    }

    #[test]
    fn sgx_word_pads_differ_within_a_block() {
        let p = SgxOtp::new(keys());
        let pads = p.block_pads(42, 3);
        for i in 0..WORDS_PER_BLOCK {
            for j in (i + 1)..WORDS_PER_BLOCK {
                assert_ne!(pads.words[i], pads.words[j]);
            }
        }
    }

    #[test]
    fn mac_pad_differs_from_encryption_pads() {
        for pads in [
            SgxOtp::new(keys()).block_pads(42, 3),
            RmccOtp::new(keys()).block_pads(42, 3),
        ] {
            for w in pads.words {
                assert_ne!(w, pads.mac);
            }
        }
    }

    #[test]
    fn rmcc_pads_vary_with_counter_and_address() {
        let p = RmccOtp::new(keys());
        let a = p.block_pads(10, 1);
        assert_ne!(a, p.block_pads(10, 2));
        assert_ne!(a, p.block_pads(11, 1));
    }

    #[test]
    fn rmcc_swap_of_address_and_counter_does_not_repeat() {
        // §IV-D1 type-A repeats: OTP(addr=x, ctr=y) vs OTP(addr=y, ctr=x).
        let p = RmccOtp::new(keys());
        let x = 6u64;
        let y = 20u64;
        assert_ne!(
            p.word_pad(x, 0, y, PadPurpose::Encryption),
            p.word_pad(y, 0, x, PadPurpose::Encryption)
        );
    }

    #[test]
    fn rmcc_combine_matches_block_pads() {
        let p = RmccOtp::new(keys());
        let pads = p.block_pads(77, 9);
        for i in 0..WORDS_PER_BLOCK {
            assert_eq!(
                pads.words[i],
                p.word_pad(77, i as u8, 9, PadPurpose::Encryption)
            );
        }
    }

    #[test]
    fn mac_pad_matches_full_block_pads() {
        // The narrow verification pipeline must be bit-identical to the MAC
        // pad of the full derivation, for every pipeline, across addresses
        // and counters — otherwise tree walks and writes would disagree.
        let pipes: [Box<dyn OtpPipeline>; 2] = [
            Box::new(SgxOtp::new(keys())),
            Box::new(RmccOtp::new(keys())),
        ];
        for p in &pipes {
            for (addr, ctr) in [(0u64, 0u64), (77, 9), (1 << 40, 12345), (3, COUNTER_MAX)] {
                assert_eq!(
                    p.mac_pad(addr, ctr),
                    p.block_pads(addr, ctr).mac,
                    "{} diverged at addr={addr} ctr={ctr}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn counter_only_is_address_independent() {
        // This independence is the entire point: one memoized value serves
        // every block in memory.
        let p = RmccOtp::new(keys());
        let c = p.counter_only(12345, PadPurpose::Encryption);
        for addr in [0u64, 1, 0xffff, 1 << 40] {
            let pad = RmccOtp::combine(c, p.address_only(addr, 0, PadPurpose::Encryption));
            assert_eq!(pad, p.word_pad(addr, 0, 12345, PadPurpose::Encryption));
        }
    }

    #[test]
    #[should_panic(expected = "counter overflows")]
    fn counter_overflow_panics() {
        let p = RmccOtp::new(keys());
        let _ = p.counter_only(COUNTER_MAX + 1, PadPurpose::Encryption);
    }

    #[test]
    fn aes256_keyset_roundtrips_and_differs() {
        use crate::aes::AesVariant;
        let k128 = KeySet::from_master_with(9, AesVariant::Aes128);
        let k256 = KeySet::from_master_with(9, AesVariant::Aes256);
        assert_eq!(k128.variant(), AesVariant::Aes128);
        assert_eq!(k256.variant(), AesVariant::Aes256);
        let p128 = RmccOtp::new(k128);
        let p256 = RmccOtp::new(k256);
        assert_ne!(
            p128.block_pads(10, 1),
            p256.block_pads(10, 1),
            "variants must produce different pads"
        );
        // Deterministic per variant.
        let again = RmccOtp::new(KeySet::from_master_with(9, AesVariant::Aes256));
        assert_eq!(p256.block_pads(10, 1), again.block_pads(10, 1));
    }

    /// The batch derivation must be bit-identical, lane for lane, to the
    /// scalar path — for full and partial batches, on both the fast and
    /// hardened backends, and across backends.
    #[test]
    fn block_pads_batch8_matches_scalar_on_both_backends() {
        use crate::aes::AesVariant;
        let reqs: Vec<(u64, u64)> = vec![
            (0, 0),
            (77, 9),
            (1 << 40, 12345),
            (3, COUNTER_MAX),
            (500, 1),
            (500, 2),
            (501, 1),
            (0xdead_beef, 42),
        ];
        let fast = RmccOtp::new(KeySet::from_master_on(
            0x1234_5678,
            AesVariant::Aes128,
            Backend::Fast,
        ));
        let hard = RmccOtp::new(KeySet::from_master_on(
            0x1234_5678,
            AesVariant::Aes128,
            Backend::Hardened,
        ));
        for n in 1..=reqs.len() {
            let group = &reqs[..n];
            let batch_fast = fast.block_pads_batch8(group);
            let batch_hard = hard.block_pads_batch8(group);
            for (lane, (addr, ctr)) in group.iter().enumerate() {
                let scalar = fast.block_pads(*addr, *ctr);
                assert_eq!(batch_fast[lane], scalar, "fast lane {lane} of {n}");
                assert_eq!(batch_hard[lane], scalar, "hardened lane {lane} of {n}");
            }
        }
    }

    /// Seeded `(addr, ctr)` pairs plus the counter-space edges.
    fn seeded_pairs(n: u64) -> Vec<(u64, u64)> {
        let mut x = 0x5eed_u64;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut pairs = vec![(0, 0), (0, COUNTER_MAX), (u64::MAX, COUNTER_MAX), (77, 0)];
        pairs.extend((0..n).map(|_| (next() >> 20, next() & COUNTER_MAX)));
        pairs
    }

    fn pipeline_on(backend: Backend, variant: crate::aes::AesVariant) -> RmccOtp {
        RmccOtp::new(KeySet::from_master_on(0x1234_5678, variant, backend))
    }

    /// The lane-keyed derivation is backend-invisible: fresh pipelines on
    /// every backend serve identical block and MAC pads, memo miss or hit,
    /// and the pads are the scalar split pipeline's.
    #[test]
    fn fresh_pipelines_agree_across_backends() {
        use crate::aes::AesVariant;
        for variant in [AesVariant::Aes128, AesVariant::Aes256] {
            let fast = pipeline_on(Backend::Fast, variant);
            let others = [
                pipeline_on(Backend::Hardened, variant),
                pipeline_on(Backend::Reference, variant),
            ];
            for (addr, ctr) in seeded_pairs(24) {
                let want = fast.block_pads(addr, ctr);
                for w in 0..WORDS_PER_BLOCK {
                    let word = fast.word_pad(addr, w as u8, ctr, PadPurpose::Encryption);
                    assert_eq!(want.words[w], word, "{variant} word {w} at {addr}/{ctr}");
                }
                assert_eq!(want.mac, fast.word_pad(addr, 0, ctr, PadPurpose::Mac));
                for p in &others {
                    // mac_pad first so the MAC way misses on its own path.
                    assert_eq!(p.mac_pad(addr, ctr), want.mac, "{variant} {addr}/{ctr}");
                    assert_eq!(p.block_pads(addr, ctr), want, "{variant} {addr}/{ctr}");
                    assert_eq!(p.block_pads(addr, ctr), want, "memo hit {addr}/{ctr}");
                }
            }
        }
    }

    /// The lookup routine serves every group size, for tree nodes and
    /// for data blocks, exactly the memo-free derivation on every
    /// backend; requests past a group are ignored, and a MAC warm leaves
    /// the memo serving identical pads.
    #[test]
    fn grouped_lookups_match_the_memo_free_derivation() {
        use crate::aes::AesVariant;
        let reqs = seeded_pairs(9);
        let cold = pipeline_on(Backend::Fast, AesVariant::Aes128);
        for backend in [Backend::Fast, Backend::Hardened, Backend::Reference] {
            for k in 1..=BATCH_BLOCKS + 1 {
                let p = pipeline_on(backend, AesVariant::Aes128);
                let mut memo = p.memo.borrow_mut();
                let want = cold.block_pads_batch8(&reqs[..k]);
                let mut macs = [BlockPads::default(); BATCH_BLOCKS];
                let mut blocks = [BlockPads::default(); BATCH_BLOCKS];
                p.serve(&mut memo, &reqs[..k], PadPurpose::Mac, &mut macs);
                p.serve(&mut memo, &reqs[..k], PadPurpose::Encryption, &mut blocks);
                for i in 0..k.min(BATCH_BLOCKS) {
                    assert_eq!(macs[i].mac, want[i].mac, "{backend} node {i} of {k}");
                    assert_eq!(blocks[i], want[i], "{backend} block {i} of {k}");
                }
            }
            let warmed = pipeline_on(backend, AesVariant::Aes128);
            warmed.warm_pads(&reqs, PadPurpose::Mac);
            warmed.warm_pads(&reqs, PadPurpose::Mac);
            for (addr, ctr) in &reqs {
                assert_eq!(warmed.mac_pad(*addr, *ctr), cold.mac_pad(*addr, *ctr));
                assert_eq!(warmed.block_pads(*addr, *ctr), cold.block_pads(*addr, *ctr));
            }
        }
    }

    /// The first `n` keys after `base` (stepping by `step`) that share
    /// `base`'s slot in a table of `slots` entries.
    fn slot_mates(base: u64, step: i64, slots: usize, n: usize) -> Vec<u64> {
        (1..)
            .map(|i: i64| base.wrapping_add_signed(i * step))
            .filter(|k| slot_of(*k, slots) == slot_of(base, slots))
            .take(n)
            .collect()
    }

    /// A seeded interleaving of `block_pads`, `mac_pad` and both warms
    /// over a small key space built to conflict — addresses sharing a
    /// block-way or node-way slot, counters sharing a counter-table slot,
    /// and the edge keys `0`/`u64::MAX` and `0`/`COUNTER_MAX` — serves
    /// exactly the memo-free derivation on all three backends. An empty
    /// slot must never match a request, whatever its address.
    #[test]
    fn memo_matches_the_memo_free_derivation_under_conflicts() {
        use crate::aes::AesVariant;
        let mut addrs = vec![0, u64::MAX, 5, 1 << 40];
        addrs.extend(slot_mates(0, 1, BLOCK_SLOTS, 2));
        addrs.extend(slot_mates(u64::MAX, -1, BLOCK_SLOTS, 1));
        addrs.extend(slot_mates(0, 1, NODE_SLOTS, 1));
        addrs.extend(slot_mates(u64::MAX, -1, NODE_SLOTS, 2));
        let mut ctrs = vec![0, COUNTER_MAX, 1, 77];
        ctrs.extend(slot_mates(0, 1, CTR_SLOTS, 2));
        ctrs.extend(slot_mates(COUNTER_MAX, -1, CTR_SLOTS, 2));
        assert!(ctrs.iter().all(|c| *c <= COUNTER_MAX));
        let reference = pipeline_on(Backend::Fast, AesVariant::Aes128);
        let want = |addr: u64, ctr: u64| {
            let [pads, ..] = reference.block_pads_batch8(&[(addr, ctr)]);
            pads
        };
        for (addr, ctr) in [(0, 0), (u64::MAX, COUNTER_MAX), (u64::MAX, 0)] {
            let w = want(addr, ctr);
            for (i, word) in (0u8..).zip(w.words) {
                assert_eq!(
                    word,
                    reference.word_pad(addr, i, ctr, PadPurpose::Encryption)
                );
            }
            assert_eq!(w.mac, reference.word_pad(addr, 0, ctr, PadPurpose::Mac));
        }
        for backend in [Backend::Fast, Backend::Hardened, Backend::Reference] {
            let p = pipeline_on(backend, AesVariant::Aes128);
            // Edge keys first, while every slot is still empty.
            for addr in [u64::MAX, 0] {
                assert_eq!(
                    p.mac_pad(addr, 0),
                    want(addr, 0).mac,
                    "{backend} empty node way"
                );
                assert_eq!(
                    p.block_pads(addr, 0),
                    want(addr, 0),
                    "{backend} empty block way"
                );
            }
            let mut x = 0x0c0f_11c7_u64;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for step in 0..600 {
                let mut pick = || {
                    let r = next();
                    let addr = addrs[(r % addrs.len() as u64) as usize];
                    (addr, ctrs[((r >> 32) % ctrs.len() as u64) as usize])
                };
                let (addr, ctr) = pick();
                match step % 4 {
                    0 => assert_eq!(p.block_pads(addr, ctr), want(addr, ctr), "{backend} {step}"),
                    1 => assert_eq!(
                        p.mac_pad(addr, ctr),
                        want(addr, ctr).mac,
                        "{backend} {step}"
                    ),
                    k => {
                        let reqs: Vec<(u64, u64)> = (0..step % 11).map(|_| pick()).collect();
                        let purpose = if k == 2 {
                            PadPurpose::Encryption
                        } else {
                            PadPurpose::Mac
                        };
                        p.warm_pads(&reqs, purpose);
                    }
                }
            }
        }
    }

    /// The memo stays under the 2 MiB per shard of the `(address,
    /// counter)` pad cache it replaced.
    #[test]
    fn pad_memo_fits_its_budget() {
        assert!(PAD_MEMO_BYTES < 2_097_152, "{PAD_MEMO_BYTES} B");
    }

    /// The baseline pipeline's lane-keyed batch is backend-invisible:
    /// fast, hardened and reference serve identical pads, equal to one
    /// scalar AES per pad.
    #[test]
    fn sgx_pads_agree_across_backends() {
        use crate::aes::AesVariant;
        let on = |backend| {
            SgxOtp::new(KeySet::from_master_on(
                0x1234_5678,
                AesVariant::Aes128,
                backend,
            ))
        };
        let fast = on(Backend::Fast);
        let others = [on(Backend::Hardened), on(Backend::Reference)];
        for (addr, ctr) in seeded_pairs(16) {
            let want = fast.block_pads(addr, ctr);
            for (i, word) in (0u8..).zip(want.words) {
                let tweak = sgx_tweak(addr, i, ctr);
                assert_eq!(word, fast.keys.encryption().encrypt_u128(tweak));
            }
            let tweak = sgx_tweak(addr, 0xff, ctr);
            assert_eq!(want.mac, fast.keys.mac().encrypt_u128(tweak));
            for p in &others {
                assert_eq!(p.block_pads(addr, ctr), want, "{addr}/{ctr}");
                assert_eq!(p.mac_pad(addr, ctr), want.mac, "{addr}/{ctr}");
            }
        }
    }

    /// Warming the memo must not change anything observable: pads served
    /// after a warm are bit-identical to a cold pipeline's.
    #[test]
    fn warm_pads_is_correctness_neutral() {
        let warmed = RmccOtp::new(keys());
        let cold = RmccOtp::new(keys());
        let reqs: Vec<(u64, u64)> = (0..23).map(|i| (i * 37 % 11, i)).collect();
        warmed.warm_pads(&reqs, PadPurpose::Encryption);
        // Warming twice (all hits the second time) is also a no-op.
        warmed.warm_pads(&reqs, PadPurpose::Encryption);
        for (addr, ctr) in &reqs {
            assert_eq!(
                warmed.block_pads(*addr, *ctr),
                cold.block_pads(*addr, *ctr),
                "block pads diverged at addr={addr} ctr={ctr}"
            );
            assert_eq!(
                warmed.mac_pad(*addr, *ctr),
                cold.mac_pad(*addr, *ctr),
                "mac pad diverged at addr={addr} ctr={ctr}"
            );
        }
        // The default trait impl is a no-op and must also be harmless.
        let sgx = SgxOtp::new(keys());
        sgx.warm_pads(&reqs, PadPurpose::Mac);
        assert_eq!(sgx.block_pads(1, 1), SgxOtp::new(keys()).block_pads(1, 1));
    }

    #[test]
    #[should_panic(expected = "counter overflows")]
    fn batch_counter_overflow_panics() {
        let p = RmccOtp::new(keys());
        let _ = p.block_pads_batch8(&[(1, COUNTER_MAX + 1)]);
    }

    /// An empty memo slot holds address 0 and counter `u64::MAX`; an
    /// over-range counter on a fresh pipeline must still panic rather than
    /// match that slot in the exact-repeat fast path and serve a zero pad.
    #[test]
    #[should_panic(expected = "counter overflows")]
    fn fresh_block_pads_counter_overflow_panics() {
        let p = RmccOtp::new(keys());
        let _ = p.block_pads(0, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "counter overflows")]
    fn block_pads_counter_overflow_panics() {
        let p = RmccOtp::new(keys());
        let _ = p.block_pads(0, COUNTER_MAX + 1);
    }

    #[test]
    #[should_panic(expected = "counter overflows")]
    fn fresh_mac_pad_counter_overflow_panics() {
        let p = RmccOtp::new(keys());
        let _ = p.mac_pad(0, u64::MAX);
    }

    #[test]
    fn keyset_reports_its_backend() {
        use crate::aes::AesVariant;
        let k = KeySet::from_master_on(5, AesVariant::Aes128, Backend::Hardened);
        assert_eq!(k.backend(), Backend::Hardened);
        assert_eq!(KeySet::from_master(5).backend(), Backend::from_env());
    }

    #[test]
    fn pipelines_are_object_safe() {
        let pipes: Vec<Box<dyn OtpPipeline>> = vec![
            Box::new(SgxOtp::new(keys())),
            Box::new(RmccOtp::new(keys())),
        ];
        assert_eq!(pipes[0].name(), "sgx-baseline");
        assert_eq!(pipes[1].name(), "rmcc-split");
    }
}
