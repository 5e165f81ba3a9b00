//! Property-based tests for the P601-lite ISA, assembler, allocator, and
//! machine determinism.

use proptest::prelude::*;
use swifi_vm::asm::{assemble, CodeBuilder};
use swifi_vm::inspect::{FetchPolicy, Inspector, Noop};
use swifi_vm::isa::{decode, encode, AluOp, CrBit, Instr, Syscall};
use swifi_vm::machine::{Machine, MachineConfig, RunOutcome};
use swifi_vm::mem::Allocator;

fn arb_reg() -> impl Strategy<Value = u8> {
    0u8..32
}

fn arb_crf() -> impl Strategy<Value = u8> {
    0u8..8
}

fn arb_crbit() -> impl Strategy<Value = CrBit> {
    prop_oneof![
        Just(CrBit::Lt),
        Just(CrBit::Gt),
        Just(CrBit::Eq),
        Just(CrBit::So)
    ]
}

fn arb_aluop() -> impl Strategy<Value = AluOp> {
    (0u32..16).prop_map(|c| AluOp::from_code(c).unwrap())
}

fn arb_syscall() -> impl Strategy<Value = Syscall> {
    (0u32..=10).prop_map(|c| Syscall::from_code(c).unwrap())
}

prop_compose! {
    fn arb_instr()(
        sel in 0usize..19,
        rd in arb_reg(),
        ra in arb_reg(),
        rb in arb_reg(),
        simm in any::<i16>(),
        uimm in any::<u16>(),
        off26 in -(1i32 << 25)..(1i32 << 25),
        crf in arb_crf(),
        bit in arb_crbit(),
        expect in any::<bool>(),
        alu in arb_aluop(),
        call in arb_syscall(),
    ) -> Instr {
        match sel {
            0 => Instr::Addi { rd, ra, imm: simm },
            1 => Instr::Addis { rd, ra, imm: simm },
            2 => Instr::Andi { rd, ra, imm: uimm },
            3 => Instr::Ori { rd, ra, imm: uimm },
            4 => Instr::Xori { rd, ra, imm: uimm },
            5 => Instr::Cmpi { crf, ra, imm: simm },
            6 => Instr::Cmp { crf, ra, rb },
            7 => Instr::Alu { op: alu, rd, ra, rb },
            8 => Instr::Lwz { rd, ra, d: simm },
            9 => Instr::Stw { rs: rd, ra, d: simm },
            10 => Instr::Lbz { rd, ra, d: simm },
            11 => Instr::Stb { rs: rd, ra, d: simm },
            12 => Instr::B { off: off26 },
            13 => Instr::Bl { off: off26 },
            14 => Instr::Bc { crf, bit, expect, off: simm },
            15 => Instr::Blr,
            16 => Instr::Mflr { rd },
            17 => Instr::Mtlr { ra },
            18 => Instr::Sc { call },
            _ => Instr::Halt,
        }
    }
}

/// One hook call as (kind, core, pc, value).
type Hook = (u8, usize, u32, u32);

/// The hooked-block-body inspector for the differential oracle. The
/// trait-default `block_quiescent` (false) sends every block through the
/// hooked body. It logs every post-decode hook and retire and corrupts the
/// register write-backs and load values of the PCs that `key` selects.
///
/// With `armed` empty its `FetchPolicy::None` keeps `on_fetch` off the
/// cached tiers (the reference tier still calls it for every PC; it is
/// ignored then). Otherwise `FetchPolicy::Pcs(armed)` makes the armed PCs
/// trigger steps of the blocks, and `on_fetch` logs each arrival at one and
/// corrupts it by arrival: keeps the word, or turns it into a straight-line
/// op, a branch, a syscall or `halt`, or an illegal word.
struct HookLog {
    key: u32,
    armed: Vec<u32>,
    arrivals: u32,
    log: Vec<Hook>,
}

impl HookLog {
    fn new(key: u32, armed: Vec<u32>) -> HookLog {
        HookLog {
            key,
            armed,
            arrivals: 0,
            log: Vec::new(),
        }
    }

    fn corrupts(&self, pc: u32) -> bool {
        (pc.wrapping_mul(0x9E37_79B9) ^ self.key) >> 29 == 0
    }

    /// The PCs of a `len`-word image that `key` arms: about one in four.
    fn arms(key: u32, len: usize) -> Vec<u32> {
        (0..len as u32)
            .map(|i| swifi_vm::CODE_BASE + 4 * i)
            .filter(|pc| (pc.wrapping_mul(0x85EB_CA6B) ^ key.rotate_left(11)) >> 30 == 0)
            .collect()
    }
}

impl Inspector for HookLog {
    fn fetch_policy(&self) -> FetchPolicy {
        if self.armed.is_empty() {
            FetchPolicy::None
        } else {
            FetchPolicy::Pcs(self.armed.clone())
        }
    }

    fn on_fetch(&mut self, core: usize, pc: u32, word: &mut u32) {
        if !self.armed.contains(&pc) {
            return;
        }
        self.log.push((6, core, pc, *word));
        self.arrivals += 1;
        let roll =
            (pc ^ self.arrivals.wrapping_mul(0x2545_F491) ^ self.key).wrapping_mul(0x9E37_79B9);
        let imm = (self.key >> 16) as i16 % 8;
        *word = match roll >> 29 {
            0..=2 => *word,
            3 | 4 => encode(Instr::Addi { rd: 3, ra: 3, imm }),
            5 => encode(Instr::Bc {
                crf: 0,
                bit: CrBit::Lt,
                expect: self.key & 1 == 0,
                off: imm,
            }),
            6 if self.key & 2 == 0 => encode(Instr::Sc {
                call: Syscall::PrintInt,
            }),
            6 => encode(Instr::Halt),
            _ => 0,
        };
    }

    fn on_load_addr(&mut self, core: usize, pc: u32, addr: &mut u32) {
        self.log.push((0, core, pc, *addr));
    }

    fn on_load_value(&mut self, core: usize, pc: u32, _addr: u32, value: &mut u32) {
        self.log.push((1, core, pc, *value));
        if self.corrupts(pc) {
            *value ^= self.key;
        }
    }

    fn on_store_addr(&mut self, core: usize, pc: u32, addr: &mut u32) {
        self.log.push((2, core, pc, *addr));
    }

    fn on_store_value(&mut self, core: usize, pc: u32, _addr: u32, value: &mut u32) {
        self.log.push((3, core, pc, *value));
    }

    fn on_reg_write(&mut self, core: usize, pc: u32, _reg: u8, value: &mut u32) {
        self.log.push((4, core, pc, *value));
        if self.corrupts(pc) {
            *value ^= self.key;
        }
    }

    fn on_retire(&mut self, core: usize, pc: u32) {
        self.log.push((5, core, pc, 0));
    }
}

/// What one run shows: outcome, retired count, core 0's regs/pc/lr and
/// the hook log.
type Observation = (RunOutcome, u64, [u32; 32], u32, u32, Vec<Hook>);

/// Run `image` on interpreter `tier` (0 blocks, 1 line cache only,
/// 2 reference) under `insp`, once pristine and once after warm-rebooting
/// and XOR-ing `mask` into the code word at `patch_addr` — where a stale
/// translation would replay the unpatched block. `take_log` drains the
/// inspector's hook log after each run.
fn observe_tier<I: Inspector>(
    image: &swifi_vm::Image,
    tier: usize,
    (patch_addr, mask): (u32, u32),
    insp: &mut I,
    take_log: impl Fn(&mut I) -> Vec<Hook>,
) -> [Observation; 2] {
    let mut m = Machine::new(MachineConfig {
        budget: 20_000,
        ..MachineConfig::default()
    });
    match tier {
        0 => {}
        1 => m.set_block_interp(false),
        _ => m.set_reference_interp(true),
    }
    m.load(image);
    let snap = m.snapshot();
    let mut observe = |m: &mut Machine| {
        let out = m.run(insp);
        let c = m.core(0);
        (out, m.retired(), c.regs, c.pc, c.lr, take_log(insp))
    };
    let pristine = observe(&mut m);
    m.restore(&snap);
    let old = m.peek_u32(patch_addr).unwrap();
    m.poke_u32(patch_addr, old ^ mask).unwrap();
    [pristine, observe(&mut m)]
}

proptest! {
    /// encode ∘ decode is the identity on valid instructions.
    #[test]
    fn encode_decode_round_trip(i in arb_instr()) {
        prop_assert_eq!(decode(encode(i)), Ok(i));
    }

    /// Any word that decodes re-encodes to itself: the decoder accepts no
    /// non-canonical encodings (important for the injector, which diffs
    /// instruction words).
    #[test]
    fn decode_is_canonical(w in any::<u32>()) {
        if let Ok(i) = decode(w) {
            prop_assert_eq!(encode(i), w);
        }
    }

    /// The assembler parses the `Display` form of any instruction back to
    /// the same word (numeric branch offsets included).
    #[test]
    fn display_assembles_back(i in arb_instr()) {
        let text = i.to_string();
        let mut b = CodeBuilder::new();
        b.push(i);
        let direct = b.finish().unwrap();
        let via_text = assemble(&text).unwrap();
        prop_assert_eq!(direct.code, via_text.code, "text was `{}`", text);
    }

    /// Random malloc/free sequences keep the allocator's invariants: no
    /// overlap between live blocks, everything inside the arena, frees of
    /// live pointers always succeed.
    #[test]
    fn allocator_invariants(ops in proptest::collection::vec((any::<bool>(), 1u32..512), 1..200)) {
        let base = 0x1000u32;
        let limit = 0x9000u32;
        let mut a = Allocator::new(base, limit);
        let mut live: Vec<(u32, u32)> = Vec::new();
        for (do_free, size) in ops {
            if do_free && !live.is_empty() {
                let (ptr, _) = live.swap_remove(live.len() / 2);
                prop_assert!(a.free(ptr).is_ok());
            } else {
                let p = a.malloc(size);
                if p != 0 {
                    prop_assert!(p >= base && p + size <= limit, "block in arena");
                    prop_assert_eq!(p % 8, 0, "aligned");
                    for &(q, qs) in &live {
                        prop_assert!(p + size <= q || q + qs <= p, "no overlap");
                    }
                    live.push((p, size));
                }
            }
        }
        prop_assert_eq!(a.live_blocks(), live.len());
    }

    /// Running the same image twice on fresh machines gives identical
    /// outcomes — the determinism the reboot-per-injection methodology
    /// relies on. Uses random (usually trapping) code.
    #[test]
    fn machine_is_deterministic(words in proptest::collection::vec(any::<u32>(), 1..64)) {
        let image = swifi_vm::Image { code: words, data: vec![], entry: swifi_vm::CODE_BASE };
        let cfg = MachineConfig { budget: 10_000, ..MachineConfig::default() };
        let run = || {
            let mut m = Machine::new(cfg.clone());
            m.load(&image);
            m.run(&mut Noop)
        };
        prop_assert_eq!(run(), run());
    }

    /// The machine never panics on arbitrary code — every abnormal path is
    /// a typed outcome. (Running random words is exactly what heavy fault
    /// injection does.)
    #[test]
    fn machine_total_on_garbage(words in proptest::collection::vec(any::<u32>(), 1..256)) {
        let image = swifi_vm::Image { code: words, data: vec![], entry: swifi_vm::CODE_BASE };
        let mut m = Machine::new(MachineConfig { budget: 20_000, ..MachineConfig::default() });
        m.load(&image);
        match m.run(&mut Noop) {
            RunOutcome::Completed { .. } | RunOutcome::Trapped { .. } | RunOutcome::Hang { .. } => {}
        }
    }
}

proptest! {
    // Most arbitrary words are illegal, so a case exercises few dispatch
    // paths; the extra cases buy coverage of the trigger steps.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The blocks ≡ reference oracle on arbitrary code: the block
    /// interpreter, the line-cached interpreter, and the seed
    /// decode-every-fetch reference interpreter agree on the outcome,
    /// the retired-instruction count, and the final architectural state
    /// — both on the pristine program and after a mid-run code patch
    /// poked into a warm machine (where a stale translation would
    /// replay the unpatched block). Under `Noop` blocks take the
    /// hook-free body; under a `HookLog` (`hook_key` is `Some`) they take
    /// the hooked body, and the tiers must also agree on every hook call
    /// while some write-backs and loads are corrupted. With `arm` the
    /// `HookLog` also arms key-selected PCs (`FetchPolicy::Pcs`), which the
    /// block tier runs as trigger steps, and corrupts their fetches into
    /// every kind of word.
    #[test]
    fn block_interpreter_matches_reference_on_random_code(
        words in proptest::collection::vec(
            prop_oneof![any::<u32>(), arb_instr().prop_map(encode)],
            1..128,
        ),
        patch_index in 0usize..128,
        patch_mask in 1u32..=u32::MAX,
        hook_key in prop_oneof![Just(None), any::<u32>().prop_map(Some)],
        arm in any::<bool>(),
    ) {
        let len = words.len();
        let image = swifi_vm::Image { code: words, data: vec![], entry: swifi_vm::CODE_BASE };
        let patch = (swifi_vm::CODE_BASE + ((patch_index % len) as u32) * 4, patch_mask);
        let run = |tier: usize| match hook_key {
            None => observe_tier(&image, tier, patch, &mut Noop, |_| Vec::new()),
            Some(key) => observe_tier(
                &image,
                tier,
                patch,
                &mut HookLog::new(key, if arm { HookLog::arms(key, len) } else { Vec::new() }),
                |h| std::mem::take(&mut h.log),
            ),
        };
        let blocks = run(0);
        prop_assert_eq!(&blocks, &run(1), "blocks vs line cache");
        prop_assert_eq!(&blocks, &run(2), "blocks vs reference");
    }
}
