//! Basic-block superinstruction translation over the predecoded line cache.
//!
//! The PR 2 line cache removed decode from the hot loop but still pays a
//! per-instruction dispatch: every retired instruction does a cache lookup
//! (range check, `Line` match) plus loop bookkeeping before its actual
//! work. This module translates straight-line runs of code — *basic
//! blocks* — into dense superinstruction buffers that the interpreter
//! executes in one dispatch: one block lookup, then a tight walk over
//! pre-extracted operands with the program counter reconstructed
//! arithmetically (`start + 4·i`).
//!
//! # Block discovery
//!
//! Translation is lazy and first-touch, like the line cache: the first time
//! the block interpreter dispatches at a PC with no translation, it pulls
//! decoded instructions word-by-word **through
//! [`Memory::fetch_decoded`]** — so line-cache statistics and pin
//! semantics are byte-identical to the PR 2 path — until it reaches a
//! terminator:
//!
//! * a control transfer (`b`, `bl`, `bc`, `blr`) — translated into a
//!   pre-resolved [`Term`] with absolute targets;
//! * a syscall or halt — the block ends *before* it
//!   ([`Term::Fallthrough`]); the instruction itself executes on
//!   `Machine::step`, the reference interpreter, which owns every
//!   syscall and scheduler state change;
//! * a trigger PC armed by the inspector's
//!   [`FetchPolicy::Pcs`](crate::inspect::FetchPolicy::Pcs) — the block
//!   ends *with* it as a hooked trigger step ([`Term::Trigger`]): the
//!   executor offers the word to `on_fetch` and runs what comes back
//!   with every hook, so a trigger inside a hot loop keeps the loop on
//!   the block tier (an armed word that does not decode ends the block
//!   before it instead);
//! * an unavailable line (fetch-breakpoint pin, illegal word, PC outside
//!   the cached region) — the block ends before it and the slow fetch
//!   path takes over, preserving fetch breakpoints and precise
//!   illegal-instruction traps;
//! * the block length cap ([`MAX_BLOCK_OPS`]), bounding translation cost
//!   and quantum interaction.
//!
//! Straight-line register ops are additionally collapsed into multi-op
//! steps where profitable (consecutive `addi` pairs → [`Step::Addi2`], a
//! `cmpi` feeding the block-ending conditional branch →
//! [`Term::CmpiCondJump`]), so common loop idioms retire two instructions
//! per dispatch step.
//!
//! # Execution
//!
//! `Machine::run_quantum` executes a block's steps through `straight_op!`,
//! the one copy of the straight-line semantics it shares with its
//! per-instruction line-cache loop: hook-free (with `Noop` as the
//! inspector) when the inspector vouches the block is quiescent, hooked
//! otherwise. A [`Term::Trigger`] is never part of the quiescent range:
//! the body before it may run hook-free, the trigger step itself runs on
//! the per-instruction dispatch with the fetched word.
//!
//! # Invalidation
//!
//! Blocks cache decoded *words*, so any write into the code region must
//! kill every block covering a written word. All such writes already
//! funnel through `Memory::invalidate_decoded` (guest stores, injector
//! pokes, warm-restore and fork-restore word diffs) and the fetch-pin
//! hooks; those paths append to a small code-write log inside [`Memory`]
//! which the block interpreter drains before every block dispatch. A store
//! executed *inside* a block checks the log immediately afterwards and
//! aborts the block at that point, so self-modifying code observes its own
//! writes exactly like the per-instruction interpreters.

use crate::isa::{self, CrBit, Instr};
use crate::mem::{Memory, CODE_BASE};

/// Maximum straight-line instructions per translated block. Bounds the cost
/// of a translation that is immediately invalidated and keeps whole blocks
/// small relative to the multi-core scheduling quantum (64), so block
/// dispatch rarely has to fall back near quantum boundaries.
pub(crate) const MAX_BLOCK_OPS: usize = 48;

/// Counters describing the basic-block translation cache's behaviour.
///
/// Exposed per-machine through `Machine::block_cache_stats` and rolled up
/// per-session by the campaign layer. Cumulative since the cache was
/// (re)initialised by program load; warm reboots deliberately do *not*
/// reset them (same contract as
/// [`DecodeCacheStats`](crate::mem::DecodeCacheStats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Blocks translated into superinstruction buffers (including blocks
    /// later invalidated and retranslated).
    pub blocks_built: u64,
    /// Dispatches served by an already-translated block.
    pub block_hits: u64,
    /// Instructions retired through block dispatch, trigger steps
    /// included (the numerator of the "how much ran on the fast path"
    /// ratio; the denominator is the session's total retired count).
    pub block_instrs: u64,
    /// Dispatches that fell back to the per-instruction cached/slow paths
    /// while the block interpreter was active (syscalls, fetch-breakpoint
    /// PCs, quantum tails, untranslatable words).
    pub fallback_dispatches: u64,
    /// Blocks killed by a write into code they cover, by a fetch-pin
    /// change, or by a whole-cache flush.
    pub blocks_invalidated: u64,
}

/// One superinstruction: one or more straight-line instructions executed as
/// a unit. Sub-ops retire individually (hooks and trap PCs are exact), so
/// fusion is invisible to inspectors and to the failure-mode observables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// A single predecoded straight-line instruction (never a branch,
    /// syscall, or halt — those terminate translation).
    Op(Instr),
    /// Two consecutive `addi` instructions collapsed into one step — the
    /// dominant pair in compiled MiniC (constant loads, stack adjusts,
    /// counter updates).
    Addi2 {
        /// First `addi`: destination.
        rd1: u8,
        /// First `addi`: source.
        ra1: u8,
        /// First `addi`: immediate.
        imm1: i16,
        /// Second `addi`: destination.
        rd2: u8,
        /// Second `addi`: source.
        ra2: u8,
        /// Second `addi`: immediate.
        imm2: i16,
    },
}

impl Step {
    /// Instructions this step retires when fully executed.
    fn ops(&self) -> u32 {
        match self {
            Step::Op(_) => 1,
            Step::Addi2 { .. } => 2,
        }
    }
}

/// How a translated block ends. Branch targets are pre-resolved to
/// absolute PCs at translation time, so dispatch does no offset
/// arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Term {
    /// Unconditional branch (`b`).
    Jump {
        /// Absolute branch target.
        target: u32,
    },
    /// Branch with link (`bl`).
    Call {
        /// Absolute branch target.
        target: u32,
        /// Pre-computed return address stored into `lr`.
        link: u32,
    },
    /// Conditional branch (`bc`) with both successors pre-resolved.
    CondJump {
        /// Condition-register field tested.
        crf: u8,
        /// Bit within the field.
        bit: CrBit,
        /// Branch taken when the bit equals this value.
        expect: bool,
        /// Target when taken.
        taken: u32,
        /// Target when not taken (the next instruction).
        fallthrough: u32,
    },
    /// Fused `cmpi` + `bc` on the same condition-register field: the
    /// compare executes and the branch resolves in a single terminator
    /// step (two instructions retire).
    CmpiCondJump {
        /// Register compared.
        ra: u8,
        /// Immediate compared against.
        imm: i16,
        /// Condition-register field written by the compare and tested by
        /// the branch.
        crf: u8,
        /// Bit within the field.
        bit: CrBit,
        /// Branch taken when the bit equals this value.
        expect: bool,
        /// Target when taken.
        taken: u32,
        /// Target when not taken.
        fallthrough: u32,
    },
    /// Return through the link register (`blr`); the target is dynamic.
    Return,
    /// An armed trigger PC (the block's last word): the executor counts a
    /// slow fetch, offers `word` to `on_fetch`, and runs `instr` if the
    /// word comes back unchanged, else the decoding of the corrupted word
    /// — with every per-instruction hook, exactly as `Machine::step`
    /// would.
    Trigger {
        /// The code word at the trigger PC.
        word: u32,
        /// `word` decoded.
        instr: Instr,
    },
    /// The block ends without a control transfer: the next word is a
    /// syscall/halt, unavailable (pinned/illegal/out of range), or the
    /// length cap was hit. Execution continues at `next` on the
    /// per-instruction paths (which re-attempt block dispatch).
    Fallthrough {
        /// PC of the first instruction *not* part of the block.
        next: u32,
    },
}

impl Term {
    /// Instructions the terminator retires.
    fn ops(&self) -> u32 {
        match self {
            Term::Jump { .. }
            | Term::Call { .. }
            | Term::CondJump { .. }
            | Term::Return
            | Term::Trigger { .. } => 1,
            Term::CmpiCondJump { .. } => 2,
            Term::Fallthrough { .. } => 0,
        }
    }
}

/// A translated basic block: a dense buffer of superinstruction steps plus
/// a pre-resolved terminator.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// First code-word index covered (inclusive).
    first_word: u32,
    /// Words covered (body + terminator words; a trailing syscall/halt the
    /// block stops *before* is not covered).
    word_len: u32,
    /// Instructions a full execution of the block retires.
    pub(crate) cost: u32,
    /// Straight-line superinstruction steps.
    pub(crate) body: Box<[Step]>,
    /// How the block ends.
    pub(crate) term: Term,
}

impl Block {
    fn covers(&self, first: u32, last: u32) -> bool {
        // [first_word, first_word + word_len) ∩ [first, last] ≠ ∅
        self.first_word <= last && first < self.first_word + self.word_len
    }

    /// PC of the last code word the block runs without per-instruction
    /// hooks: its terminator word, the last body word for
    /// [`Term::Fallthrough`], or the word before a [`Term::Trigger`]
    /// (below the start PC when the block is the trigger alone). With the
    /// block's start PC this bounds the range an
    /// `Inspector::block_quiescent` query must vouch for.
    pub(crate) fn last_quiet_pc(&self) -> u32 {
        let words = self.word_len - u32::from(matches!(self.term, Term::Trigger { .. }));
        (CODE_BASE + (self.first_word + words) * 4).wrapping_sub(4)
    }
}

/// Per-word dispatch map entry: no translation attempted yet.
const NOT_TRANSLATED: u32 = u32::MAX;
/// Per-word dispatch map entry: translation was attempted and produced no
/// usable block (word is a syscall/halt/pinned/illegal/out of range).
/// Cleared back to [`NOT_TRANSLATED`] when the word is written or a pin
/// changes, so the situation can be re-evaluated.
const NO_BLOCK: u32 = u32::MAX - 1;

/// Storage half of the block cache: the per-word dispatch map and the
/// translated blocks. Kept as a separate field of [`BlockCache`] so the
/// interpreter can hold a `&Block` from `store` while still bumping
/// counters in `stats` (disjoint field borrows).
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockStore {
    /// One entry per code word: [`NOT_TRANSLATED`], [`NO_BLOCK`], or the
    /// id of the block *starting* at that word.
    map: Vec<u32>,
    /// Block arena indexed by id; `None` slots are free.
    blocks: Vec<Option<Block>>,
    /// Free ids in `blocks`.
    free: Vec<u32>,
}

/// The basic-block translation cache: dispatch map, block arena, and
/// statistics. Owned by `Machine` as a sibling of guest memory so the
/// interpreter's split borrows can use both at once; invalidation flows
/// from `Memory`'s code-write log (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockCache {
    /// Dispatch map and translated blocks.
    pub(crate) store: BlockStore,
    /// Behaviour counters (see [`BlockCacheStats`]).
    pub(crate) stats: BlockCacheStats,
}

impl BlockCache {
    /// (Re)initialise for a code region of `words` words, clearing all
    /// translations and statistics. Called by `Machine::load`.
    pub(crate) fn init(&mut self, words: usize) {
        self.store.map.clear();
        self.store.map.resize(words, NOT_TRANSLATED);
        self.store.blocks.clear();
        self.store.free.clear();
        self.stats = BlockCacheStats::default();
    }
}

impl BlockStore {
    /// Fetch the block starting at `pc`, translating it on first touch.
    ///
    /// Returns `None` when no usable block starts at `pc` (misaligned or
    /// out-of-range PC, or the word is a syscall/halt/pinned/illegal) —
    /// the caller falls back to per-instruction dispatch.
    #[inline]
    pub(crate) fn lookup_or_translate(
        &mut self,
        pc: u32,
        mem: &mut Memory,
        stats: &mut BlockCacheStats,
    ) -> Option<&Block> {
        let off = pc.wrapping_sub(CODE_BASE);
        if off & 3 != 0 {
            return None;
        }
        let idx = (off >> 2) as usize;
        match self.map.get(idx).copied() {
            None | Some(NO_BLOCK) => None,
            Some(NOT_TRANSLATED) => self.translate(pc, idx, mem, stats),
            // `block_hits` is counted by the executor when it actually
            // dispatches the block, so hits + fallbacks partition the
            // dispatch count exactly.
            Some(id) => self.blocks[id as usize].as_ref(),
        }
    }

    /// Translate the block starting at `pc` (word `idx`), pulling decoded
    /// instructions through the line cache so decode statistics, pins, and
    /// illegal-word handling stay identical to the per-instruction path.
    #[cold]
    fn translate(
        &mut self,
        pc: u32,
        idx: usize,
        mem: &mut Memory,
        stats: &mut BlockCacheStats,
    ) -> Option<&Block> {
        let mut ops: Vec<Instr> = Vec::new();
        let mut cur = pc;
        let term = loop {
            if ops.len() >= MAX_BLOCK_OPS {
                break Term::Fallthrough { next: cur };
            }
            let Some(instr) = mem.fetch_decoded(cur) else {
                // An armed trigger PC ends the block as its trigger step,
                // unless its word is illegal (the slow path raises the
                // precise trap after `on_fetch`).
                if let Some(word) = mem.armed_word(cur) {
                    if let Ok(instr) = isa::decode(word) {
                        cur = cur.wrapping_add(4);
                        break Term::Trigger { word, instr };
                    }
                }
                break Term::Fallthrough { next: cur };
            };
            match instr {
                Instr::B { off } => {
                    cur = cur.wrapping_add(4);
                    break Term::Jump {
                        target: cur
                            .wrapping_sub(4)
                            .wrapping_add((off as u32).wrapping_mul(4)),
                    };
                }
                Instr::Bl { off } => {
                    let target = cur.wrapping_add((off as u32).wrapping_mul(4));
                    let link = cur.wrapping_add(4);
                    cur = cur.wrapping_add(4);
                    break Term::Call { target, link };
                }
                Instr::Bc {
                    crf,
                    bit,
                    expect,
                    off,
                } => {
                    let taken = cur.wrapping_add((off as i32 as u32).wrapping_mul(4));
                    let fallthrough = cur.wrapping_add(4);
                    cur = cur.wrapping_add(4);
                    // Fuse a compare feeding this branch on the same field.
                    if let Some(&Instr::Cmpi {
                        crf: cmp_crf,
                        ra,
                        imm,
                    }) = ops.last()
                    {
                        if cmp_crf == crf {
                            ops.pop();
                            break Term::CmpiCondJump {
                                ra,
                                imm,
                                crf,
                                bit,
                                expect,
                                taken,
                                fallthrough,
                            };
                        }
                    }
                    break Term::CondJump {
                        crf,
                        bit,
                        expect,
                        taken,
                        fallthrough,
                    };
                }
                Instr::Blr => {
                    cur = cur.wrapping_add(4);
                    break Term::Return;
                }
                // Scheduler-visible instructions end the block *before*
                // themselves; the single-step paths own their semantics.
                Instr::Sc { .. } | Instr::Halt => {
                    break Term::Fallthrough { next: cur };
                }
                straight => {
                    ops.push(straight);
                    cur = cur.wrapping_add(4);
                }
            }
        };
        let cost = ops.len() as u32 + term.ops();
        if cost == 0 {
            // Nothing executable from here on the block path; remember
            // that so dispatch stops re-attempting translation.
            self.map[idx] = NO_BLOCK;
            return None;
        }
        // Collapse consecutive addi pairs into multi-op steps.
        let mut body: Vec<Step> = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            if let Instr::Addi {
                rd: rd1,
                ra: ra1,
                imm: imm1,
            } = ops[i]
            {
                if let Some(&Instr::Addi {
                    rd: rd2,
                    ra: ra2,
                    imm: imm2,
                }) = ops.get(i + 1)
                {
                    body.push(Step::Addi2 {
                        rd1,
                        ra1,
                        imm1,
                        rd2,
                        ra2,
                        imm2,
                    });
                    i += 2;
                    continue;
                }
            }
            body.push(Step::Op(ops[i]));
            i += 1;
        }
        debug_assert_eq!(
            body.iter().map(Step::ops).sum::<u32>() + term.ops(),
            cost,
            "fusion must preserve the instruction count"
        );
        let block = Block {
            first_word: idx as u32,
            word_len: (cur.wrapping_sub(pc)) / 4,
            cost,
            body: body.into_boxed_slice(),
            term,
        };
        stats.blocks_built += 1;
        let id = match self.free.pop() {
            Some(id) => {
                self.blocks[id as usize] = Some(block);
                id
            }
            None => {
                self.blocks.push(Some(block));
                (self.blocks.len() - 1) as u32
            }
        };
        self.map[idx] = id;
        self.blocks[id as usize].as_ref()
    }

    /// Kill every block covering a word in `[first, last]` (inclusive word
    /// indices) and let the written words head new blocks again.
    pub(crate) fn invalidate_words(&mut self, first: u32, last: u32, stats: &mut BlockCacheStats) {
        for (id, slot) in self.blocks.iter_mut().enumerate() {
            let Some(b) = slot else { continue };
            if b.covers(first, last) {
                self.map[b.first_word as usize] = NOT_TRANSLATED;
                *slot = None;
                self.free.push(id as u32);
                stats.blocks_invalidated += 1;
            }
        }
        let lo = first as usize;
        let hi = (last as usize).min(self.map.len().saturating_sub(1));
        for entry in self.map.get_mut(lo..=hi).unwrap_or(&mut []) {
            if *entry == NO_BLOCK {
                *entry = NOT_TRANSLATED;
            }
        }
    }

    /// Drop every translation (code-write log overflow): correct because
    /// retranslation is lazy and semantically idempotent.
    pub(crate) fn flush_all(&mut self, stats: &mut BlockCacheStats) {
        for slot in self.blocks.iter_mut() {
            if slot.take().is_some() {
                stats.blocks_invalidated += 1;
            }
        }
        self.blocks.clear();
        self.free.clear();
        for entry in self.map.iter_mut() {
            *entry = NOT_TRANSLATED;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{self, Syscall};

    fn code_mem(words: &[u32]) -> Memory {
        let mut m = Memory::new(64 * 1024);
        for (i, &w) in words.iter().enumerate() {
            m.write_u32(CODE_BASE + i as u32 * 4, w).unwrap();
        }
        m.init_decode_cache(CODE_BASE + words.len() as u32 * 4);
        m
    }

    fn addi(rd: u8, ra: u8, imm: i16) -> u32 {
        isa::encode(Instr::Addi { rd, ra, imm })
    }

    #[test]
    fn translates_up_to_a_branch_and_resolves_targets() {
        let mut mem = code_mem(&[
            addi(3, 0, 1),
            addi(4, 0, 2),
            isa::encode(Instr::B { off: -2 }),
        ]);
        let mut cache = BlockCache::default();
        cache.init(3);
        let b = cache
            .store
            .lookup_or_translate(CODE_BASE, &mut mem, &mut cache.stats)
            .expect("block translates");
        assert_eq!(b.cost, 3);
        // The addi pair fuses into one multi-op step.
        assert_eq!(b.body.len(), 1);
        assert!(matches!(b.body[0], Step::Addi2 { .. }));
        assert_eq!(
            b.term,
            Term::Jump {
                target: CODE_BASE + 8 - 8
            }
        );
        assert_eq!(cache.stats.blocks_built, 1);

        // Second lookup reuses the translation.
        let _ = cache
            .store
            .lookup_or_translate(CODE_BASE, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(cache.stats.blocks_built, 1);
    }

    #[test]
    fn cmpi_feeding_bc_fuses_into_the_terminator() {
        let mut mem = code_mem(&[
            addi(5, 5, -1),
            isa::encode(Instr::Cmpi {
                crf: 0,
                ra: 5,
                imm: 0,
            }),
            isa::encode(Instr::Bc {
                crf: 0,
                bit: CrBit::Eq,
                expect: true,
                off: 2,
            }),
        ]);
        let mut cache = BlockCache::default();
        cache.init(3);
        let b = cache
            .store
            .lookup_or_translate(CODE_BASE, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(b.cost, 3);
        assert_eq!(b.body.len(), 1, "cmpi folded out of the body");
        assert!(matches!(b.term, Term::CmpiCondJump { .. }));
    }

    #[test]
    fn syscall_halt_pin_and_illegal_end_blocks_early() {
        let sc = isa::encode(Instr::Sc {
            call: Syscall::PrintInt,
        });
        let mut mem = code_mem(&[addi(3, 0, 7), sc, addi(3, 0, 0), 0 /* illegal */]);
        let mut cache = BlockCache::default();
        cache.init(4);
        let b = cache
            .store
            .lookup_or_translate(CODE_BASE, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(b.cost, 1);
        assert_eq!(
            b.term,
            Term::Fallthrough {
                next: CODE_BASE + 4
            }
        );
        // The syscall word itself heads no block.
        assert!(cache
            .store
            .lookup_or_translate(CODE_BASE + 4, &mut mem, &mut cache.stats)
            .is_none());
        // A block before an illegal word stops at it.
        let b2 = cache
            .store
            .lookup_or_translate(CODE_BASE + 8, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(
            b2.term,
            Term::Fallthrough {
                next: CODE_BASE + 12
            }
        );
        // Pinned words refuse to head blocks.
        let mut mem2 = code_mem(&[addi(3, 0, 1), addi(4, 0, 2)]);
        mem2.pin_fetch_slow(CODE_BASE);
        let mut cache2 = BlockCache::default();
        cache2.init(2);
        assert!(cache2
            .store
            .lookup_or_translate(CODE_BASE, &mut mem2, &mut cache2.stats)
            .is_none());
    }

    #[test]
    fn armed_pc_ends_a_block_as_its_trigger_step() {
        let halt = isa::encode(Instr::Halt);
        let mut mem = code_mem(&[addi(3, 0, 1), addi(4, 0, 2), addi(5, 0, 3), halt]);
        mem.arm_fetch(CODE_BASE + 4);
        mem.arm_fetch(CODE_BASE + 12);
        let mut cache = BlockCache::default();
        cache.init(4);
        let b = cache
            .store
            .lookup_or_translate(CODE_BASE, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(b.cost, 2, "body op plus the trigger step");
        assert_eq!(
            b.term,
            Term::Trigger {
                word: addi(4, 0, 2),
                instr: Instr::Addi {
                    rd: 4,
                    ra: 0,
                    imm: 2
                },
            }
        );
        // The trigger step is outside the range that may run hook-free.
        assert_eq!(b.last_quiet_pc(), CODE_BASE);
        // A block may be the trigger step alone.
        let b = cache
            .store
            .lookup_or_translate(CODE_BASE + 4, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(b.cost, 1);
        assert!(b.last_quiet_pc() < CODE_BASE + 4);
        // An armed halt is a trigger step too (the executor hands it to
        // `Machine::execute`); an armed illegal word ends the block before it.
        let b = cache
            .store
            .lookup_or_translate(CODE_BASE + 8, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(
            b.term,
            Term::Trigger {
                word: halt,
                instr: Instr::Halt
            }
        );
        mem.write_u32(CODE_BASE + 12, 0).unwrap();
        cache.store.invalidate_words(3, 3, &mut cache.stats);
        let b = cache
            .store
            .lookup_or_translate(CODE_BASE + 8, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(
            b.term,
            Term::Fallthrough {
                next: CODE_BASE + 12
            }
        );
        assert!(cache
            .store
            .lookup_or_translate(CODE_BASE + 12, &mut mem, &mut cache.stats)
            .is_none());
    }

    #[test]
    fn invalidation_kills_covering_blocks_and_reopens_no_block_words() {
        let mut mem = code_mem(&[
            addi(3, 0, 1),
            addi(4, 0, 2),
            isa::encode(Instr::Blr),
            isa::encode(Instr::Halt),
        ]);
        let mut cache = BlockCache::default();
        cache.init(4);
        let _ = cache
            .store
            .lookup_or_translate(CODE_BASE, &mut mem, &mut cache.stats)
            .unwrap();
        // Halt word: translation attempt records NO_BLOCK.
        assert!(cache
            .store
            .lookup_or_translate(CODE_BASE + 12, &mut mem, &mut cache.stats)
            .is_none());

        // Writing word 1 kills the covering block (words 0..=2).
        cache.store.invalidate_words(1, 1, &mut cache.stats);
        assert_eq!(cache.stats.blocks_invalidated, 1);
        // Retranslation works and reuses the freed slot.
        let _ = cache
            .store
            .lookup_or_translate(CODE_BASE, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(cache.stats.blocks_built, 2);
        assert_eq!(cache.store.blocks.len(), 1, "freed slot reused");

        // Invalidating the halt word reopens it for translation attempts.
        mem.write_u32(CODE_BASE + 12, addi(6, 0, 3)).unwrap();
        cache.store.invalidate_words(3, 3, &mut cache.stats);
        let b = cache
            .store
            .lookup_or_translate(CODE_BASE + 12, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(b.cost, 1, "patched word now heads a block");
    }

    #[test]
    fn flush_all_drops_every_translation() {
        let mut mem = code_mem(&[addi(3, 0, 1), isa::encode(Instr::Blr), addi(4, 0, 2)]);
        let mut cache = BlockCache::default();
        cache.init(3);
        let _ = cache
            .store
            .lookup_or_translate(CODE_BASE, &mut mem, &mut cache.stats);
        let _ = cache
            .store
            .lookup_or_translate(CODE_BASE + 8, &mut mem, &mut cache.stats);
        assert_eq!(cache.stats.blocks_built, 2);
        cache.store.flush_all(&mut cache.stats);
        assert_eq!(cache.stats.blocks_invalidated, 2);
        // Everything retranslates lazily afterwards.
        let _ = cache
            .store
            .lookup_or_translate(CODE_BASE, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(cache.stats.blocks_built, 3);
    }

    #[test]
    fn length_cap_splits_long_runs() {
        let words: Vec<u32> = (0..MAX_BLOCK_OPS as i16 + 10)
            .map(|i| addi(3, 3, i))
            .collect();
        let mut mem = code_mem(&words);
        let mut cache = BlockCache::default();
        cache.init(words.len());
        let b = cache
            .store
            .lookup_or_translate(CODE_BASE, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(b.cost as usize, MAX_BLOCK_OPS);
        let next = match b.term {
            Term::Fallthrough { next } => next,
            other => panic!("expected fallthrough, got {other:?}"),
        };
        assert_eq!(next, CODE_BASE + MAX_BLOCK_OPS as u32 * 4);
        // The continuation heads its own block.
        let b2 = cache
            .store
            .lookup_or_translate(next, &mut mem, &mut cache.stats)
            .unwrap();
        assert_eq!(b2.cost, 10);
    }
}
