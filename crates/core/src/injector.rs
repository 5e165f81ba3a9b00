//! The injector: fault specs compiled onto the VM's inspector hooks, under
//! a hardware-breakpoint budget.
//!
//! Xception triggers faults with the processor's debug registers; the
//! PowerPC 601 of the paper's testbed has **two** breakpoint registers.
//! That scarcity is load-bearing for the paper's results (the JB.team6
//! stack-shift fault needs more trigger addresses than the hardware
//! offers), so [`Injector::new`] enforces the same budget in
//! [`TriggerMode::Hardware`] and only lifts it in
//! [`TriggerMode::IntrusiveTraps`] — the "insert trap instructions"
//! fallback the paper calls *very intrusive*.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use swifi_vm::inspect::{FetchPolicy, Inspector};
use swifi_vm::machine::Machine;

use crate::fault::{FaultSpec, Target, Trigger};

/// Breakpoint resources available for fault triggering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerMode {
    /// Use only the modelled hardware debug registers (two, like the
    /// PowerPC 601). Fault sets needing more distinct trigger addresses
    /// are rejected.
    Hardware,
    /// Software traps: unlimited triggers, at the cost of target-code
    /// intrusion (the paper's manual fallback).
    IntrusiveTraps,
}

/// Number of breakpoint registers in [`TriggerMode::Hardware`]
/// (PowerPC 601: two).
pub const HW_BREAKPOINTS: usize = 2;

/// Error building an [`Injector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectorError {
    /// The fault set needs more distinct trigger addresses than the
    /// hardware provides.
    BreakpointBudget {
        /// Distinct trigger addresses required.
        required: usize,
        /// Registers available.
        available: usize,
    },
    /// An [`Trigger::Always`] trigger was requested in hardware mode.
    AlwaysNeedsIntrusive,
    /// A spec failed [`FaultSpec::validate`].
    InvalidSpec(String),
}

impl std::fmt::Display for InjectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectorError::BreakpointBudget {
                required,
                available,
            } => write!(
                f,
                "fault set needs {required} breakpoint registers but only {available} exist"
            ),
            InjectorError::AlwaysNeedsIntrusive => {
                f.write_str("`Always` triggers require intrusive trap mode")
            }
            InjectorError::InvalidSpec(msg) => write!(f, "invalid fault spec: {msg}"),
        }
    }
}

impl std::error::Error for InjectorError {}

/// Record of the guest-memory writes performed by [`Injector::prepare`]
/// for memory-resident faults.
///
/// The warm-reboot engine snapshots the machine *before* `prepare`, so
/// these writes land on pages the dirty tracker sees and a
/// [`swifi_vm::Machine::restore`] rolls them back automatically. The
/// record exists so callers can observe what was patched (and, for cold
/// lifecycles without a snapshot, [`PreparedWrites::undo`] them by hand).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreparedWrites {
    writes: Vec<PreparedWrite>,
}

/// One guest-memory word patched during fault preparation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedWrite {
    /// Patched address.
    pub addr: u32,
    /// Word that was there before preparation.
    pub old: u32,
    /// Word written by the fault's error operation.
    pub new: u32,
}

impl PreparedWrites {
    /// Number of words patched.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Whether preparation touched guest memory at all.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// The individual patches, in application order.
    pub fn writes(&self) -> &[PreparedWrite] {
        &self.writes
    }

    /// Manually revert the patches (cold lifecycle without a snapshot).
    ///
    /// # Errors
    ///
    /// Propagates [`swifi_vm::Trap`] if an address became unmapped, which
    /// cannot happen when undoing onto the same machine.
    pub fn undo(&self, machine: &mut Machine) -> Result<(), swifi_vm::Trap> {
        // Reverse order so overlapping patches unwind correctly.
        for w in self.writes.iter().rev() {
            machine.poke_u32(w.addr, w.old)?;
        }
        Ok(())
    }
}

/// An armed set of faults, pluggable into
/// [`Machine::run`](swifi_vm::machine::Machine::run) as an inspector.
///
/// # Examples
///
/// ```
/// use swifi_core::fault::FaultSpec;
/// use swifi_core::injector::{Injector, TriggerMode};
/// use swifi_vm::asm::assemble;
/// use swifi_vm::isa::{encode, Instr};
/// use swifi_vm::{Machine, MachineConfig};
///
/// let image = assemble("li r3, 1\nsc print_int\nli r3, 0\nhalt")?;
/// // Corrupt the fetch of the first instruction: r3 = 7 instead of 1.
/// let fault = FaultSpec::replace_instr(0x100, encode(Instr::Addi { rd: 3, ra: 0, imm: 7 }));
/// let mut injector = Injector::new(vec![fault], TriggerMode::Hardware, 1).unwrap();
/// let mut m = Machine::new(MachineConfig::default());
/// m.load(&image);
/// injector.prepare(&mut m).unwrap();
/// assert_eq!(m.run(&mut injector).output(), b"7");
/// assert!(injector.any_fired());
/// # Ok::<(), swifi_vm::asm::AsmError>(())
/// ```
#[derive(Debug)]
pub struct Injector {
    specs: Vec<FaultSpec>,
    /// Specs triggered by an opcode fetch, keyed by the fetch address.
    by_fetch: Routes,
    /// Specs triggered by a load, keyed by its effective address.
    by_load: Routes,
    /// Specs triggered by a store, keyed by its effective address.
    by_store: Routes,
    temporal: Vec<usize>,
    always: Vec<usize>,
    memory_faults: Vec<usize>,
    occurrences: Vec<u64>,
    armed: Vec<bool>,
    latched: Vec<bool>,
    fired: Vec<u64>,
    retired: u64,
    rng: StdRng,
    /// When set, skip the fast-rejection filters and walk the dispatch
    /// tables on every event — the seed implementation's behaviour, kept
    /// for differential testing and as the benchmark baseline.
    reference_dispatch: bool,
}

/// A small routing table from trigger addresses to spec indices: one
/// `(address, spec)` entry per spec, sorted by address and, within an
/// address, by spec index (the order the hooks act in). Campaign fault
/// sets carry a handful of trigger addresses (hardware mode allows two),
/// so a trigger arrival costs a range check, a short scan and a walk by
/// index: no hashing, no allocation.
#[derive(Debug, Clone)]
struct Routes {
    routes: Vec<(u32, usize)>,
    lo: u32,
    hi: u32,
}

impl Routes {
    fn build(mut routes: Vec<(u32, usize)>) -> Routes {
        routes.sort_unstable();
        let (lo, hi) = match (routes.first(), routes.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => (lo, hi),
            // Empty: an impossible range so `contains` is always false.
            _ => (1, 0),
        };
        Routes { routes, lo, hi }
    }

    fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Whether any spec is routed at `a`: exact, and a couple of integer
    /// compares for an address outside the table's range.
    #[inline(always)]
    fn contains(&self, a: u32) -> bool {
        a >= self.lo
            && a <= self.hi
            && (self.lo == self.hi || self.routes.iter().any(|&(addr, _)| addr == a))
    }

    /// The table indices routed at `a` (empty when none). Indices rather
    /// than a borrowed slice, so the hooks can mutate the injector while
    /// walking them.
    #[inline]
    fn find(&self, a: u32) -> Range<usize> {
        let start = self.routes.partition_point(|&(addr, _)| addr < a);
        let len = self.routes[start..]
            .iter()
            .take_while(|&&(addr, _)| addr == a)
            .count();
        start..start + len
    }

    /// The spec index of table entry `k`.
    #[inline(always)]
    fn spec(&self, k: usize) -> usize {
        self.routes[k].1
    }

    /// The distinct routed addresses, ascending.
    fn addrs(&self) -> Vec<u32> {
        let mut addrs: Vec<u32> = self.routes.iter().map(|&(a, _)| a).collect();
        addrs.dedup();
        addrs
    }

    /// Conservative overlap test against `[first, last]` on the table's
    /// bounding range: may report `true` when no address is actually
    /// inside (which only costs a fast path), never `false` when one is.
    #[inline(always)]
    fn intersects_range(&self, first: u32, last: u32) -> bool {
        self.lo <= last && self.hi >= first
    }
}

impl Injector {
    /// Compile a fault set for injection.
    ///
    /// `seed` drives [`ErrorOp::ReplaceRandom`] values deterministically.
    ///
    /// # Errors
    ///
    /// See [`InjectorError`]; notably the hardware-breakpoint budget check
    /// in [`TriggerMode::Hardware`].
    pub fn new(
        specs: Vec<FaultSpec>,
        mode: TriggerMode,
        seed: u64,
    ) -> Result<Injector, InjectorError> {
        for s in &specs {
            s.validate().map_err(InjectorError::InvalidSpec)?;
        }
        if mode == TriggerMode::Hardware {
            let mut addrs: Vec<(bool, u32)> = Vec::new();
            for s in &specs {
                match s.trigger {
                    Trigger::OpcodeFetch(a) => addrs.push((true, a)),
                    Trigger::OperandLoad(a) | Trigger::OperandStore(a) => addrs.push((false, a)),
                    Trigger::Always => return Err(InjectorError::AlwaysNeedsIntrusive),
                    Trigger::AfterInstructions(_) => {}
                }
            }
            addrs.sort_unstable();
            addrs.dedup();
            if addrs.len() > HW_BREAKPOINTS {
                return Err(InjectorError::BreakpointBudget {
                    required: addrs.len(),
                    available: HW_BREAKPOINTS,
                });
            }
        }
        let n = specs.len();
        let (mut fetch, mut load, mut store) = (Vec::new(), Vec::new(), Vec::new());
        let (mut temporal, mut always, mut memory_faults) = (Vec::new(), Vec::new(), Vec::new());
        for (i, s) in specs.iter().enumerate() {
            if matches!(s.target, Target::Memory(_)) {
                memory_faults.push(i);
                continue;
            }
            match s.trigger {
                Trigger::OpcodeFetch(a) => fetch.push((a, i)),
                Trigger::OperandLoad(a) => load.push((a, i)),
                Trigger::OperandStore(a) => store.push((a, i)),
                Trigger::AfterInstructions(_) => temporal.push(i),
                Trigger::Always => always.push(i),
            }
        }
        Ok(Injector {
            by_fetch: Routes::build(fetch),
            by_load: Routes::build(load),
            by_store: Routes::build(store),
            temporal,
            always,
            memory_faults,
            occurrences: vec![0; n],
            armed: vec![false; n],
            latched: vec![false; n],
            fired: vec![0; n],
            retired: 0,
            rng: StdRng::seed_from_u64(seed),
            specs,
            reference_dispatch: false,
        })
    }

    /// Disable (or re-enable) the hot-path address filters, falling back to
    /// the exhaustive table walk of the original implementation.
    ///
    /// The filters are exact, so both dispatchers are observably identical
    /// (a tested invariant); the reference mode exists for differential
    /// testing and as the cold-boot benchmark baseline.
    pub fn set_reference_dispatch(&mut self, on: bool) {
        self.reference_dispatch = on;
    }

    /// Apply memory-resident faults ([`Target::Memory`]) to the loaded
    /// machine — the paper's "error inserted in memory" fault model, which
    /// Xception realises by triggering at the first program instruction.
    ///
    /// Returns the [`PreparedWrites`] record of every word patched, so the
    /// run lifecycle can undo them: under the warm-reboot engine the
    /// machine snapshot is taken *before* `prepare`, which makes
    /// [`swifi_vm::Machine::restore`] revert these writes for free via the
    /// dirty-page tracker.
    ///
    /// # Errors
    ///
    /// Propagates [`swifi_vm::Trap`] if a fault addresses unmapped memory.
    pub fn prepare(&mut self, machine: &mut Machine) -> Result<PreparedWrites, swifi_vm::Trap> {
        let mut writes = PreparedWrites::default();
        for k in 0..self.memory_faults.len() {
            let i = self.memory_faults[k];
            let spec = self.specs[i];
            if let Target::Memory(addr) = spec.target {
                let old = machine.peek_u32(addr)?;
                let random = self.rng.next_u32();
                let new = spec.what.apply(old, random);
                machine.poke_u32(addr, new)?;
                writes.writes.push(PreparedWrite { addr, old, new });
                self.fired[i] += 1;
            }
        }
        Ok(writes)
    }

    /// Re-arm the injector for another run without recompiling the trigger
    /// routing tables: clears all occurrence/armed/latched/fired state and
    /// reseeds the random stream.
    ///
    /// This is the injector half of the warm-reboot contract — a session
    /// calls `reset` + [`swifi_vm::Machine::restore`] between runs, and the
    /// pair must be observably identical to building a fresh
    /// [`Injector::new`] against a freshly loaded machine (the routing
    /// tables depend only on the immutable fault set, so resetting the
    /// per-run state is exhaustive).
    pub fn reset(&mut self, seed: u64) {
        self.occurrences.iter_mut().for_each(|o| *o = 0);
        self.armed.iter_mut().for_each(|a| *a = false);
        self.latched.iter_mut().for_each(|l| *l = false);
        self.fired.iter_mut().for_each(|f| *f = 0);
        self.retired = 0;
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Arm-after-restore: preload the occurrence counter of spec `i` with
    /// the `seen` trigger arrivals that happened in a forked-away prefix,
    /// so the next matching event is counted as occurrence `seen + 1`.
    ///
    /// Call immediately after [`Injector::reset`], before the resumed
    /// run. Sound only for specs with a fork point
    /// ([`FaultSpec::fork_point`]): for those, every pre-first-fire hook
    /// is an architectural no-op and no random values are drawn, so a
    /// freshly reset injector with a preloaded counter is observably
    /// identical to one that replayed the whole prefix.
    pub fn resume_occurrences(&mut self, i: usize, seen: u64) {
        self.occurrences[i] = seen;
    }

    /// Number of times fault `i` actually corrupted state.
    pub fn fired_count(&self, i: usize) -> u64 {
        self.fired[i]
    }

    /// Whether any fault fired during the run — Xception's activation
    /// monitoring; a run whose faults never fired is *dormant*.
    pub fn any_fired(&self) -> bool {
        self.fired.iter().any(|&f| f > 0)
    }

    /// The compiled fault set.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    #[inline]
    fn fire_value(&mut self, i: usize, value: &mut u32) {
        let random = self.rng.next_u32();
        *value = self.specs[i].what.apply(*value, random);
        self.fired[i] += 1;
    }

    /// Advance occurrence counting for spec `i`; returns whether this
    /// occurrence fires.
    #[inline]
    fn occur(&mut self, i: usize) -> bool {
        self.occurrences[i] += 1;
        self.specs[i].when.fires(self.occurrences[i])
    }
}

impl Inspector for Injector {
    /// Declare exactly which PCs the machine must route through the slow
    /// fetch path so the predecoded translation cache can serve the rest.
    ///
    /// Every fetch-triggered spec — whatever its *target* — needs
    /// `on_fetch` at its trigger address, because that call is where
    /// occurrence counting and arming happen (a `Gpr`-target fault armed
    /// at a fetch address fires later in `on_reg_write` only if the fetch
    /// hook armed it). So the pin set is the `by_fetch` key set, not just
    /// the instruction-bus faults. The machine runs each armed PC inside
    /// its translated blocks as a hooked trigger step. Temporal
    /// (`AfterInstructions`) and `Always` triggers observe *every* fetch,
    /// and reference dispatch promises seed-exact hook sequencing; those
    /// demand [`FetchPolicy::All`].
    fn fetch_policy(&self) -> FetchPolicy {
        if self.reference_dispatch || !self.temporal.is_empty() || !self.always.is_empty() {
            return FetchPolicy::All;
        }
        FetchPolicy::Pcs(self.by_fetch.addrs())
    }

    #[inline]
    fn on_fetch(&mut self, _core: usize, pc: u32, word: &mut u32) {
        if !self.reference_dispatch
            && self.temporal.is_empty()
            && self.always.is_empty()
            && !self.by_fetch.contains(pc)
        {
            return;
        }
        self.fetch_slow(pc, word);
    }

    #[inline]
    fn on_load_addr(&mut self, _core: usize, pc: u32, addr: &mut u32) {
        if !self.reference_dispatch
            && self.always.is_empty()
            && !self.by_fetch.contains(pc)
            && !self.by_load.contains(*addr)
        {
            return;
        }
        self.load_addr_slow(pc, addr);
    }

    #[inline]
    fn on_load_value(&mut self, _core: usize, pc: u32, addr: u32, value: &mut u32) {
        if !self.reference_dispatch
            && self.always.is_empty()
            && !self.by_fetch.contains(pc)
            && !self.by_load.contains(addr)
        {
            return;
        }
        self.load_value_slow(pc, addr, value);
    }

    #[inline]
    fn on_store_addr(&mut self, _core: usize, pc: u32, addr: &mut u32) {
        if !self.reference_dispatch
            && self.always.is_empty()
            && !self.by_fetch.contains(pc)
            && !self.by_store.contains(*addr)
        {
            return;
        }
        self.store_addr_slow(pc, addr);
    }

    #[inline]
    fn on_store_value(&mut self, _core: usize, pc: u32, addr: u32, value: &mut u32) {
        if !self.reference_dispatch
            && self.always.is_empty()
            && !self.by_fetch.contains(pc)
            && !self.by_store.contains(addr)
        {
            return;
        }
        self.store_value_slow(pc, addr, value);
    }

    #[inline]
    fn on_reg_write(&mut self, _core: usize, pc: u32, reg: u8, value: &mut u32) {
        if !self.reference_dispatch && !self.by_fetch.contains(pc) {
            return;
        }
        self.reg_write_slow(pc, reg, value);
    }

    #[inline]
    fn on_retire(&mut self, _core: usize, _pc: u32) {
        self.retired += 1;
    }

    /// Outside the armed (`by_fetch`) PCs every hook above reduces to its
    /// fast-reject unless a data-address trigger could match a load/store
    /// effective address (`by_load`/`by_store`), an `Always` spec observes
    /// everything, or reference dispatch demands seed-exact sequencing.
    /// Quiescence is exactly the complement of those conditions plus a
    /// conservative overlap test against the armed PCs (the machine never
    /// asks about a block's trigger step, which runs with every hook).
    #[inline]
    fn block_quiescent(&self, _core: usize, first_pc: u32, last_pc: u32) -> bool {
        !self.reference_dispatch
            && self.always.is_empty()
            && self.by_load.is_empty()
            && self.by_store.is_empty()
            && !self.by_fetch.intersects_range(first_pc, last_pc)
    }

    /// `on_retire` is a bare order-insensitive counter, so a quiescent
    /// block batches it: temporal triggers still see the exact retired
    /// count (and a non-empty temporal set forces [`FetchPolicy::All`],
    /// which disables block translation entirely).
    #[inline]
    fn on_block_retire(&mut self, _core: usize, _first_pc: u32, n: u32) {
        self.retired += u64::from(n);
    }
}

/// The rarely-taken hook bodies, kept out of line so the `Inspector`
/// methods above inline into the interpreter loops as a couple of
/// compares. The fast-reject conditions in the trait impl are the exact
/// complement of what these bodies can react to, so splitting them off is
/// behaviour-preserving; the differential dispatch test below pins that.
impl Injector {
    #[inline(never)]
    fn fetch_slow(&mut self, pc: u32, word: &mut u32) {
        // Temporal triggers: occurrence = any fetch once the retired count
        // has passed the threshold.
        for k in 0..self.temporal.len() {
            let i = self.temporal[k];
            if let Trigger::AfterInstructions(n) = self.specs[i].trigger {
                if self.retired >= n {
                    let fires = self.occur(i);
                    self.armed[i] = fires;
                    if fires && matches!(self.specs[i].target, Target::InstrBus) {
                        self.fire_value(i, word);
                    }
                }
            }
        }
        for k in 0..self.always.len() {
            let i = self.always[k];
            let fires = self.occur(i);
            self.armed[i] = fires;
            if fires && matches!(self.specs[i].target, Target::InstrBus) {
                self.fire_value(i, word);
            }
        }
        for k in self.by_fetch.find(pc) {
            let i = self.by_fetch.spec(k);
            let fires = self.occur(i);
            self.armed[i] = fires;
            match self.specs[i].target {
                Target::InstrBus if fires => self.fire_value(i, word),
                Target::InstrMemory => {
                    // Once fired, the corruption is resident: it affects
                    // every later fetch of this address too.
                    if fires {
                        self.latched[i] = true;
                    }
                    if self.latched[i] {
                        self.fire_value(i, word);
                    }
                }
                _ => {}
            }
        }
    }

    #[inline(never)]
    fn load_addr_slow(&mut self, pc: u32, addr: &mut u32) {
        self.fire_armed_at(pc, Target::LoadAddress, addr);
        for k in self.by_load.find(*addr) {
            let i = self.by_load.spec(k);
            let fires = self.occur(i);
            self.armed[i] = fires;
            if fires && self.specs[i].target == Target::LoadAddress {
                self.fire_value(i, addr);
            }
        }
        self.fire_armed_always(Target::LoadAddress, addr);
    }

    #[inline(never)]
    fn load_value_slow(&mut self, pc: u32, addr: u32, value: &mut u32) {
        self.fire_armed_at(pc, Target::DataBusLoad, value);
        for k in self.by_load.find(addr) {
            let i = self.by_load.spec(k);
            if self.armed[i] && self.specs[i].target == Target::DataBusLoad {
                self.fire_value(i, value);
            }
        }
        self.fire_armed_always(Target::DataBusLoad, value);
    }

    #[inline(never)]
    fn store_addr_slow(&mut self, pc: u32, addr: &mut u32) {
        self.fire_armed_at(pc, Target::StoreAddress, addr);
        for k in self.by_store.find(*addr) {
            let i = self.by_store.spec(k);
            let fires = self.occur(i);
            self.armed[i] = fires;
            if fires && self.specs[i].target == Target::StoreAddress {
                self.fire_value(i, addr);
            }
        }
        self.fire_armed_always(Target::StoreAddress, addr);
    }

    #[inline(never)]
    fn store_value_slow(&mut self, pc: u32, addr: u32, value: &mut u32) {
        self.fire_armed_at(pc, Target::DataBusStore, value);
        for k in self.by_store.find(addr) {
            let i = self.by_store.spec(k);
            if self.armed[i] && self.specs[i].target == Target::DataBusStore {
                self.fire_value(i, value);
            }
        }
        self.fire_armed_always(Target::DataBusStore, value);
    }

    #[inline(never)]
    fn reg_write_slow(&mut self, pc: u32, reg: u8, value: &mut u32) {
        self.fire_armed_at(pc, Target::Gpr(reg), value);
    }

    /// Fire every fetch-triggered spec at `pc` that its fetch armed and
    /// that corrupts `target`.
    #[inline]
    fn fire_armed_at(&mut self, pc: u32, target: Target, value: &mut u32) {
        for k in self.by_fetch.find(pc) {
            let i = self.by_fetch.spec(k);
            if self.armed[i] && self.specs[i].target == target {
                self.fire_value(i, value);
            }
        }
    }

    /// Fire every armed `Always` spec that corrupts `target`.
    #[inline]
    fn fire_armed_always(&mut self, target: Target, value: &mut u32) {
        for k in 0..self.always.len() {
            let i = self.always[k];
            if self.armed[i] && self.specs[i].target == target {
                self.fire_value(i, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ErrorOp, Firing};
    use swifi_vm::asm::assemble;
    use swifi_vm::isa::{encode, Instr};
    use swifi_vm::machine::{Machine, MachineConfig, RunOutcome};

    fn run_with_faults(src: &str, faults: Vec<FaultSpec>, mode: TriggerMode) -> (RunOutcome, bool) {
        let image = assemble(src).unwrap();
        let mut inj = Injector::new(faults, mode, 42).unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        inj.prepare(&mut m).unwrap();
        let out = m.run(&mut inj);
        (out, inj.any_fired())
    }

    const COUNT_SRC: &str = "
        li r5, 0
        li r6, 0
        addi r6, r6, 1
        addi r5, r5, 1
        cmpi cr0, r5, 5
        bc cr0.lt, 1, -3
        mr r3, r6
        sc print_int
        li r3, 0
        halt";

    #[test]
    fn fast_dispatch_matches_reference_dispatch() {
        // The hot-path address filters must be invisible: for a spread of
        // targets and triggers, the filtered dispatcher and the exhaustive
        // reference dispatcher produce identical runs.
        let image = assemble(COUNT_SRC).unwrap();
        let specs = [
            FaultSpec::replace_instr(
                0x108,
                encode(Instr::Addi {
                    rd: 6,
                    ra: 6,
                    imm: 2,
                }),
            ),
            FaultSpec {
                what: ErrorOp::Xor(0x0000_00FF),
                target: Target::InstrMemory,
                trigger: Trigger::OpcodeFetch(0x10C),
                when: Firing::First,
            },
            FaultSpec {
                what: ErrorOp::Add(3),
                target: Target::Gpr(5),
                trigger: Trigger::OpcodeFetch(0x10C),
                when: Firing::EveryTime,
            },
            FaultSpec {
                what: ErrorOp::Or(1),
                target: Target::InstrBus,
                trigger: Trigger::AfterInstructions(10),
                when: Firing::Nth(2),
            },
        ];
        for (k, spec) in specs.iter().enumerate() {
            let mut results = Vec::new();
            for reference in [false, true] {
                let mut inj = Injector::new(vec![*spec], TriggerMode::Hardware, 42).unwrap();
                inj.set_reference_dispatch(reference);
                let mut m = Machine::new(MachineConfig::default());
                m.load(&image);
                inj.prepare(&mut m).unwrap();
                let out = m.run(&mut inj);
                results.push((out.output().to_vec(), inj.any_fired()));
            }
            assert_eq!(
                results[0], results[1],
                "spec {k} diverged between dispatchers"
            );
        }
    }

    #[test]
    fn fetch_policy_mirrors_trigger_routing() {
        // Fetch-triggered faults (any target) pin exactly their trigger
        // addresses; load/store/memory faults pin nothing.
        let inj = Injector::new(
            vec![
                FaultSpec {
                    what: ErrorOp::Or(1),
                    target: Target::Gpr(5),
                    trigger: Trigger::OpcodeFetch(0x10C),
                    when: Firing::EveryTime,
                },
                FaultSpec::replace_instr(0x108, encode(Instr::Halt)),
                FaultSpec {
                    what: ErrorOp::Xor(4),
                    target: Target::DataBusLoad,
                    trigger: Trigger::OperandLoad(0x2000),
                    when: Firing::First,
                },
            ],
            TriggerMode::IntrusiveTraps,
            1,
        )
        .unwrap();
        assert_eq!(inj.fetch_policy(), FetchPolicy::Pcs(vec![0x108, 0x10C]));

        // Memory-resident faults live in prepare(), not in on_fetch.
        let mem_only = Injector::new(
            vec![FaultSpec {
                what: ErrorOp::Or(1),
                target: Target::Memory(0x104),
                trigger: Trigger::OpcodeFetch(0x100),
                when: Firing::First,
            }],
            TriggerMode::Hardware,
            1,
        )
        .unwrap();
        assert_eq!(mem_only.fetch_policy(), FetchPolicy::Pcs(Vec::new()));

        // Temporal triggers must observe every fetch.
        let temporal = Injector::new(
            vec![FaultSpec {
                what: ErrorOp::Or(1),
                target: Target::InstrBus,
                trigger: Trigger::AfterInstructions(10),
                when: Firing::First,
            }],
            TriggerMode::Hardware,
            1,
        )
        .unwrap();
        assert_eq!(temporal.fetch_policy(), FetchPolicy::All);

        // Reference dispatch restores seed-exact hook sequencing.
        let mut refmode = Injector::new(vec![], TriggerMode::Hardware, 1).unwrap();
        assert_eq!(refmode.fetch_policy(), FetchPolicy::Pcs(Vec::new()));
        refmode.set_reference_dispatch(true);
        assert_eq!(refmode.fetch_policy(), FetchPolicy::All);
    }

    #[test]
    fn injected_runs_identical_across_interpreters() {
        // The cached interpreter with armed-PC pinning must reproduce the
        // reference interpreter's outcome for fetch-triggered faults of
        // every target kind.
        let image = assemble(COUNT_SRC).unwrap();
        let specs = [
            FaultSpec::replace_instr(
                0x108,
                encode(Instr::Addi {
                    rd: 6,
                    ra: 6,
                    imm: 2,
                }),
            ),
            FaultSpec {
                what: ErrorOp::Xor(0x0000_00FF),
                target: Target::InstrMemory,
                trigger: Trigger::OpcodeFetch(0x10C),
                when: Firing::First,
            },
            FaultSpec {
                what: ErrorOp::Add(3),
                target: Target::Gpr(5),
                trigger: Trigger::OpcodeFetch(0x10C),
                when: Firing::EveryTime,
            },
            FaultSpec {
                what: ErrorOp::Or(1),
                target: Target::Memory(0x110),
                trigger: Trigger::OpcodeFetch(0x100),
                when: Firing::First,
            },
        ];
        for (k, spec) in specs.iter().enumerate() {
            let mut results = Vec::new();
            for reference_interp in [false, true] {
                let mut inj = Injector::new(vec![*spec], TriggerMode::Hardware, 42).unwrap();
                let mut m = Machine::new(MachineConfig::default());
                m.set_reference_interp(reference_interp);
                m.load(&image);
                inj.prepare(&mut m).unwrap();
                let out = m.run(&mut inj);
                results.push((out, inj.any_fired(), m.retired()));
            }
            assert_eq!(
                results[0], results[1],
                "spec {k} diverged between interpreters"
            );
        }
    }

    #[test]
    fn clean_run_baseline() {
        let (out, fired) = run_with_faults(COUNT_SRC, vec![], TriggerMode::Hardware);
        assert_eq!(out.output(), b"5");
        assert!(!fired);
    }

    #[test]
    fn instr_bus_replace_changes_behavior() {
        // Replace `addi r6, r6, 1` (index 2, addr 0x108) with +2.
        let fault = FaultSpec::replace_instr(
            0x108,
            encode(Instr::Addi {
                rd: 6,
                ra: 6,
                imm: 2,
            }),
        );
        let (out, fired) = run_with_faults(COUNT_SRC, vec![fault], TriggerMode::Hardware);
        assert_eq!(out.output(), b"10");
        assert!(fired);
    }

    #[test]
    fn firing_first_applies_once() {
        let fault = FaultSpec {
            what: ErrorOp::Replace(encode(Instr::Addi {
                rd: 6,
                ra: 6,
                imm: 2,
            })),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(0x108),
            when: Firing::First,
        };
        let (out, _) = run_with_faults(COUNT_SRC, vec![fault], TriggerMode::Hardware);
        assert_eq!(out.output(), b"6"); // one iteration counted double
    }

    #[test]
    fn firing_nth_applies_to_that_occurrence_only() {
        let fault = FaultSpec {
            what: ErrorOp::Replace(encode(Instr::Addi {
                rd: 6,
                ra: 6,
                imm: 2,
            })),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(0x108),
            when: Firing::Nth(3),
        };
        let (out, _) = run_with_faults(COUNT_SRC, vec![fault], TriggerMode::Hardware);
        assert_eq!(out.output(), b"6");
    }

    #[test]
    fn instr_memory_latches() {
        // Fire once (First), but because the corruption is memory-resident
        // it keeps affecting every later iteration.
        let fault = FaultSpec {
            what: ErrorOp::Replace(encode(Instr::Addi {
                rd: 6,
                ra: 6,
                imm: 2,
            })),
            target: Target::InstrMemory,
            trigger: Trigger::OpcodeFetch(0x108),
            when: Firing::First,
        };
        let (out, _) = run_with_faults(COUNT_SRC, vec![fault], TriggerMode::Hardware);
        assert_eq!(out.output(), b"10");
    }

    const STORE_SRC: &str = "
        li r5, 41
        la r4, slot
        stw r5, 0(r4)
        lwz r3, 0(r4)
        sc print_int
        li r3, 0
        halt
        .data
        slot: .word 0";

    #[test]
    fn data_bus_store_corruption() {
        // The store is instruction index 3 (la is 2 words): addr 0x10C.
        let fault = FaultSpec {
            what: ErrorOp::Add(1),
            target: Target::DataBusStore,
            trigger: Trigger::OpcodeFetch(0x10C),
            when: Firing::EveryTime,
        };
        let (out, fired) = run_with_faults(STORE_SRC, vec![fault], TriggerMode::Hardware);
        assert_eq!(out.output(), b"42");
        assert!(fired);
    }

    #[test]
    fn data_bus_load_corruption() {
        let fault = FaultSpec {
            what: ErrorOp::Xor(0xFF),
            target: Target::DataBusLoad,
            trigger: Trigger::OpcodeFetch(0x110),
            when: Firing::EveryTime,
        };
        let (out, _) = run_with_faults(STORE_SRC, vec![fault], TriggerMode::Hardware);
        assert_eq!(out.output(), (41 ^ 0xFF).to_string().as_bytes());
    }

    #[test]
    fn operand_store_trigger_matches_address() {
        // slot lives at data_base = 0x100 + 9*4 = 0x124.
        let image = assemble(STORE_SRC).unwrap();
        let slot_addr = image.data_base();
        let fault = FaultSpec {
            what: ErrorOp::Add(9),
            target: Target::DataBusStore,
            trigger: Trigger::OperandStore(slot_addr),
            when: Firing::EveryTime,
        };
        let (out, _) = run_with_faults(STORE_SRC, vec![fault], TriggerMode::Hardware);
        assert_eq!(out.output(), b"50");
    }

    #[test]
    fn load_address_corruption_shifts_element() {
        let src = "
            la r4, tbl
            lwz r3, 0(r4)
            sc print_int
            li r3, 0
            halt
            .data
            tbl: .word 10, 20";
        let fault = FaultSpec {
            what: ErrorOp::Add(4),
            target: Target::LoadAddress,
            trigger: Trigger::OpcodeFetch(0x108),
            when: Firing::EveryTime,
        };
        let (out, _) = run_with_faults(src, vec![fault], TriggerMode::Hardware);
        assert_eq!(out.output(), b"20");
    }

    #[test]
    fn gpr_corruption_at_writeback() {
        let fault = FaultSpec {
            what: ErrorOp::Or(0x40),
            target: Target::Gpr(5),
            trigger: Trigger::OpcodeFetch(0x100),
            when: Firing::EveryTime,
        };
        // li r5, 41 at 0x100 writes r5 : 41 | 0x40 = 105.
        let (out, _) = run_with_faults(STORE_SRC, vec![fault], TriggerMode::Hardware);
        assert_eq!(out.output(), b"105");
    }

    #[test]
    fn memory_resident_fault_applied_at_prepare() {
        let image = assemble(STORE_SRC).unwrap();
        let slot_addr = image.data_base();
        let fault = FaultSpec {
            what: ErrorOp::Replace(123),
            target: Target::Memory(slot_addr),
            trigger: Trigger::OpcodeFetch(0x100),
            when: Firing::First,
        };
        // The program overwrites the slot, so the patched value is dead —
        // but prepare() must still have written it.
        let mut inj = Injector::new(vec![fault], TriggerMode::Hardware, 7).unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        inj.prepare(&mut m).unwrap();
        assert_eq!(m.peek_u32(slot_addr).unwrap(), 123);
        assert!(inj.any_fired());
    }

    #[test]
    fn temporal_trigger_fires_after_n() {
        let fault = FaultSpec {
            what: ErrorOp::Replace(encode(Instr::Halt)),
            target: Target::InstrBus,
            trigger: Trigger::AfterInstructions(10),
            when: Firing::First,
        };
        let (out, fired) = run_with_faults(COUNT_SRC, vec![fault], TriggerMode::Hardware);
        assert!(fired);
        // Halting mid-loop: no output printed.
        assert!(matches!(out, RunOutcome::Completed { .. }));
        assert_eq!(out.output(), b"");
    }

    #[test]
    fn budget_allows_two_distinct_addresses() {
        let faults = vec![
            FaultSpec::replace_instr(0x100, 0),
            FaultSpec::replace_instr(0x104, 0),
        ];
        assert!(Injector::new(faults, TriggerMode::Hardware, 0).is_ok());
    }

    #[test]
    fn budget_rejects_three_distinct_addresses() {
        let faults = vec![
            FaultSpec::replace_instr(0x100, 0),
            FaultSpec::replace_instr(0x104, 0),
            FaultSpec::replace_instr(0x108, 0),
        ];
        match Injector::new(faults, TriggerMode::Hardware, 0) {
            Err(InjectorError::BreakpointBudget {
                required: 3,
                available: 2,
            }) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn intrusive_mode_lifts_budget() {
        let faults: Vec<FaultSpec> = (0..10)
            .map(|i| FaultSpec::replace_instr(0x100 + i * 4, 0))
            .collect();
        assert!(Injector::new(faults, TriggerMode::IntrusiveTraps, 0).is_ok());
    }

    #[test]
    fn same_address_shares_a_breakpoint() {
        let faults = vec![
            FaultSpec::replace_instr(0x100, 0),
            FaultSpec {
                what: ErrorOp::Add(1),
                target: Target::DataBusStore,
                trigger: Trigger::OpcodeFetch(0x100),
                when: Firing::EveryTime,
            },
            FaultSpec::replace_instr(0x104, 0),
        ];
        assert!(Injector::new(faults, TriggerMode::Hardware, 0).is_ok());
    }

    #[test]
    fn always_trigger_needs_intrusive() {
        let fault = FaultSpec {
            what: ErrorOp::Xor(1),
            target: Target::DataBusLoad,
            trigger: Trigger::Always,
            when: Firing::EveryTime,
        };
        assert_eq!(
            Injector::new(vec![fault], TriggerMode::Hardware, 0).unwrap_err(),
            InjectorError::AlwaysNeedsIntrusive
        );
        assert!(Injector::new(vec![fault], TriggerMode::IntrusiveTraps, 0).is_ok());
    }

    #[test]
    fn random_replacement_is_seed_deterministic() {
        let mk = |seed| {
            let fault = FaultSpec {
                what: ErrorOp::ReplaceRandom,
                target: Target::DataBusStore,
                trigger: Trigger::OpcodeFetch(0x10C),
                when: Firing::EveryTime,
            };
            let image = assemble(STORE_SRC).unwrap();
            let mut inj = Injector::new(vec![fault], TriggerMode::Hardware, seed).unwrap();
            let mut m = Machine::new(MachineConfig::default());
            m.load(&image);
            m.run(&mut inj).output().to_vec()
        };
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn prepare_records_and_undoes_writes() {
        let image = assemble(STORE_SRC).unwrap();
        let slot_addr = image.data_base();
        let fault = FaultSpec {
            what: ErrorOp::Replace(123),
            target: Target::Memory(slot_addr),
            trigger: Trigger::OpcodeFetch(0x100),
            when: Firing::First,
        };
        let mut inj = Injector::new(vec![fault], TriggerMode::Hardware, 7).unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load(&image);
        let before = m.peek_u32(slot_addr).unwrap();
        let writes = inj.prepare(&mut m).unwrap();
        assert_eq!(writes.len(), 1);
        assert_eq!(
            writes.writes()[0],
            PreparedWrite {
                addr: slot_addr,
                old: before,
                new: 123
            }
        );
        assert_eq!(m.peek_u32(slot_addr).unwrap(), 123);
        writes.undo(&mut m).unwrap();
        assert_eq!(m.peek_u32(slot_addr).unwrap(), before);
    }

    #[test]
    fn reset_matches_fresh_injector() {
        // Run a ReplaceRandom fault twice through one injector with
        // reset(), and once through a fresh injector: identical outputs.
        let fault = FaultSpec {
            what: ErrorOp::ReplaceRandom,
            target: Target::DataBusStore,
            trigger: Trigger::OpcodeFetch(0x10C),
            when: Firing::EveryTime,
        };
        let image = assemble(STORE_SRC).unwrap();

        let fresh = |seed: u64| {
            let mut inj = Injector::new(vec![fault], TriggerMode::Hardware, seed).unwrap();
            let mut m = Machine::new(MachineConfig::default());
            m.load(&image);
            let out = m.run(&mut inj).output().to_vec();
            (out, inj.any_fired())
        };

        let mut inj = Injector::new(vec![fault], TriggerMode::Hardware, 11).unwrap();
        for seed in [11u64, 99, 11] {
            inj.reset(seed);
            assert!(!inj.any_fired(), "reset must clear fired counters");
            let mut m = Machine::new(MachineConfig::default());
            m.load(&image);
            let out = m.run(&mut inj).output().to_vec();
            assert_eq!((out, inj.any_fired()), fresh(seed), "seed {seed}");
        }
    }

    #[test]
    fn reset_clears_latched_instr_memory_state() {
        // An InstrMemory fault latches after firing; reset must unlatch it
        // so the next run starts clean.
        let fault = FaultSpec {
            what: ErrorOp::Replace(encode(Instr::Addi {
                rd: 6,
                ra: 6,
                imm: 2,
            })),
            target: Target::InstrMemory,
            trigger: Trigger::OpcodeFetch(0x108),
            when: Firing::Nth(3),
        };
        let image = assemble(COUNT_SRC).unwrap();
        let mut inj = Injector::new(vec![fault], TriggerMode::Hardware, 0).unwrap();
        let run = |inj: &mut Injector| {
            let mut m = Machine::new(MachineConfig::default());
            m.load(&image);
            m.run(inj).output().to_vec()
        };
        let first = run(&mut inj);
        inj.reset(0);
        let second = run(&mut inj);
        assert_eq!(first, second, "reset run must replay identically");
    }

    #[test]
    fn dormant_fault_never_fires() {
        // Trigger address never executed (inside skipped branch).
        let src = "
            b 3
            li r6, 1
            nop
            li r3, 0
            halt";
        let fault = FaultSpec::replace_instr(0x104, 0);
        let (out, fired) = run_with_faults(src, vec![fault], TriggerMode::Hardware);
        assert!(out.is_normal());
        assert!(!fired, "fault at unexecuted address must stay dormant");
    }

    #[test]
    fn resume_occurrences_shifts_the_firing_window() {
        // COUNT_SRC fetches 0x108 exactly 5 times, so a Nth(7) fault is
        // dormant on a cold run. Preloading 4 prefix arrivals makes the
        // same 5 fetches occurrences 5..=9, so occurrence 7 fires.
        let fault = FaultSpec {
            what: ErrorOp::Xor(1),
            target: Target::Gpr(6),
            trigger: Trigger::OpcodeFetch(0x108),
            when: Firing::Nth(7),
        };
        let image = assemble(COUNT_SRC).unwrap();
        let mut inj = Injector::new(vec![fault], TriggerMode::Hardware, 3).unwrap();
        let run = |inj: &mut Injector| {
            let mut m = Machine::new(MachineConfig::default());
            m.load(&image);
            m.run(inj);
        };

        run(&mut inj);
        assert_eq!(inj.fired_count(0), 0, "5 arrivals can't reach Nth(7)");

        inj.reset(3);
        inj.resume_occurrences(0, 4);
        run(&mut inj);
        assert_eq!(inj.fired_count(0), 1, "arrival 3 is occurrence 7");

        inj.reset(3);
        run(&mut inj);
        assert_eq!(inj.fired_count(0), 0, "reset clears the preload");
    }
}
