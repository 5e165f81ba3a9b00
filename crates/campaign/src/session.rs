//! The warm-reboot run engine: snapshot/restore machine lifecycle unified
//! behind a [`RunSession`].
//!
//! The paper's methodology demands that "the target system is rebooted
//! between injections to assure a clean state". The seed implementation
//! honoured that by building a fresh [`Machine`] per run — zeroing
//! 512 KiB of guest memory, re-copying the image, and recompiling the
//! injector's trigger tables tens of thousands of times per campaign.
//!
//! A `RunSession` keeps the reboot *semantics* while dropping the cost:
//!
//! 1. build the machine and [`Machine::load`] the program **once**;
//! 2. take a [`MachineSnapshot`](swifi_vm::MachineSnapshot) of the clean
//!    post-load state **once**;
//! 3. for every run: [`Machine::restore`] (copies only the pages the
//!    previous run dirtied), re-arm the injector with
//!    [`Injector::reset`], and run.
//!
//! The campaign drivers hold **one session per worker thread, not one per
//! run** (see [`crate::pool::parallel_map_with`]); the equivalence of a
//! restored machine and a freshly booted one is a tested invariant (VM
//! unit tests plus the property suite in `tests/fault_injection_properties.rs`),
//! which is exactly what licenses the reuse.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use swifi_core::fault::FaultSpec;
use swifi_core::injector::{Injector, TriggerMode};
use swifi_lang::Program;
use swifi_programs::input::TestInput;
use swifi_programs::Family;
use swifi_trace::event::{arg_str, arg_u64};
use swifi_trace::metrics::names as metric_names;
use swifi_trace::{ProfiledInspector, WorkerTelemetry};
use swifi_vm::inspect::Inspector;
use swifi_vm::machine::{FetchStop, Machine, MachineSnapshot, RunOutcome};
use swifi_vm::Noop;

use crate::prefix::{GoldenRun, PrefixCache};
use crate::runner::{campaign_config, classify_outcome, FailureMode};

/// Per-session run counters, folded into a campaign-level [`Throughput`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Total runs executed by this session (clean + injected).
    pub runs: u64,
    /// Runs that had a fault set armed.
    pub injected_runs: u64,
    /// Injected runs where at least one fault fired.
    pub fired_runs: u64,
    /// Injected runs where no fault fired (dormant faults).
    pub dormant_runs: u64,
    /// Times the injector had to be rebuilt because the fault set changed
    /// (diagnostic: a low number means the reset fast path is working).
    pub injector_rebuilds: u64,
    /// Guest instructions retired across all runs (the numerator of the
    /// campaign's instructions-per-second figure).
    pub retired_instrs: u64,
    /// Translation-cache lines decoded by this session's machine.
    pub decode_lines_built: u64,
    /// Translation-cache lines invalidated by writes into the code region
    /// (injector patches, guest stores, warm-reboot restores).
    pub decode_invalidations: u64,
    /// Instructions that took the slow fetch→`on_fetch`→decode path
    /// (armed PCs, reference mode, PCs outside the cached code region).
    pub slow_fetches: u64,
    /// Golden prefixes captured (paused runs snapshotted) by this session.
    pub prefix_snapshots_built: u64,
    /// Injected runs resumed from a cached prefix snapshot.
    pub prefix_fork_hits: u64,
    /// Guest instructions *not* executed thanks to the prefix cache
    /// (forked-over prefixes, memoized golden runs, dormant
    /// short-circuits). Disjoint from `retired_instrs`, which counts only
    /// instructions actually executed.
    pub prefix_instrs_skipped: u64,
    /// Injected runs classified dormant from the golden trigger-arrival
    /// count, without executing anything.
    pub prefix_dormant_short_circuits: u64,
    /// Clean runs answered from the memoized golden run.
    pub prefix_golden_hits: u64,
    /// Injected runs that bypassed the fork machinery because the trigger
    /// memo proved the prefix too shallow to pay for a snapshot restore.
    pub prefix_shallow_skips: u64,
    /// Basic blocks translated by this session's machine.
    pub blocks_built: u64,
    /// Dispatches answered by executing a whole translated block.
    pub block_hits: u64,
    /// Guest instructions retired from inside translated blocks
    /// (a subset of `retired_instrs`).
    pub block_instrs: u64,
    /// Block-mode dispatches that fell back to per-instruction execution
    /// (untranslatable or pinned words, nearly-exhausted quanta).
    pub block_fallbacks: u64,
    /// Translated blocks discarded because a write touched their words.
    pub block_invalidations: u64,
    /// Inert, always 0; kept only because `perfbench` reads it.
    pub prune_trace_runs: u64,
    /// Inert, always 0; kept only because `perfbench` reads it.
    pub prune_dormant_skips: u64,
    /// Inert, always 0; kept only because `perfbench` reads it.
    pub prune_collapse_hits: u64,
    /// Inert, always 0; kept only because `perfbench` reads it.
    pub prune_collapse_logged: u64,
}

impl SessionStats {
    /// Fold another session's counters in.
    pub fn merge(&mut self, other: &SessionStats) {
        self.runs += other.runs;
        self.injected_runs += other.injected_runs;
        self.fired_runs += other.fired_runs;
        self.dormant_runs += other.dormant_runs;
        self.injector_rebuilds += other.injector_rebuilds;
        self.retired_instrs += other.retired_instrs;
        self.decode_lines_built += other.decode_lines_built;
        self.decode_invalidations += other.decode_invalidations;
        self.slow_fetches += other.slow_fetches;
        self.prefix_snapshots_built += other.prefix_snapshots_built;
        self.prefix_fork_hits += other.prefix_fork_hits;
        self.prefix_instrs_skipped += other.prefix_instrs_skipped;
        self.prefix_dormant_short_circuits += other.prefix_dormant_short_circuits;
        self.prefix_golden_hits += other.prefix_golden_hits;
        self.prefix_shallow_skips += other.prefix_shallow_skips;
        self.blocks_built += other.blocks_built;
        self.block_hits += other.block_hits;
        self.block_instrs += other.block_instrs;
        self.block_fallbacks += other.block_fallbacks;
        self.block_invalidations += other.block_invalidations;
    }
}

/// Aggregate campaign throughput: the merged counters of the sessions
/// that executed a measured region, plus its wall-clock. Surfaced in
/// reports and the `swifi campaign` command.
///
/// The counters describe what *this process* executed: runs replayed
/// from a checkpoint on resume never touch a session, so a resumed
/// campaign's throughput covers only the runs it re-ran. The campaign's
/// run totals live on the campaign structs, which fold them from the
/// records.
///
/// `PartialEq` deliberately ignores everything here, as
/// [`PhaseTime`](crate::engine::PhaseTime)'s ignores its wall-clock: two
/// campaigns with identical seeds must compare equal even though their
/// wall-clock differs, their sessions split the work (and hence the
/// per-worker caches) differently, a resume re-ran only part of them, and
/// the prefix-fork and block caches may or may not be enabled — the
/// seed-determinism, resume and on/off equivalence tests rely on this.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Throughput {
    /// Counters merged over the sessions that ran.
    pub stats: SessionStats,
    /// Wall-clock seconds for the measured region.
    pub elapsed_secs: f64,
}

impl PartialEq for Throughput {
    fn eq(&self, _: &Throughput) -> bool {
        true
    }
}

impl Throughput {
    /// Aggregate the stats of the sessions that executed a measured region.
    pub fn collect(sessions: &[RunSession], elapsed: std::time::Duration) -> Throughput {
        let mut stats = SessionStats::default();
        for s in sessions {
            stats.merge(&s.stats());
        }
        Throughput {
            stats,
            elapsed_secs: elapsed.as_secs_f64(),
        }
    }

    /// Runs per wall-clock second (0 when nothing was measured).
    pub fn runs_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.stats.runs as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Guest instructions per wall-clock second (0 when nothing was
    /// measured) — the figure the translation cache exists to raise.
    pub fn instrs_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.stats.retired_instrs as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// A fork snapshot is captured only when the paused prefix covers at
/// least `1 / FORK_SHALLOW_DENOM` of the memoized golden run — see
/// [`RunSession::fork_worthwhile`]. A quarter splits the measured field
/// cleanly: JB.team11's regressing triggers sit at ~4% depth, the
/// profitable JB.team6 / C.team10 prefixes at ~28% / ~49%.
const FORK_SHALLOW_DENOM: u64 = 4;

/// Cached injector, keyed by the fault set it was compiled from.
struct CachedInjector {
    specs: Vec<FaultSpec>,
    mode: TriggerMode,
    injector: Injector,
}

/// A structured failure from the fallible run entry points
/// ([`RunSession::try_run_injected`]). The campaign generators never
/// produce fault sets that hit these, so the infallible paths panic
/// instead; callers feeding *external* fault descriptions (checkpoint
/// replay, the CLI, the server) get an error they can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The fault set cannot be compiled for the requested trigger mode
    /// (breakpoint budget exceeded, invalid spec, …).
    InjectorBuild(String),
    /// Arming the faults against the loaded machine failed — a
    /// [`swifi_core::fault::Target::Memory`] fault addresses unmapped
    /// guest memory.
    Prepare(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::InjectorBuild(e) => write!(f, "injector build failed: {e}"),
            SessionError::Prepare(e) => write!(f, "fault preparation failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// A reusable run engine for one compiled program: one machine, one clean
/// snapshot, one (cached) injector — many runs.
///
/// # Examples
///
/// ```
/// use swifi_campaign::session::RunSession;
/// use swifi_lang::compile;
/// use swifi_programs::{program, Family};
///
/// let target = program("JB.team11").unwrap();
/// let compiled = compile(target.source_correct).unwrap();
/// let inputs = target.family.test_case(3, 7);
/// let mut session = RunSession::new(&compiled, target.family);
/// for input in &inputs {
///     let (mode, fired) = session.run(input, None, 0);
///     assert!(!fired);
///     assert_eq!(mode, swifi_campaign::FailureMode::Correct);
/// }
/// assert_eq!(session.stats().runs, 3);
/// ```
pub struct RunSession {
    family: Family,
    machine: Machine,
    snapshot: MachineSnapshot,
    cached: Option<CachedInjector>,
    /// Oracle outputs memoized per input. A class campaign runs every
    /// fault against the same shared input set, so each input's expected
    /// output is recomputed once per session instead of once per run —
    /// on the short JamesB runs the oracle call is a measurable slice of
    /// the per-run wall clock. When a [`PrefixCache`] is attached it acts
    /// as a shared second level behind this per-session map.
    expected: HashMap<TestInput, Arc<Vec<u8>>>,
    /// Shared prefix-fork cache; `None` disables forking entirely (every
    /// run executes from the clean snapshot).
    prefix: Option<Arc<PrefixCache>>,
    stats: SessionStats,
    started: Instant,
    /// Retired-instruction count of the most recent run, as a full
    /// (unforked) run would report it — memoized answers report the
    /// golden run's count. The forked-vs-full equivalence oracle pins
    /// this.
    last_retired: u64,
    /// Per-run wall-clock budget; armed on the machine at the start of
    /// every run when set. Expired runs come back as
    /// [`RunOutcome::Hang`] and classify as [`FailureMode::Hang`].
    watchdog: Option<Duration>,
    /// Per-worker telemetry accumulator (trace events, metrics, guest
    /// profiling). `None` — the default — is the disabled contract:
    /// every instrumentation site below is behind one `Option` test per
    /// *run* (never per instruction), which is what keeps the disabled
    /// overhead inside a <1% budget.
    telemetry: Option<WorkerTelemetry>,
}

impl std::fmt::Debug for RunSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSession")
            .field("family", &self.family)
            .field("stats", &self.stats)
            .finish()
    }
}

impl RunSession {
    /// Boot a machine for `family`, load `program`, and snapshot the clean
    /// state. All subsequent runs warm-reboot from that snapshot.
    pub fn new(program: &Program, family: Family) -> RunSession {
        let mut machine = Machine::new(campaign_config(family));
        machine.load(&program.image);
        let snapshot = machine.snapshot();
        RunSession {
            family,
            machine,
            snapshot,
            cached: None,
            expected: HashMap::new(),
            prefix: None,
            stats: SessionStats::default(),
            started: Instant::now(),
            last_retired: 0,
            watchdog: None,
            telemetry: None,
        }
    }

    /// Attach a shared [`PrefixCache`]. The cache must have been created
    /// for the same compiled program and machine configuration as this
    /// session — snapshots restore across sessions only between
    /// identically-built machines. `None` disables prefix forking.
    pub fn set_prefix_cache(&mut self, cache: Option<Arc<PrefixCache>>) {
        self.prefix = cache;
    }

    /// Retired-instruction count of the most recent run, as a full run
    /// would report it (memoized/forked answers included).
    pub fn last_retired(&self) -> u64 {
        self.last_retired
    }

    /// Arm a per-run wall-clock watchdog: any subsequent run still
    /// executing after `budget` wall-clock time is cut off and classified
    /// as a hang — defense in depth above the instruction budget, for runs
    /// that are pathologically *slow* rather than long. `None` disarms.
    pub fn set_watchdog(&mut self, budget: Option<Duration>) {
        self.watchdog = budget;
    }

    /// Set the machine's watchdog deadline poll interval, in scheduler
    /// rounds (`--watchdog-poll`; see
    /// [`swifi_vm::machine::Machine::set_watchdog_poll`]).
    pub fn set_watchdog_poll(&mut self, rounds: u32) {
        self.machine.set_watchdog_poll(rounds);
    }

    /// Attach this worker's telemetry accumulator (`None` detaches it —
    /// the disabled, zero-overhead default).
    pub fn set_telemetry(&mut self, telemetry: Option<WorkerTelemetry>) {
        self.telemetry = telemetry;
    }

    /// Detach and return the telemetry accumulator, so drivers that
    /// build one short-lived session per work item (the source-mutation
    /// campaign) can carry a single accumulator across items instead of
    /// opening a trace lane per mutant.
    pub fn take_telemetry(&mut self) -> Option<WorkerTelemetry> {
        self.telemetry.take()
    }

    /// Run the machine under `inner`, wrapped in a sampling guest
    /// profiler when profiling is enabled. A free-standing fn over
    /// disjoint fields so callers holding a `self.cached` borrow can
    /// still pass the machine and telemetry.
    fn machine_run<I: Inspector>(
        machine: &mut Machine,
        telemetry: &mut Option<WorkerTelemetry>,
        inner: &mut I,
    ) -> RunOutcome {
        match telemetry {
            Some(t) if t.profile_enabled() => {
                let (hist, every) = t.profiler();
                machine.run(&mut ProfiledInspector::new(inner, hist, every))
            }
            _ => machine.run(inner),
        }
    }

    /// [`Machine::run_to_fetch`] with the same optional profiling wrap
    /// as [`RunSession::machine_run`] (prefix capture runs execute real
    /// guest instructions and should show up in profiles too).
    fn machine_run_to_fetch(
        machine: &mut Machine,
        telemetry: &mut Option<WorkerTelemetry>,
        pc: u32,
        occ: u64,
    ) -> (FetchStop, u64) {
        match telemetry {
            Some(t) if t.profile_enabled() => {
                let (hist, every) = t.profiler();
                let mut noop = Noop;
                machine.run_to_fetch(pc, occ, &mut ProfiledInspector::new(&mut noop, hist, every))
            }
            _ => machine.run_to_fetch(pc, occ, &mut Noop),
        }
    }

    /// The program family this session runs.
    pub fn family(&self) -> Family {
        self.family
    }

    /// Counters accumulated so far, with the machine's translation-cache
    /// counters overlaid (those are cumulative in the machine itself —
    /// warm reboots do not reset them, so the machine's totals *are* the
    /// session's totals).
    pub fn stats(&self) -> SessionStats {
        let mut s = self.stats;
        let d = self.machine.decode_cache_stats();
        s.decode_lines_built = d.lines_built;
        s.decode_invalidations = d.lines_invalidated;
        s.slow_fetches = d.slow_fetches;
        let b = self.machine.block_cache_stats();
        s.blocks_built = b.blocks_built;
        s.block_hits = b.block_hits;
        s.block_instrs = b.block_instrs;
        s.block_fallbacks = b.fallback_dispatches;
        s.block_invalidations = b.blocks_invalidated;
        s
    }

    /// Run this session's machine on the seed decode-every-fetch reference
    /// interpreter (`true`) or the predecoded-cache interpreter (`false`,
    /// the default). Used by the interpreter benchmarks and differential
    /// tests; campaign drivers leave it off.
    pub fn set_reference_interp(&mut self, reference: bool) {
        self.machine.set_reference_interp(reference);
    }

    /// Enable (`true`, the default) or disable the basic-block
    /// translation layer on this session's machine. Disabling pins the
    /// PR 2 predecoded-line path (`--no-block-cache`); like prefix
    /// forking this is purely an execution strategy — runs are
    /// bit-identical either way.
    pub fn set_block_cache(&mut self, enabled: bool) {
        self.machine.set_block_interp(enabled);
    }

    /// Seconds since the session was created.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Warm-reboot to the clean snapshot and mount `input`.
    fn begin(&mut self, input: &TestInput) {
        self.machine.restore(&self.snapshot);
        self.machine.set_input(input.to_tape());
        self.machine
            .set_deadline(self.watchdog.map(|d| Instant::now() + d));
        self.stats.runs += 1;
    }

    /// One fault-free run, answered from the shared golden memo when the
    /// prefix cache already holds this input's fault-free run.
    pub fn run_clean(&mut self, input: &TestInput) -> RunOutcome {
        if let Some(cache) = &self.prefix {
            if let Some(golden) = cache.golden(input) {
                self.stats.runs += 1;
                self.stats.prefix_golden_hits += 1;
                self.stats.prefix_instrs_skipped += golden.retired;
                self.last_retired = golden.retired;
                if let Some(t) = self.telemetry.as_mut() {
                    t.instant("golden_hit", vec![arg_u64("retired", golden.retired)]);
                }
                return golden.outcome;
            }
        }
        self.begin(input);
        let outcome = Self::machine_run(&mut self.machine, &mut self.telemetry, &mut Noop);
        let retired = self.machine.retired();
        self.stats.retired_instrs += retired;
        self.last_retired = retired;
        if let Some(cache) = &self.prefix {
            if self.golden_memoizable(&outcome) {
                cache.record_golden(
                    input,
                    GoldenRun {
                        outcome: outcome.clone(),
                        retired,
                    },
                );
            }
        }
        outcome
    }

    /// Whether a fault-free outcome is safe to memoize: with a wall-clock
    /// watchdog armed, a `Hang` may be the (nondeterministic) deadline
    /// rather than the (deterministic) instruction budget, and must not
    /// be replayed as gospel.
    fn golden_memoizable(&self, outcome: &RunOutcome) -> bool {
        self.watchdog.is_none() || !matches!(outcome, RunOutcome::Hang { .. })
    }

    /// One run observed by a caller-supplied inspector (profilers etc.).
    pub fn run_with<I: Inspector>(&mut self, input: &TestInput, inspector: &mut I) -> RunOutcome {
        self.begin(input);
        let outcome = self.machine.run(inspector);
        self.stats.retired_instrs += self.machine.retired();
        self.last_retired = self.machine.retired();
        outcome
    }

    /// One run with a full fault set under an explicit trigger mode.
    ///
    /// The compiled injector is cached: consecutive runs with the same
    /// fault set (the common campaign shape — one fault, many inputs)
    /// reuse it via [`Injector::reset`] instead of rebuilding the trigger
    /// routing tables.
    ///
    /// Returns the raw outcome plus whether any fault fired.
    ///
    /// # Panics
    ///
    /// Panics if the fault set does not fit `mode`'s breakpoint budget or
    /// addresses unmapped memory — campaign generators never produce
    /// either.
    pub fn run_injected(
        &mut self,
        input: &TestInput,
        specs: &[FaultSpec],
        mode: TriggerMode,
        seed: u64,
    ) -> (RunOutcome, bool) {
        if let Some((pc, occ)) = self.fork_plan(specs) {
            return self.run_forked(input, specs, mode, seed, pc, occ);
        }
        self.run_cold(input, specs, mode, seed)
    }

    /// Fallible variant of [`RunSession::run_injected`] for fault sets
    /// that did not come from the campaign generators (checkpoint replay,
    /// server requests): surfaces [`SessionError`] where the infallible
    /// path would panic. Always executes the plain fork-free path; a
    /// failed attempt leaves the session's counters untouched and the
    /// session fully usable.
    ///
    /// # Errors
    ///
    /// [`SessionError::InjectorBuild`] when the fault set cannot be
    /// compiled for `mode`; [`SessionError::Prepare`] when a memory fault
    /// addresses unmapped guest memory.
    pub fn try_run_injected(
        &mut self,
        input: &TestInput,
        specs: &[FaultSpec],
        mode: TriggerMode,
        seed: u64,
    ) -> Result<(RunOutcome, bool), SessionError> {
        self.try_ensure_injector(specs, mode, seed)?;
        self.machine.restore(&self.snapshot);
        self.machine.set_input(input.to_tape());
        self.machine
            .set_deadline(self.watchdog.map(|d| Instant::now() + d));
        let cached = self.cached.as_mut().expect("cache populated above");
        cached.injector.reset(seed);
        cached
            .injector
            .prepare(&mut self.machine)
            .map_err(|e| SessionError::Prepare(format!("{e:?}")))?;
        self.stats.runs += 1;
        let outcome =
            Self::machine_run(&mut self.machine, &mut self.telemetry, &mut cached.injector);
        let fired = cached.injector.any_fired();
        self.account_injected(self.machine.retired(), fired);
        Ok((outcome, fired))
    }

    /// The fork-free injected run: warm-reboot, arm the injector, and
    /// execute the whole run. Shared by [`RunSession::run_injected`]
    /// (no fork plan) and the shallow-trigger bypass in
    /// [`RunSession::run_forked`].
    fn run_cold(
        &mut self,
        input: &TestInput,
        specs: &[FaultSpec],
        mode: TriggerMode,
        seed: u64,
    ) -> (RunOutcome, bool) {
        self.begin(input);
        self.ensure_injector(specs, mode, seed);
        let cached = self.cached.as_mut().expect("cache populated above");
        cached.injector.reset(seed);
        cached
            .injector
            .prepare(&mut self.machine)
            .expect("fault addresses lie in mapped memory");
        let outcome =
            Self::machine_run(&mut self.machine, &mut self.telemetry, &mut cached.injector);
        let fired = cached.injector.any_fired();
        self.account_injected(self.machine.retired(), fired);
        (outcome, fired)
    }

    /// (Re)compile the cached injector if the fault set changed.
    fn ensure_injector(&mut self, specs: &[FaultSpec], mode: TriggerMode, seed: u64) {
        self.try_ensure_injector(specs, mode, seed)
            .expect("campaign fault sets fit their trigger mode");
    }

    /// Fallible twin of [`RunSession::ensure_injector`], for callers
    /// whose fault sets come from outside the campaign generators.
    fn try_ensure_injector(
        &mut self,
        specs: &[FaultSpec],
        mode: TriggerMode,
        seed: u64,
    ) -> Result<(), SessionError> {
        let reusable = self
            .cached
            .as_ref()
            .is_some_and(|c| c.mode == mode && c.specs.as_slice() == specs);
        if !reusable {
            let injector = Injector::new(specs.to_vec(), mode, seed)
                .map_err(|e| SessionError::InjectorBuild(format!("{e:?}")))?;
            self.cached = Some(CachedInjector {
                specs: specs.to_vec(),
                mode,
                injector,
            });
            self.stats.injector_rebuilds += 1;
            if let Some(t) = self.telemetry.as_mut() {
                t.instant("fault_arm", vec![arg_u64("faults", specs.len() as u64)]);
            }
        }
        Ok(())
    }

    /// Per-injected-run accounting shared by the cold and forked paths.
    /// `retired` is what a full run would report; the caller has already
    /// added the actually-executed share to `retired_instrs`.
    fn account_injected_memoized(&mut self, retired: u64, fired: bool) {
        self.last_retired = retired;
        self.stats.injected_runs += 1;
        if fired {
            self.stats.fired_runs += 1;
        } else {
            self.stats.dormant_runs += 1;
        }
    }

    /// Accounting for an injected run that executed on the machine.
    fn account_injected(&mut self, retired: u64, fired: bool) {
        self.stats.retired_instrs += retired;
        self.account_injected_memoized(retired, fired);
    }

    /// Whether this fault set resumes from a cached golden prefix: a
    /// prefix cache is attached, the machine is single-core (a fetch
    /// breakpoint cannot capture a multi-core scheduler position), the
    /// set is a single fault, and that fault has a
    /// [`FaultSpec::fork_point`]. Anything else takes the full path.
    fn fork_plan(&self, specs: &[FaultSpec]) -> Option<(u32, u64)> {
        self.prefix.as_ref()?;
        if self.machine.num_cores() != 1 {
            return None;
        }
        let [spec] = specs else { return None };
        spec.fork_point()
    }

    /// Whether the prefix the machine is currently paused at (inside a
    /// capture run, stopped exactly at the trigger) is deep enough to be
    /// worth snapshotting.
    ///
    /// Forking a run saves the prefix's instructions but pays a
    /// [`swifi_vm::Machine::restore_fork`] (dirty-page copies) on every
    /// hit — a shallow trigger saves almost nothing and still pays full
    /// price: JB.team11's triggers sit at ~4% depth, and forking them
    /// was measured at 0.80× the plain cached engine. The gate consults the golden-run memo for
    /// this input: capture only when the paused prefix covers at least
    /// `1/`[`FORK_SHALLOW_DENOM`] of the golden run. Without a golden
    /// memo the depth is unknowable and capture proceeds optimistically
    /// (the first faults of a campaign, before any clean or finished
    /// capture run has recorded one).
    fn fork_worthwhile(&self, cache: &PrefixCache, input: &TestInput) -> bool {
        match cache.golden(input) {
            Some(golden) => {
                let prefix = self.machine.retired();
                prefix.saturating_mul(FORK_SHALLOW_DENOM) >= golden.retired
            }
            None => true,
        }
    }

    /// The prefix-fork run path. Four cases, cheapest first:
    ///
    /// 1. the golden run is known to reach the trigger fewer than `occ`
    ///    times → the fault is **dormant**; replay the memoized golden
    ///    outcome without executing anything;
    /// 2. the key is memoized as shallow-trigger
    ///    ([`RunSession::fork_worthwhile`] said no on its capture run) →
    ///    run the plain fork-free path;
    /// 3. a snapshot for `(input, pc, occ)` is cached → restore it and
    ///    execute only the divergent suffix, with the injector's
    ///    occurrence counter pre-loaded to `occ - 1`
    ///    ([`Injector::resume_occurrences`]);
    /// 4. miss → run the *uninjected* prefix with a fetch breakpoint at
    ///    `(pc, occ)`. A hit snapshots the paused state for future runs
    ///    and continues in place as this injected run (the machine is
    ///    already exactly at the fork point). A finished run never
    ///    reached the trigger: it *is* the golden run (memoized, along
    ///    with the trigger's exact arrival count) and this fault is
    ///    dormant.
    fn run_forked(
        &mut self,
        input: &TestInput,
        specs: &[FaultSpec],
        mode: TriggerMode,
        seed: u64,
        pc: u32,
        occ: u64,
    ) -> (RunOutcome, bool) {
        let cache = self.prefix.clone().expect("fork plan requires a cache");

        if let Some(total) = cache.total_occurrences(input, pc) {
            if total < occ {
                let golden = cache
                    .golden(input)
                    .expect("trigger totals are recorded together with the golden run");
                self.stats.runs += 1;
                self.stats.prefix_dormant_short_circuits += 1;
                self.stats.prefix_instrs_skipped += golden.retired;
                self.account_injected_memoized(golden.retired, false);
                if let Some(t) = self.telemetry.as_mut() {
                    t.instant(
                        "dormant_short_circuit",
                        vec![arg_u64("pc", pc as u64), arg_u64("occ", occ)],
                    );
                }
                return (golden.outcome, false);
            }
        }

        if cache.is_shallow(input, pc, occ) {
            self.stats.prefix_shallow_skips += 1;
            if let Some(t) = self.telemetry.as_mut() {
                t.instant(
                    "fork_veto",
                    vec![arg_u64("pc", pc as u64), arg_u64("occ", occ)],
                );
            }
            return self.run_cold(input, specs, mode, seed);
        }

        if let Some(fork) = cache.snapshot(input, pc, occ) {
            self.machine.restore_fork(&self.snapshot, &fork);
            self.machine
                .set_deadline(self.watchdog.map(|d| Instant::now() + d));
            self.stats.runs += 1;
            self.stats.prefix_fork_hits += 1;
            self.stats.prefix_instrs_skipped += fork.retired();
            if let Some(t) = self.telemetry.as_mut() {
                t.instant(
                    "fork_hit",
                    vec![
                        arg_u64("pc", pc as u64),
                        arg_u64("occ", occ),
                        arg_u64("skipped", fork.retired()),
                    ],
                );
            }
            let (outcome, fired) = self.resume_injected(specs, mode, seed, occ);
            self.stats.retired_instrs += self.machine.retired() - fork.retired();
            self.account_injected_memoized(self.machine.retired(), fired);
            return (outcome, fired);
        }

        self.begin(input);
        let (stop, seen) =
            Self::machine_run_to_fetch(&mut self.machine, &mut self.telemetry, pc, occ);
        match stop {
            FetchStop::Finished(outcome) => {
                let retired = self.machine.retired();
                if self.golden_memoizable(&outcome) {
                    cache.record_golden(
                        input,
                        GoldenRun {
                            outcome: outcome.clone(),
                            retired,
                        },
                    );
                    cache.record_total(input, pc, seen);
                }
                self.account_injected(retired, false);
                if let Some(t) = self.telemetry.as_mut() {
                    t.instant(
                        "fork_miss",
                        vec![
                            arg_u64("pc", pc as u64),
                            arg_u64("occ", occ),
                            arg_str("result", "golden"),
                        ],
                    );
                }
                (outcome, false)
            }
            FetchStop::Hit => {
                let captured = if self.fork_worthwhile(&cache, input) {
                    if cache.insert_snapshot(input, pc, occ, Arc::new(self.machine.fork_snapshot()))
                    {
                        self.stats.prefix_snapshots_built += 1;
                    }
                    "captured"
                } else {
                    // Too shallow to ever pay for a snapshot restore:
                    // remember the verdict so later runs with this key
                    // skip the fork machinery (and its fetch-breakpoint
                    // capture attempt) outright.
                    cache.record_shallow(input, pc, occ);
                    "vetoed"
                };
                if let Some(t) = self.telemetry.as_mut() {
                    t.instant(
                        "fork_miss",
                        vec![
                            arg_u64("pc", pc as u64),
                            arg_u64("occ", occ),
                            arg_str("result", captured),
                        ],
                    );
                }
                let (outcome, fired) = self.resume_injected(specs, mode, seed, occ);
                self.account_injected(self.machine.retired(), fired);
                (outcome, fired)
            }
        }
    }

    /// Run the injected suffix from the machine's current state (paused
    /// exactly before the trigger's `occ`-th fetch), arming the injector
    /// as if it had observed the whole prefix.
    fn resume_injected(
        &mut self,
        specs: &[FaultSpec],
        mode: TriggerMode,
        seed: u64,
        occ: u64,
    ) -> (RunOutcome, bool) {
        self.ensure_injector(specs, mode, seed);
        let cached = self.cached.as_mut().expect("cache populated above");
        cached.injector.reset(seed);
        cached.injector.resume_occurrences(0, occ - 1);
        cached
            .injector
            .prepare(&mut self.machine)
            .expect("fault addresses lie in mapped memory");
        let outcome =
            Self::machine_run(&mut self.machine, &mut self.telemetry, &mut cached.injector);
        let fired = cached.injector.any_fired();
        (outcome, fired)
    }

    /// One classified campaign run: at most one fault, hardware triggers —
    /// the contract of [`crate::runner::execute`], warm.
    pub fn run(
        &mut self,
        input: &TestInput,
        fault: Option<&FaultSpec>,
        seed: u64,
    ) -> (FailureMode, bool) {
        let span_start = self.telemetry.as_ref().map(WorkerTelemetry::now_us);
        let blocks_before = span_start.map(|_| self.machine.block_cache_stats());
        let outcome = match fault {
            None => (self.run_clean(input), false),
            Some(spec) => self.run_injected(
                input,
                std::slice::from_ref(spec),
                TriggerMode::Hardware,
                seed,
            ),
        };
        let (outcome, fired) = outcome;
        let mode = classify_outcome(&outcome, self.expected_for(input));
        if span_start.is_some() {
            self.observe_run(
                span_start,
                blocks_before,
                &outcome,
                mode,
                fired,
                fault.is_some(),
            );
        }
        (mode, fired)
    }

    /// Post-run telemetry: block-cache deltas, the trigger/watchdog
    /// instants, the `run` span, and the per-run metric observations.
    /// Only called when telemetry is attached, so the disabled path pays
    /// exactly the one `Option` test in [`RunSession::run`].
    fn observe_run(
        &mut self,
        span_start: Option<u64>,
        blocks_before: Option<swifi_vm::blocks::BlockCacheStats>,
        outcome: &RunOutcome,
        mode: FailureMode,
        fired: bool,
        injected: bool,
    ) {
        let blocks = self.machine.block_cache_stats();
        let retired = self.last_retired;
        let watchdog = self.watchdog;
        let poll = self.machine.watchdog_poll();
        let Some(t) = self.telemetry.as_mut() else {
            return;
        };
        if let Some(before) = &blocks_before {
            let built = blocks.blocks_built - before.blocks_built;
            if built > 0 {
                t.instant("block_translate", vec![arg_u64("blocks", built)]);
            }
            let killed = blocks.blocks_invalidated - before.blocks_invalidated;
            if killed > 0 {
                t.instant("block_invalidate", vec![arg_u64("blocks", killed)]);
            }
        }
        if fired {
            t.instant("trigger_fire", vec![arg_u64("retired", retired)]);
        }
        if matches!(outcome, RunOutcome::Hang { .. }) {
            if let Some(budget) = watchdog {
                t.instant(
                    "watchdog_hang",
                    vec![
                        arg_u64("budget_ms", budget.as_millis() as u64),
                        arg_u64("poll", poll as u64),
                    ],
                );
            }
        }
        if let Some(start) = span_start {
            t.complete(
                "run",
                start,
                vec![
                    arg_str("mode", format!("{mode:?}")),
                    arg_str("fired", if fired { "yes" } else { "no" }),
                    arg_u64("retired", retired),
                ],
            );
            t.observe(metric_names::RUN_LATENCY_US, (t.now_us() - start) as f64);
        }
        t.counter_add("runs", 1);
        if injected {
            if fired {
                t.counter_add("fired_runs", 1);
            } else {
                t.counter_add("dormant_runs", 1);
            }
        }
        t.observe(metric_names::RETIRED_INSTRS_PER_RUN, retired as f64);
    }

    /// The oracle's expected output for `input`, computed once per
    /// session — or once per *campaign* when a shared [`PrefixCache`]
    /// backs the per-session map.
    fn expected_for(&mut self, input: &TestInput) -> &[u8] {
        if !self.expected.contains_key(input) {
            let expected = match &self.prefix {
                Some(cache) => cache.expected_output(input),
                None => Arc::new(input.expected_output()),
            };
            self.expected.insert(input.clone(), expected);
        }
        self.expected[input].as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swifi_core::locations::generate_error_set;
    use swifi_lang::compile;
    use swifi_programs::program;

    #[test]
    fn warm_session_matches_cold_execute() {
        // The equivalence contract at campaign granularity: a session run
        // over many (fault, input) pairs must agree with the cold-boot
        // `execute` for every pair, in any interleaving.
        let target = program("JB.team6").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let set = generate_error_set(&compiled.debug, 4, 4, 9);
        let faults: Vec<_> = set.assign_faults.iter().chain(&set.check_faults).collect();
        let inputs = target.family.test_case(2, 31);
        let mut session = RunSession::new(&compiled, target.family);
        for (fi, fault) in faults.iter().enumerate() {
            for (i, input) in inputs.iter().enumerate() {
                let seed = (fi as u64) << 8 | i as u64;
                let warm = session.run(input, Some(&fault.spec), seed);
                let cold = crate::runner::execute(
                    &compiled,
                    target.family,
                    input,
                    Some(&fault.spec),
                    seed,
                );
                assert_eq!(warm, cold, "fault {fi} input {i}");
            }
        }
        // Interleave clean runs too.
        for input in &inputs {
            let warm = session.run(input, None, 0);
            let cold = crate::runner::execute(&compiled, target.family, input, None, 0);
            assert_eq!(warm, cold);
        }
    }

    #[test]
    fn stats_account_for_every_run() {
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let set = generate_error_set(&compiled.debug, 2, 2, 1);
        let inputs = target.family.test_case(3, 5);
        let mut session = RunSession::new(&compiled, target.family);
        let mut expected_runs = 0u64;
        for fault in set.assign_faults.iter().chain(&set.check_faults) {
            for input in &inputs {
                session.run(input, Some(&fault.spec), 7);
                expected_runs += 1;
            }
        }
        for input in &inputs {
            session.run_clean(input);
            expected_runs += 1;
        }
        let s = session.stats();
        assert_eq!(s.runs, expected_runs);
        assert_eq!(s.injected_runs, expected_runs - inputs.len() as u64);
        assert_eq!(s.fired_runs + s.dormant_runs, s.injected_runs);
        assert!(session.elapsed_secs() >= 0.0);
    }

    #[test]
    fn injector_cache_hits_on_repeated_fault() {
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let set = generate_error_set(&compiled.debug, 2, 0, 1);
        let inputs = target.family.test_case(4, 5);
        let mut session = RunSession::new(&compiled, target.family);
        // Campaign shape: outer loop faults, inner loop inputs.
        for fault in &set.assign_faults {
            for input in &inputs {
                session.run(input, Some(&fault.spec), 3);
            }
        }
        let s = session.stats();
        // One rebuild per distinct fault spec, not per run.
        assert!(
            s.injector_rebuilds as usize <= set.assign_faults.len(),
            "rebuilds {} > distinct faults {}",
            s.injector_rebuilds,
            set.assign_faults.len()
        );
        assert_eq!(
            s.injected_runs,
            (set.assign_faults.len() * inputs.len()) as u64
        );
    }

    #[test]
    fn session_stats_expose_interpreter_counters() {
        // Blocks, the line cache and the reference interpreter retire
        // identical instruction counts on every §6 program; SOR is the
        // multi-core case.
        let mut jb11 = None;
        for name in [
            "C.team1",
            "C.team2",
            "C.team8",
            "C.team9",
            "C.team10",
            "JB.team6",
            "JB.team11",
            "SOR",
        ] {
            let target = program(name).unwrap();
            let compiled = compile(target.source_correct).unwrap();
            let inputs = target.family.test_case(5, 7);
            let clean = |configure: fn(&mut RunSession)| {
                let mut session = RunSession::new(&compiled, target.family);
                configure(&mut session);
                for input in &inputs {
                    session.run_clean(input);
                }
                session
            };
            let session = clean(|_| {});
            let lines = clean(|s| s.set_block_cache(false));
            let reference = clean(|s| s.set_reference_interp(true));
            let (s, l, r) = (session.stats(), lines.stats(), reference.stats());
            assert!(s.retired_instrs > 0, "{name}: runs retire instructions");
            assert_eq!(l.retired_instrs, s.retired_instrs, "{name}: line cache");
            assert_eq!(r.retired_instrs, s.retired_instrs, "{name}: reference");
            assert!(
                s.decode_lines_built > 0,
                "{name}: clean runs populate the cache"
            );
            assert_eq!(
                s.slow_fetches, 0,
                "{name}: clean runs never take the slow path"
            );
            assert!(s.block_instrs > 0, "{name}: blocks execute");
            assert_eq!(l.block_instrs, 0, "{name}: line cache runs no blocks");
            // The reference interpreter decodes nothing and takes the slow
            // path for every retired instruction.
            assert_eq!(r.decode_lines_built, 0, "{name}");
            assert_eq!(r.slow_fetches, r.retired_instrs, "{name}");
            if name == "JB.team11" {
                jb11 = Some((session, compiled, inputs));
            }
        }
        let (mut session, compiled, inputs) = jb11.unwrap();
        let s = session.stats();

        // Injected runs with memory faults invalidate the patched lines on
        // restore.
        let set = generate_error_set(&compiled.debug, 2, 2, 1);
        for fault in set.assign_faults.iter().chain(&set.check_faults) {
            for input in &inputs {
                session.run(input, Some(&fault.spec), 9);
            }
        }
        let s2 = session.stats();
        assert!(s2.retired_instrs > s.retired_instrs);

        // Throughput carries the counters through.
        let tp = Throughput::collect(
            std::slice::from_ref(&session),
            std::time::Duration::from_secs(1),
        );
        assert_eq!(tp.stats, s2);
        assert!(tp.instrs_per_sec() > 0.0);
    }

    #[test]
    fn watchdog_expiry_classifies_as_hang() {
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let input = &target.family.test_case(1, 5)[0];
        let mut session = RunSession::new(&compiled, target.family);
        // A zero budget fires deterministically before execution starts.
        session.set_watchdog(Some(Duration::ZERO));
        let (mode, fired) = session.run(input, None, 0);
        assert_eq!(mode, FailureMode::Hang);
        assert!(!fired);
        // Disarming restores normal behaviour on the same warm session.
        session.set_watchdog(None);
        let (mode, _) = session.run(input, None, 0);
        assert_eq!(mode, FailureMode::Correct);
        // A generous budget leaves short runs untouched.
        session.set_watchdog(Some(Duration::from_secs(3600)));
        let (mode, _) = session.run(input, None, 0);
        assert_eq!(mode, FailureMode::Correct);
    }

    #[test]
    fn forked_runs_match_full_runs_exactly() {
        // The prefix-fork oracle at session granularity: every (fault,
        // input) pair answered via the fork cache — capture-continue on
        // first sight, fork-hit on the second — must match a fork-free
        // session bit for bit: failure mode, fired flag, and the
        // retired-instruction count a full run would report.
        let target = program("JB.team6").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let set = generate_error_set(&compiled.debug, 4, 4, 13);
        let faults: Vec<_> = set.assign_faults.iter().chain(&set.check_faults).collect();
        let inputs = target.family.test_case(3, 17);

        let mut full = RunSession::new(&compiled, target.family);
        let mut forked = RunSession::new(&compiled, target.family);
        forked.set_prefix_cache(Some(crate::prefix::PrefixCache::shared()));

        for (fi, fault) in faults.iter().enumerate() {
            for (i, input) in inputs.iter().enumerate() {
                let seed = (fi as u64) << 8 | i as u64;
                let want = full.run(input, Some(&fault.spec), seed);
                let want_retired = full.last_retired();
                for pass in ["capture", "fork-hit"] {
                    let got = forked.run(input, Some(&fault.spec), seed);
                    assert_eq!(got, want, "fault {fi} input {i} ({pass})");
                    assert_eq!(
                        forked.last_retired(),
                        want_retired,
                        "fault {fi} input {i} ({pass}) retired count"
                    );
                }
            }
        }
        let s = forked.stats();
        assert!(s.prefix_fork_hits > 0, "second passes must fork: {s:?}");
        assert!(s.prefix_snapshots_built > 0, "{s:?}");
        assert_eq!(s.runs, 2 * full.stats().runs);
        assert_eq!(s.fired_runs + s.dormant_runs, s.injected_runs);
    }

    #[test]
    fn nth_firing_counts_occurrences_across_the_fork_boundary() {
        // A snapshot taken at occurrence k-1 must not double-count: the
        // resumed injector sees the pending fetch as occurrence k exactly
        // once. Sweep Nth(1..=6) over a trigger inside a loop so the
        // occurrence arithmetic is exercised on both sides of the
        // boundary, running each spec twice (capture, then fork).
        use swifi_core::fault::Firing;
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let set = generate_error_set(&compiled.debug, 4, 0, 21);
        let inputs = target.family.test_case(2, 23);

        let mut full = RunSession::new(&compiled, target.family);
        let mut forked = RunSession::new(&compiled, target.family);
        forked.set_prefix_cache(Some(crate::prefix::PrefixCache::shared()));

        for fault in &set.assign_faults {
            for k in 1..=6u64 {
                let mut spec = fault.spec;
                spec.when = Firing::Nth(k);
                for input in &inputs {
                    let want = full.run(input, Some(&spec), k);
                    for pass in ["capture", "fork-hit"] {
                        let got = forked.run(input, Some(&spec), k);
                        assert_eq!(got, want, "Nth({k}) {pass} at {:#x}", fault.site_addr);
                        assert_eq!(forked.last_retired(), full.last_retired(), "Nth({k})");
                    }
                }
            }
        }
    }

    #[test]
    fn dormant_faults_short_circuit_after_the_golden_run() {
        // A fault whose trigger occurs fewer than `occ` times in the
        // golden run: the first encounter finishes the (golden) run and
        // records the trigger total; every later encounter is classified
        // dormant without executing a single instruction.
        use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let input = &target.family.test_case(1, 29)[0];
        let site = generate_error_set(&compiled.debug, 1, 0, 29).assign_faults[0].site_addr;
        // Far beyond any plausible loop count for the short JamesB runs.
        let spec = FaultSpec {
            what: ErrorOp::Xor(1),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(site),
            when: Firing::Nth(1_000_000),
        };

        let mut full = RunSession::new(&compiled, target.family);
        let mut forked = RunSession::new(&compiled, target.family);
        forked.set_prefix_cache(Some(crate::prefix::PrefixCache::shared()));

        let want = full.run(input, Some(&spec), 1);
        assert!(!want.1, "the trigger cannot reach occurrence 10^6");
        let first = forked.run(input, Some(&spec), 1);
        assert_eq!(first, want);
        let before = forked.stats();
        assert_eq!(before.prefix_dormant_short_circuits, 0);

        let second = forked.run(input, Some(&spec), 2);
        assert_eq!(second, want);
        assert_eq!(forked.last_retired(), full.last_retired());
        let after = forked.stats();
        assert_eq!(after.prefix_dormant_short_circuits, 1);
        assert_eq!(
            after.retired_instrs, before.retired_instrs,
            "the short-circuited run must not execute"
        );
        assert_eq!(after.dormant_runs, 2);
        assert!(after.prefix_instrs_skipped > before.prefix_instrs_skipped);
    }

    #[test]
    fn shallow_triggers_skip_fork_capture_once_golden_is_known() {
        // The JB.team11 fix: once the golden memo proves a trigger sits
        // near the start of the run, the capture run declines to
        // snapshot and every later run with that fault takes the plain
        // path — still matching a fork-free session exactly.
        use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let input = &target.family.test_case(1, 37)[0];
        // The entry point: occurrence 1 has a zero-instruction prefix,
        // the shallowest trigger possible.
        let spec = FaultSpec {
            what: ErrorOp::Xor(1),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(compiled.image.entry),
            when: Firing::Nth(1),
        };

        let mut full = RunSession::new(&compiled, target.family);
        let mut forked = RunSession::new(&compiled, target.family);
        forked.set_prefix_cache(Some(crate::prefix::PrefixCache::shared()));

        // Record the golden run so the gate has a depth to compare to.
        assert_eq!(forked.run_clean(input), full.run_clean(input));

        let want = full.run(input, Some(&spec), 5);
        // Capture run: the gate vetoes the snapshot but the run itself
        // proceeds from the paused prefix as usual.
        assert_eq!(forked.run(input, Some(&spec), 5), want);
        let s = forked.stats();
        assert_eq!(s.prefix_snapshots_built, 0, "shallow prefix not captured");
        assert_eq!(s.prefix_shallow_skips, 0, "first run still captures");

        // Later runs consult the memo and never touch the fork machinery.
        assert_eq!(forked.run(input, Some(&spec), 5), want);
        assert_eq!(forked.last_retired(), full.last_retired());
        let s = forked.stats();
        assert_eq!(s.prefix_shallow_skips, 1);
        assert_eq!(s.prefix_snapshots_built, 0);
        assert_eq!(s.prefix_fork_hits, 0);
    }

    #[test]
    fn clean_runs_hit_the_golden_memo() {
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let inputs = target.family.test_case(2, 31);
        let mut a = RunSession::new(&compiled, target.family);
        let mut b = RunSession::new(&compiled, target.family);
        let cache = crate::prefix::PrefixCache::shared();
        a.set_prefix_cache(Some(cache.clone()));
        b.set_prefix_cache(Some(cache));
        for input in &inputs {
            let first = a.run_clean(input);
            let full_retired = a.last_retired();
            // Session b shares the cache: its "run" is answered without
            // executing, but reports the same outcome and retired count.
            let memo = b.run_clean(input);
            assert_eq!(memo, first);
            assert_eq!(b.last_retired(), full_retired);
        }
        let sb = b.stats();
        assert_eq!(sb.prefix_golden_hits, inputs.len() as u64);
        assert_eq!(sb.retired_instrs, 0, "memoized runs execute nothing");
        assert_eq!(sb.runs, inputs.len() as u64, "memoized runs still count");
    }

    #[test]
    fn try_run_injected_surfaces_structured_errors() {
        use swifi_core::fault::{ErrorOp, FaultSpec, Firing, Target, Trigger};
        let target = program("JB.team11").unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let input = &target.family.test_case(1, 5)[0];
        let mut session = RunSession::new(&compiled, target.family);

        // A memory-resident fault addressing unmapped guest memory fails
        // at prepare time with a structured error, not a panic.
        let unmapped = FaultSpec {
            what: ErrorOp::Replace(0),
            target: Target::Memory(0xFFFF_0000),
            trigger: Trigger::OpcodeFetch(0x100),
            when: Firing::First,
        };
        let err = session
            .try_run_injected(
                input,
                std::slice::from_ref(&unmapped),
                TriggerMode::Hardware,
                1,
            )
            .unwrap_err();
        assert!(matches!(err, SessionError::Prepare(_)), "{err}");

        // A fault set exceeding the hardware breakpoint budget fails at
        // build time.
        let many: Vec<FaultSpec> = (0..4)
            .map(|i| FaultSpec {
                what: ErrorOp::Xor(1),
                target: Target::InstrBus,
                trigger: Trigger::OpcodeFetch(0x100 + 4 * i),
                when: Firing::First,
            })
            .collect();
        let err = session
            .try_run_injected(input, &many, TriggerMode::Hardware, 1)
            .unwrap_err();
        assert!(matches!(err, SessionError::InjectorBuild(_)), "{err}");
        assert!(err.to_string().contains("injector build failed"));

        // Failed attempts leave no half-counted runs behind and the
        // session stays fully usable.
        let s = session.stats();
        assert_eq!(s.runs, 0, "{s:?}");
        assert_eq!(s.injected_runs, 0, "{s:?}");
        let (mode, fired) = session.run(input, None, 0);
        assert_eq!(mode, FailureMode::Correct);
        assert!(!fired);

        // The happy path matches the infallible entry point.
        let spec = FaultSpec {
            what: ErrorOp::Xor(1),
            target: Target::InstrBus,
            trigger: Trigger::OpcodeFetch(compiled.image.entry),
            when: Firing::First,
        };
        let ok = session
            .try_run_injected(input, std::slice::from_ref(&spec), TriggerMode::Hardware, 9)
            .unwrap();
        let mut twin = RunSession::new(&compiled, target.family);
        let want = twin.run_injected(input, std::slice::from_ref(&spec), TriggerMode::Hardware, 9);
        assert_eq!(ok, want);
    }

    #[test]
    fn throughput_equality_ignores_wall_clock() {
        let stats = SessionStats {
            runs: 10,
            fired_runs: 6,
            dormant_runs: 4,
            ..SessionStats::default()
        };
        let a = Throughput {
            stats,
            elapsed_secs: 1.0,
        };
        let b = Throughput {
            stats: SessionStats {
                retired_instrs: 1234,
                slow_fetches: 55,
                ..stats
            },
            elapsed_secs: 9.0,
        };
        assert_eq!(a, b, "wall clock and interpreter counters do not count");
        // A resumed campaign re-runs only part of the schedule: its
        // throughput still compares equal, the campaign totals decide.
        let resumed = Throughput {
            stats: SessionStats { runs: 3, ..stats },
            ..a
        };
        assert_eq!(a, resumed);
        assert!((a.runs_per_sec() - 10.0).abs() < 1e-12);
        assert_eq!(Throughput::default().runs_per_sec(), 0.0);
    }
}
