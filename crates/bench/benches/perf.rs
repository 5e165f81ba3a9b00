//! Criterion performance benches for the substrate: VM interpreter
//! throughput, compiler speed, injector hook overhead, end-to-end
//! campaign run rate, and the warm-reboot vs cold-boot comparison that
//! backs `BENCH_warm_reboot.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use swifi_campaign::section6::chosen_locations;
use swifi_campaign::RunSession;
use swifi_core::fault::FaultSpec;
use swifi_core::injector::{Injector, TriggerMode};
use swifi_lang::compile;
use swifi_programs::{program, Family, TestInput};
use swifi_vm::asm::assemble;
use swifi_vm::machine::{Machine, MachineConfig};
use swifi_vm::Noop;

/// The vendored criterion shim has no CLI bench filter, so CI jobs that
/// only want one headline bench (e.g. the non-gating block-translation
/// perf job) select it with `SWIFI_BENCH_ONLY=block_translation`.
/// Comma-separated substrings; unset runs everything.
fn bench_enabled(name: &str) -> bool {
    match std::env::var("SWIFI_BENCH_ONLY") {
        Err(_) => true,
        Ok(v) => v.split(',').any(|pat| {
            let pat = pat.trim();
            !pat.is_empty() && name.contains(pat)
        }),
    }
}

/// A tight 1M-instruction count-down loop.
fn countdown_image() -> swifi_vm::Image {
    assemble(
        "li r5, 250000
         loop:
         addi r5, r5, -1
         cmpi cr0, r5, 0
         bc cr0.gt, 1, loop
         li r3, 0
         halt",
    )
    .expect("assembles")
}

fn bench_vm_throughput(c: &mut Criterion) {
    if !bench_enabled("vm_throughput") {
        return;
    }
    let image = countdown_image();
    let mut group = c.benchmark_group("vm");
    // ~1M retired instructions per iteration.
    group.throughput(Throughput::Elements(1_000_000));
    group.bench_function("interpreter_1M_instr", |b| {
        b.iter(|| {
            let mut m = Machine::new(MachineConfig::default());
            m.load(&image);
            let out = m.run(&mut Noop);
            assert!(out.is_normal());
            m.retired()
        })
    });
    group.finish();
}

fn bench_injector_overhead(c: &mut Criterion) {
    if !bench_enabled("injector_overhead") {
        return;
    }
    let image = countdown_image();
    // A dormant fault at an unexecuted address: measures pure hook cost.
    let fault = FaultSpec::replace_instr(0x1000, 0);
    let mut group = c.benchmark_group("injector");
    group.throughput(Throughput::Elements(1_000_000));
    group.bench_function("armed_but_dormant_1M_instr", |b| {
        b.iter(|| {
            let mut m = Machine::new(MachineConfig::default());
            m.load(&image);
            let mut inj = Injector::new(vec![fault], TriggerMode::Hardware, 0).unwrap();
            inj.prepare(&mut m).unwrap();
            let out = m.run(&mut inj);
            assert!(out.is_normal());
        })
    });
    group.finish();
}

fn bench_compiler(c: &mut Criterion) {
    if !bench_enabled("compiler") {
        return;
    }
    let src = program("C.team9").unwrap().source_correct;
    let mut group = c.benchmark_group("compiler");
    group.throughput(Throughput::Bytes(src.len() as u64));
    group.bench_function("compile_cteam9", |b| {
        b.iter(|| compile(src).expect("compiles"))
    });
    group.finish();
}

fn bench_campaign_run(c: &mut Criterion) {
    if !bench_enabled("campaign_run") {
        return;
    }
    let p = program("JB.team11").unwrap();
    let compiled = compile(p.source_correct).unwrap();
    let input = TestInput::JamesB {
        seed: 7,
        line: b"benchmark line".to_vec(),
    };
    let set = swifi_core::locations::generate_error_set(&compiled.debug, 3, 3, 1);
    let fault = set.assign_faults[0].spec;
    c.bench_function("campaign/one_injected_run_jamesb", |b| {
        b.iter(|| swifi_campaign::execute(&compiled, Family::JamesB, &input, Some(&fault), 1))
    });
    let cam = program("C.team8").unwrap();
    let cam_compiled = compile(cam.source_correct).unwrap();
    let cam_input = TestInput::Camelot {
        pieces: vec![(0, 0), (3, 4), (6, 2)],
    };
    c.bench_function("campaign/one_clean_run_camelot", |b| {
        b.iter(|| swifi_campaign::execute(&cam_compiled, Family::Camelot, &cam_input, None, 1))
    });
}

/// One JB-family program's cold-vs-warm measurement.
struct RebootMeasurement {
    program: &'static str,
    runs: u64,
    cold_runs_per_sec: f64,
    warm_runs_per_sec: f64,
    /// Per-run reboot overhead, cold lifecycle: `Machine::new` + `load` +
    /// `Injector::new` + `prepare` (everything except guest execution).
    cold_reboot_ns: f64,
    /// Per-run reboot overhead, warm lifecycle: `restore` + `reset` +
    /// `prepare`.
    warm_reboot_ns: f64,
}

impl RebootMeasurement {
    fn speedup(&self) -> f64 {
        self.warm_runs_per_sec / self.cold_runs_per_sec
    }

    fn reboot_speedup(&self) -> f64 {
        self.cold_reboot_ns / self.warm_reboot_ns
    }
}

/// Replay one program's class-campaign schedule (every generated fault ×
/// every shared input, exactly the §6 loop) through a lifecycle `run`
/// closure, returning runs/second.
fn time_schedule(
    faults: &[swifi_core::locations::GeneratedFault],
    inputs: &[TestInput],
    seed: u64,
    mut run: impl FnMut(&TestInput, &FaultSpec, u64),
) -> f64 {
    let t0 = std::time::Instant::now();
    let mut runs = 0u64;
    for fault in faults {
        for (i, input) in inputs.iter().enumerate() {
            let run_seed = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(fault.site_addr as u64)
                .wrapping_add(i as u64);
            run(input, &fault.spec, run_seed);
            runs += 1;
        }
    }
    runs as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Time just the reboot portion of both lifecycles (no guest execution):
/// cold = `Machine::new` + `load` + `Injector::new` + `prepare` per run;
/// warm = `restore` + `reset` + `prepare` per run.
fn measure_reboot_overhead(
    compiled: &swifi_lang::Program,
    family: Family,
    spec: FaultSpec,
) -> (f64, f64) {
    use swifi_campaign::runner::campaign_config;
    const N: u32 = 2000;
    let t0 = std::time::Instant::now();
    for i in 0..N {
        let mut m = Machine::new(campaign_config(family));
        m.load(&compiled.image);
        let mut inj = Injector::new(vec![spec], TriggerMode::Hardware, i as u64).unwrap();
        inj.set_reference_dispatch(true);
        inj.prepare(&mut m).unwrap();
        criterion::black_box(&m);
    }
    let cold_ns = t0.elapsed().as_nanos() as f64 / N as f64;

    let mut m = Machine::new(campaign_config(family));
    m.load(&compiled.image);
    let snap = m.snapshot();
    let mut inj = Injector::new(vec![spec], TriggerMode::Hardware, 0).unwrap();
    let t0 = std::time::Instant::now();
    for i in 0..N {
        m.restore(&snap);
        inj.reset(i as u64);
        inj.prepare(&mut m).unwrap();
        criterion::black_box(&m);
    }
    let warm_ns = t0.elapsed().as_nanos() as f64 / N as f64;
    (cold_ns, warm_ns)
}

/// Measure the §6 class campaign for one JB program under both machine
/// lifecycles: cold boot (fresh machine + fresh injector per run, the
/// pre-`RunSession` engine) and warm reboot (one session, snapshot
/// restore between runs).
fn measure_reboot(name: &'static str, seed: u64) -> RebootMeasurement {
    let p = program(name).unwrap();
    let compiled = compile(p.source_correct).unwrap();
    let (n_assign, n_check) = chosen_locations(name);
    let set = swifi_core::locations::generate_error_set(&compiled.debug, n_assign, n_check, seed);
    let faults: Vec<_> = set
        .assign_faults
        .iter()
        .chain(set.check_faults.iter())
        .cloned()
        .collect();
    let inputs = p.family.test_case(6, seed ^ 0x5EED);

    // Warm-up pass so page-cache / allocator effects hit both sides evenly.
    let mut session = RunSession::new(&compiled, p.family);
    let _ = time_schedule(&faults, &inputs, seed, |input, spec, s| {
        session.run(input, Some(spec), s);
    });

    let cold_runs_per_sec = time_schedule(&faults, &inputs, seed, |input, spec, s| {
        swifi_campaign::execute_cold(&compiled, p.family, input, Some(spec), s);
    });
    let mut session = RunSession::new(&compiled, p.family);
    let warm_runs_per_sec = time_schedule(&faults, &inputs, seed, |input, spec, s| {
        session.run(input, Some(spec), s);
    });
    let (cold_reboot_ns, warm_reboot_ns) =
        measure_reboot_overhead(&compiled, p.family, faults[0].spec);
    RebootMeasurement {
        program: name,
        runs: faults.len() as u64 * inputs.len() as u64,
        cold_runs_per_sec,
        warm_runs_per_sec,
        cold_reboot_ns,
        warm_reboot_ns,
    }
}

/// Warm-reboot headline bench: §6 class campaigns for the JB family under
/// both lifecycles, recorded to `BENCH_warm_reboot.json` at the repo root.
fn bench_warm_reboot(_c: &mut Criterion) {
    if !bench_enabled("warm_reboot") {
        return;
    }
    let measurements: Vec<RebootMeasurement> = ["JB.team6", "JB.team11"]
        .iter()
        .map(|name| measure_reboot(name, 0xB007))
        .collect();
    let mut rows = String::new();
    for m in &measurements {
        println!(
            "{:<42} cold: {:>8.1} runs/s   warm: {:>8.1} runs/s   campaign speedup: {:.1}x",
            format!("reboot/class_campaign_{}", m.program),
            m.cold_runs_per_sec,
            m.warm_runs_per_sec,
            m.speedup()
        );
        println!(
            "{:<42} cold: {:>8.2} us/run  warm: {:>8.2} us/run  reboot speedup: {:.0}x",
            format!("reboot/lifecycle_overhead_{}", m.program),
            m.cold_reboot_ns / 1000.0,
            m.warm_reboot_ns / 1000.0,
            m.reboot_speedup()
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"program\": \"{}\", \"runs\": {}, \"cold_runs_per_sec\": {:.1}, \
             \"warm_runs_per_sec\": {:.1}, \"campaign_speedup\": {:.2}, \
             \"cold_reboot_us_per_run\": {:.3}, \"warm_reboot_us_per_run\": {:.3}, \
             \"reboot_overhead_speedup\": {:.1}}}",
            m.program,
            m.runs,
            m.cold_runs_per_sec,
            m.warm_runs_per_sec,
            m.speedup(),
            m.cold_reboot_ns / 1000.0,
            m.warm_reboot_ns / 1000.0,
            m.reboot_speedup()
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"warm_reboot\",\n  \"schedule\": \"section6 class campaign, all \
         generated faults x 6 shared inputs\",\n  \"cold\": \"seed lifecycle: fresh Machine + \
         load + fresh Injector (reference dispatch) per run\",\n  \"warm\": \"one RunSession: \
         snapshot restore + injector reset per run, hot-path dispatch\",\n  \
         \"reboot_overhead\": \"per-run lifecycle cost excluding guest execution; the campaign \
         speedup is Amdahl-capped by guest execution time\",\n  \"programs\": [\n{rows}\n  ]\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_warm_reboot.json");
    std::fs::write(&path, json).expect("write BENCH_warm_reboot.json");
    println!("wrote {}", path.display());
}

/// One program's cached-vs-reference interpreter measurement on the §6
/// class-campaign schedule. Both sides use the warm-reboot lifecycle (the
/// PR-1 engine); the only variable is the predecoded translation cache.
struct CacheMeasurement {
    program: &'static str,
    runs: u64,
    reference_instrs_per_sec: f64,
    cached_instrs_per_sec: f64,
    reference_runs_per_sec: f64,
    cached_runs_per_sec: f64,
    lines_built: u64,
    invalidations: u64,
    slow_fetches: u64,
    retired_instrs: u64,
}

/// The PR-1 warm path's throughput on this same schedule, as committed in
/// PR 1's BENCH_warm_reboot.json (`git show <pr1>:BENCH_warm_reboot.json`,
/// `warm_runs_per_sec`). Kept here so the report can state the speedup
/// against the actual PR-1 engine, not just against this tree's reference
/// interpreter (which also gained from this PR's hook-dispatch work and
/// therefore understates the PR-over-PR improvement). Instructions/s and
/// runs/s ratios coincide: the schedule retires identical instruction
/// counts whichever engine replays it.
fn pr1_warm_runs_per_sec(program: &str) -> Option<f64> {
    match program {
        "JB.team6" => Some(72_518.4),
        "JB.team11" => Some(5_258.9),
        _ => None,
    }
}

impl CacheMeasurement {
    fn speedup(&self) -> f64 {
        self.cached_instrs_per_sec / self.reference_instrs_per_sec
    }

    fn speedup_vs_pr1(&self) -> Option<f64> {
        pr1_warm_runs_per_sec(self.program).map(|pr1| self.cached_runs_per_sec / pr1)
    }

    fn slow_fetch_pct(&self) -> f64 {
        if self.retired_instrs == 0 {
            return 0.0;
        }
        self.slow_fetches as f64 * 100.0 / self.retired_instrs as f64
    }
}

/// One JB class campaign takes only a few milliseconds of wall clock —
/// far too noisy a window to gate a speedup claim on — so each side is
/// measured as [`INTERLEAVE_ROUNDS`] chunks of at least [`CHUNK_SECS`]
/// each, *alternating* between the reference and cached sessions, and the
/// fastest chunk wins. Alternation makes slow host drift land on both
/// sides roughly equally; best-of is the right estimator on a shared box
/// because external contention only ever slows a chunk down, so the
/// fastest chunk is the least biased sample of true throughput.
const CHUNK_SECS: f64 = 0.1;
/// Alternating measurement rounds per interpreter side.
const INTERLEAVE_ROUNDS: usize = 8;

/// Best-chunk tracker for one side's measurement rounds.
#[derive(Default)]
struct Accum {
    best_runs_per_sec: f64,
    best_instrs_per_sec: f64,
    retired: u64,
}

/// Replay the schedule through `session` until at least [`CHUNK_SECS`] of
/// wall clock has elapsed; keep the chunk's rates if they are the best
/// seen so far.
fn time_schedule_chunk(
    session: &mut RunSession,
    faults: &[swifi_core::locations::GeneratedFault],
    inputs: &[TestInput],
    seed: u64,
    acc: &mut Accum,
) {
    let before = session.stats().retired_instrs;
    let mut runs = 0u64;
    let t0 = std::time::Instant::now();
    loop {
        time_schedule(faults, inputs, seed, |input, spec, s| {
            session.run(input, Some(spec), s);
        });
        runs += faults.len() as u64 * inputs.len() as u64;
        if t0.elapsed().as_secs_f64() >= CHUNK_SECS {
            break;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let retired = session.stats().retired_instrs - before;
    acc.retired += retired;
    if retired as f64 / secs > acc.best_instrs_per_sec {
        acc.best_instrs_per_sec = retired as f64 / secs;
        acc.best_runs_per_sec = runs as f64 / secs;
    }
}

/// Measure the §6 class campaign for one JB program under the cached and
/// reference interpreters, both on warm-reboot sessions.
fn measure_translation_cache(name: &'static str, seed: u64) -> CacheMeasurement {
    let p = program(name).unwrap();
    let compiled = compile(p.source_correct).unwrap();
    let (n_assign, n_check) = chosen_locations(name);
    let set = swifi_core::locations::generate_error_set(&compiled.debug, n_assign, n_check, seed);
    let faults: Vec<_> = set
        .assign_faults
        .iter()
        .chain(set.check_faults.iter())
        .cloned()
        .collect();
    let inputs = p.family.test_case(6, seed ^ 0x5EED);

    let mut reference = RunSession::new(&compiled, p.family);
    reference.set_reference_interp(true);
    let mut cached = RunSession::new(&compiled, p.family);
    // This bench measures the PR-2 line cache in isolation; the block
    // layer has its own bench (bench_block_translation).
    cached.set_block_cache(false);
    // Warm-up pass on each side so allocator / page-cache effects and the
    // first lazy decode of every line are off the measured clock.
    let _ = time_schedule(&faults, &inputs, seed, |input, spec, s| {
        reference.run(input, Some(spec), s);
    });
    let _ = time_schedule(&faults, &inputs, seed, |input, spec, s| {
        cached.run(input, Some(spec), s);
    });

    let slow_before = cached.stats().slow_fetches;
    let mut ref_acc = Accum::default();
    let mut cached_acc = Accum::default();
    for _ in 0..INTERLEAVE_ROUNDS {
        time_schedule_chunk(&mut reference, &faults, &inputs, seed, &mut ref_acc);
        time_schedule_chunk(&mut cached, &faults, &inputs, seed, &mut cached_acc);
    }
    let stats = cached.stats();
    CacheMeasurement {
        program: name,
        runs: faults.len() as u64 * inputs.len() as u64,
        reference_instrs_per_sec: ref_acc.best_instrs_per_sec,
        cached_instrs_per_sec: cached_acc.best_instrs_per_sec,
        reference_runs_per_sec: ref_acc.best_runs_per_sec,
        cached_runs_per_sec: cached_acc.best_runs_per_sec,
        lines_built: stats.decode_lines_built,
        invalidations: stats.decode_invalidations,
        slow_fetches: stats.slow_fetches - slow_before,
        retired_instrs: cached_acc.retired,
    }
}

/// Translation-cache headline bench: §6 class campaigns for the JB family
/// under the cached and decode-every-fetch interpreters (both warm-reboot),
/// recorded to `BENCH_translation_cache.json` at the repo root.
fn bench_translation_cache(_c: &mut Criterion) {
    if !bench_enabled("translation_cache") {
        return;
    }
    let measurements: Vec<CacheMeasurement> = ["JB.team6", "JB.team11"]
        .iter()
        .map(|name| measure_translation_cache(name, 0xB007))
        .collect();
    let mut rows = String::new();
    for m in &measurements {
        println!(
            "{:<42} ref: {:>6.1} Minstr/s  cached: {:>6.1} Minstr/s  speedup: {:.2}x ({}x vs PR-1 warm)",
            format!("icache/class_campaign_{}", m.program),
            m.reference_instrs_per_sec / 1e6,
            m.cached_instrs_per_sec / 1e6,
            m.speedup(),
            m.speedup_vs_pr1()
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "?".into())
        );
        println!(
            "{:<42} {} lines built, {} invalidated, {} slow fetches ({:.3}% of {} instrs)",
            format!("icache/cache_behaviour_{}", m.program),
            m.lines_built,
            m.invalidations,
            m.slow_fetches,
            m.slow_fetch_pct(),
            m.retired_instrs
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"program\": \"{}\", \"runs\": {}, \
             \"reference_instrs_per_sec\": {:.0}, \"cached_instrs_per_sec\": {:.0}, \
             \"reference_runs_per_sec\": {:.1}, \"cached_runs_per_sec\": {:.1}, \
             \"instr_throughput_speedup\": {:.2}, \
             \"pr1_warm_runs_per_sec\": {:.1}, \"speedup_vs_pr1_warm\": {:.2}, \
             \"decode_lines_built\": {}, \
             \"decode_invalidations\": {}, \"slow_fetches\": {}, \
             \"slow_fetch_pct\": {:.4}}}",
            m.program,
            m.runs,
            m.reference_instrs_per_sec,
            m.cached_instrs_per_sec,
            m.reference_runs_per_sec,
            m.cached_runs_per_sec,
            m.speedup(),
            pr1_warm_runs_per_sec(m.program).unwrap_or(f64::NAN),
            m.speedup_vs_pr1().unwrap_or(f64::NAN),
            m.lines_built,
            m.invalidations,
            m.slow_fetches,
            m.slow_fetch_pct()
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"translation_cache\",\n  \"schedule\": \"section6 class campaign, all \
         generated faults x 6 shared inputs\",\n  \"reference\": \"warm RunSession, seed \
         decode-every-fetch interpreter\",\n  \"cached\": \"warm RunSession, \
         predecoded line cache; armed trigger PCs pinned to the slow path, writes into code \
         invalidate covering lines\",\n  \"pr1_baseline\": \"warm_runs_per_sec from PR 1's \
         committed BENCH_warm_reboot.json, same schedule; runs/s and instrs/s ratios coincide \
         because both engines retire identical instruction counts\",\n  \"methodology\": \
         \"interleaved best-of-{INTERLEAVE_ROUNDS} chunks of >={CHUNK_SECS}s per side; best-of \
         because external contention only slows a chunk, never speeds it\",\n  \
         \"programs\": [\n{rows}\n  ]\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_translation_cache.json");
    std::fs::write(&path, json).expect("write BENCH_translation_cache.json");
    println!("wrote {}", path.display());
}

/// One program's fork-on vs fork-off measurement on the §6 class-campaign
/// schedule. Both sides are warm-reboot sessions with the predecoded
/// translation cache (the PR-2 engine); the only variable is the
/// prefix-fork cache.
struct ForkMeasurement {
    program: &'static str,
    runs: u64,
    full_runs_per_sec: f64,
    forked_runs_per_sec: f64,
    snapshots_built: u64,
    fork_hits: u64,
    dormant_short_circuits: u64,
    instrs_skipped: u64,
    instrs_executed: u64,
}

/// The PR-2 cached warm path's throughput on this same schedule, as
/// committed in PR 2's BENCH_translation_cache.json
/// (`cached_runs_per_sec`). Only the JB schedules were measured then;
/// for the Camelot schedule the fork-off session — which *is* the PR-2
/// engine, measured interleaved on the same box — is the baseline.
fn pr2_cached_runs_per_sec(program: &str) -> Option<f64> {
    match program {
        "JB.team6" => Some(156_069.4),
        "JB.team11" => Some(11_382.6),
        _ => None,
    }
}

impl ForkMeasurement {
    fn speedup(&self) -> f64 {
        self.forked_runs_per_sec / self.full_runs_per_sec
    }

    fn speedup_vs_pr2(&self) -> Option<f64> {
        pr2_cached_runs_per_sec(self.program).map(|pr2| self.forked_runs_per_sec / pr2)
    }

    fn skipped_pct(&self) -> f64 {
        let total = self.instrs_skipped + self.instrs_executed;
        if total == 0 {
            return 0.0;
        }
        self.instrs_skipped as f64 * 100.0 / total as f64
    }
}

/// Replay the schedule through `session` until at least [`CHUNK_SECS`] of
/// wall clock has elapsed, keeping the best runs/s chunk. Runs/s — not
/// instrs/s — is the honest metric here: forked runs retire fewer
/// instructions *by design*, so instruction throughput would understate
/// (full side) or overstate nothing for the fork side.
fn time_schedule_chunk_runs(
    session: &mut RunSession,
    faults: &[swifi_core::locations::GeneratedFault],
    inputs: &[TestInput],
    seed: u64,
    best_runs_per_sec: &mut f64,
) {
    let mut runs = 0u64;
    let t0 = std::time::Instant::now();
    loop {
        time_schedule(faults, inputs, seed, |input, spec, s| {
            session.run(input, Some(spec), s);
        });
        runs += faults.len() as u64 * inputs.len() as u64;
        if t0.elapsed().as_secs_f64() >= CHUNK_SECS {
            break;
        }
    }
    let rate = runs as f64 / t0.elapsed().as_secs_f64();
    if rate > *best_runs_per_sec {
        *best_runs_per_sec = rate;
    }
}

/// Measure the §6 class campaign for one program with the prefix-fork
/// cache on and off, both on warm cached-interpreter sessions.
/// `n_inputs` is 6 for the fast JB schedules; the ~100ms-per-run Camelot
/// schedule uses 2 so a measurement chunk stays a few seconds.
fn measure_prefix_fork(name: &'static str, n_inputs: usize, seed: u64) -> ForkMeasurement {
    let p = program(name).unwrap();
    let compiled = compile(p.source_correct).unwrap();
    let (n_assign, n_check) = chosen_locations(name);
    let set = swifi_core::locations::generate_error_set(&compiled.debug, n_assign, n_check, seed);
    let faults: Vec<_> = set
        .assign_faults
        .iter()
        .chain(set.check_faults.iter())
        .cloned()
        .collect();
    let inputs = p.family.test_case(n_inputs, seed ^ 0x5EED);

    let mut full = RunSession::new(&compiled, p.family);
    let mut forked = RunSession::new(&compiled, p.family);
    forked.set_prefix_cache(Some(swifi_campaign::PrefixCache::shared()));
    // Both sides on the PR-2 line-cache engine: this bench isolates the
    // fork cache; the block layer has its own bench.
    full.set_block_cache(false);
    forked.set_block_cache(false);
    // Warm-up pass on each side. On the fork side this is the
    // capture-continue pass: it builds every (input, trigger-pc)
    // snapshot, so the measured chunks below are pure fork hits and
    // dormant short-circuits — the steady state of a long campaign.
    let _ = time_schedule(&faults, &inputs, seed, |input, spec, s| {
        full.run(input, Some(spec), s);
    });
    let _ = time_schedule(&faults, &inputs, seed, |input, spec, s| {
        forked.run(input, Some(spec), s);
    });

    let mut full_best = 0.0f64;
    let mut forked_best = 0.0f64;
    for _ in 0..INTERLEAVE_ROUNDS {
        time_schedule_chunk_runs(&mut full, &faults, &inputs, seed, &mut full_best);
        time_schedule_chunk_runs(&mut forked, &faults, &inputs, seed, &mut forked_best);
    }
    let stats = forked.stats();
    ForkMeasurement {
        program: name,
        runs: faults.len() as u64 * inputs.len() as u64,
        full_runs_per_sec: full_best,
        forked_runs_per_sec: forked_best,
        snapshots_built: stats.prefix_snapshots_built,
        fork_hits: stats.prefix_fork_hits,
        dormant_short_circuits: stats.prefix_dormant_short_circuits,
        instrs_skipped: stats.prefix_instrs_skipped,
        instrs_executed: stats.retired_instrs,
    }
}

/// Prefix-fork headline bench: §6 class campaigns for the JB family with
/// the fork cache on vs off (both warm, cached interpreter), recorded to
/// `BENCH_prefix_fork.json` at the repo root.
fn bench_prefix_fork(_c: &mut Criterion) {
    if !bench_enabled("prefix_fork") {
        return;
    }
    // JB schedules for continuity with the PR-1/PR-2 benches; C.team10 is
    // the deep-trigger §6 schedule (its generated fault sites first fire
    // ~halfway through the run, so forking skips ~half the instructions).
    let measurements: Vec<ForkMeasurement> = [("JB.team6", 6), ("JB.team11", 6), ("C.team10", 2)]
        .iter()
        .map(|&(name, n_inputs)| measure_prefix_fork(name, n_inputs, 0xB007))
        .collect();
    let mut rows = String::new();
    for m in &measurements {
        println!(
            "{:<42} full: {:>8.1} runs/s  forked: {:>8.1} runs/s  speedup: {:.2}x ({}x vs PR-2 cached)",
            format!("prefix/class_campaign_{}", m.program),
            m.full_runs_per_sec,
            m.forked_runs_per_sec,
            m.speedup(),
            m.speedup_vs_pr2()
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "?".into())
        );
        println!(
            "{:<42} {} snapshots, {} fork hits, {} dormant short-circuits, {:.1}% of prefix instrs skipped",
            format!("prefix/cache_behaviour_{}", m.program),
            m.snapshots_built,
            m.fork_hits,
            m.dormant_short_circuits,
            m.skipped_pct()
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let pr2 = match (pr2_cached_runs_per_sec(m.program), m.speedup_vs_pr2()) {
            (Some(base), Some(s)) => {
                format!("\"pr2_cached_runs_per_sec\": {base:.1}, \"speedup_vs_pr2_cached\": {s:.2}")
            }
            _ => "\"pr2_cached_runs_per_sec\": null, \"speedup_vs_pr2_cached\": null".into(),
        };
        rows.push_str(&format!(
            "    {{\"program\": \"{}\", \"runs\": {}, \
             \"full_runs_per_sec\": {:.1}, \"forked_runs_per_sec\": {:.1}, \
             \"runs_speedup\": {:.2}, {pr2}, \
             \"snapshots_built\": {}, \"fork_hits\": {}, \
             \"dormant_short_circuits\": {}, \"instrs_skipped\": {}, \
             \"instrs_skipped_pct\": {:.1}}}",
            m.program,
            m.runs,
            m.full_runs_per_sec,
            m.forked_runs_per_sec,
            m.speedup(),
            m.snapshots_built,
            m.fork_hits,
            m.dormant_short_circuits,
            m.instrs_skipped,
            m.skipped_pct()
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"prefix_fork\",\n  \"schedule\": \"section6 class campaign, all \
         generated faults x shared inputs (6 for JB, 2 for Camelot)\",\n  \"full\": \"warm RunSession, cached \
         interpreter, --no-prefix-fork (every run executes its full prefix)\",\n  \"forked\": \
         \"warm RunSession + shared PrefixCache: each run forks from a dirty-page snapshot \
         captured at its trigger's firing occurrence; dormant faults short-circuit from the \
         memoized golden run\",\n  \"pr2_baseline\": \"cached_runs_per_sec from PR 2's \
         committed BENCH_translation_cache.json, same schedule\",\n  \"metric\": \"runs/s, not \
         instrs/s: forked runs retire fewer instructions by design, which is the speedup\",\n  \
         \"methodology\": \"interleaved best-of-{INTERLEAVE_ROUNDS} chunks of >={CHUNK_SECS}s \
         per side; fork side warmed first so measured chunks are pure fork hits\",\n  \
         \"programs\": [\n{rows}\n  ]\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_prefix_fork.json");
    std::fs::write(&path, json).expect("write BENCH_prefix_fork.json");
    println!("wrote {}", path.display());
}

/// One program's block-translation measurement on the §6 class-campaign
/// schedule: the PR-2 predecoded-line engine vs the block interpreter,
/// both on warm fork-free sessions. No prefix cache on either side —
/// instrs/s is the headline metric here, and forking skips instructions
/// by design, which would contaminate it.
struct BlockMeasurement {
    program: &'static str,
    runs: u64,
    cached_instrs_per_sec: f64,
    blocks_instrs_per_sec: f64,
    cached_runs_per_sec: f64,
    blocks_runs_per_sec: f64,
    blocks_built: u64,
    block_hits: u64,
    fallback_dispatches: u64,
    block_invalidations: u64,
    block_instrs: u64,
    retired_instrs: u64,
}

/// The PR-5 forked engine's throughput on this same schedule, as
/// committed in PR 5's BENCH_prefix_fork.json (`forked_runs_per_sec`) —
/// the strongest prior engine configuration.
fn pr5_forked_runs_per_sec(program: &str) -> Option<f64> {
    match program {
        "JB.team6" => Some(170_467.1),
        "JB.team11" => Some(9_162.9),
        "C.team10" => Some(21.6),
        _ => None,
    }
}

impl BlockMeasurement {
    fn instrs_speedup(&self) -> f64 {
        self.blocks_instrs_per_sec / self.cached_instrs_per_sec
    }

    fn speedup_vs_pr2(&self) -> Option<f64> {
        pr2_cached_runs_per_sec(self.program).map(|pr2| self.blocks_runs_per_sec / pr2)
    }

    fn speedup_vs_pr5(&self) -> Option<f64> {
        pr5_forked_runs_per_sec(self.program).map(|pr5| self.blocks_runs_per_sec / pr5)
    }

    fn block_instr_pct(&self) -> f64 {
        if self.retired_instrs == 0 {
            return 0.0;
        }
        self.block_instrs as f64 * 100.0 / self.retired_instrs as f64
    }
}

/// Measure the §6 class campaign for one program under the line-cached
/// and block interpreters, both warm and fork-free. `n_inputs` mirrors
/// the prefix-fork bench: 6 for the fast JB schedules, 2 for the deep
/// C.team10 schedule.
fn measure_block_translation(name: &'static str, n_inputs: usize, seed: u64) -> BlockMeasurement {
    let p = program(name).unwrap();
    let compiled = compile(p.source_correct).unwrap();
    let (n_assign, n_check) = chosen_locations(name);
    let set = swifi_core::locations::generate_error_set(&compiled.debug, n_assign, n_check, seed);
    let faults: Vec<_> = set
        .assign_faults
        .iter()
        .chain(set.check_faults.iter())
        .cloned()
        .collect();
    let inputs = p.family.test_case(n_inputs, seed ^ 0x5EED);

    let mut cached = RunSession::new(&compiled, p.family);
    cached.set_block_cache(false);
    let mut blocks = RunSession::new(&compiled, p.family);
    // Warm-up pass per side: first lazy decode of every line and the
    // first translation of every hot block happen off the clock.
    let _ = time_schedule(&faults, &inputs, seed, |input, spec, s| {
        cached.run(input, Some(spec), s);
    });
    let _ = time_schedule(&faults, &inputs, seed, |input, spec, s| {
        blocks.run(input, Some(spec), s);
    });

    let mut cached_acc = Accum::default();
    let mut blocks_acc = Accum::default();
    for _ in 0..INTERLEAVE_ROUNDS {
        time_schedule_chunk(&mut cached, &faults, &inputs, seed, &mut cached_acc);
        time_schedule_chunk(&mut blocks, &faults, &inputs, seed, &mut blocks_acc);
    }
    let stats = blocks.stats();
    BlockMeasurement {
        program: name,
        runs: faults.len() as u64 * inputs.len() as u64,
        cached_instrs_per_sec: cached_acc.best_instrs_per_sec,
        blocks_instrs_per_sec: blocks_acc.best_instrs_per_sec,
        cached_runs_per_sec: cached_acc.best_runs_per_sec,
        blocks_runs_per_sec: blocks_acc.best_runs_per_sec,
        blocks_built: stats.blocks_built,
        block_hits: stats.block_hits,
        fallback_dispatches: stats.block_fallbacks,
        block_invalidations: stats.block_invalidations,
        block_instrs: stats.block_instrs,
        retired_instrs: stats.retired_instrs,
    }
}

/// Block-translation headline bench: §6 class campaigns under the
/// line-cached and block interpreters, recorded to
/// `BENCH_block_translation.json` at the repo root. The JB schedules
/// track the PR-2/PR-5 baselines; C.team10 is the deep-recursion
/// schedule where raw interpreter throughput dominates the campaign.
fn bench_block_translation(_c: &mut Criterion) {
    if !bench_enabled("block_translation") {
        return;
    }
    let measurements: Vec<BlockMeasurement> = [("JB.team6", 6), ("JB.team11", 6), ("C.team10", 2)]
        .iter()
        .map(|&(name, n_inputs)| measure_block_translation(name, n_inputs, 0xB007))
        .collect();
    let mut rows = String::new();
    for m in &measurements {
        println!(
            "{:<42} lines: {:>6.1} Minstr/s  blocks: {:>6.1} Minstr/s  speedup: {:.2}x ({}x vs PR-2 cached, {}x vs PR-5 forked)",
            format!("blocks/class_campaign_{}", m.program),
            m.cached_instrs_per_sec / 1e6,
            m.blocks_instrs_per_sec / 1e6,
            m.instrs_speedup(),
            m.speedup_vs_pr2()
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "?".into()),
            m.speedup_vs_pr5()
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "?".into())
        );
        println!(
            "{:<42} {} blocks built, {} hits, {} fallback dispatches, {} invalidated, {:.1}% of instrs in blocks",
            format!("blocks/cache_behaviour_{}", m.program),
            m.blocks_built,
            m.block_hits,
            m.fallback_dispatches,
            m.block_invalidations,
            m.block_instr_pct()
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let pr2 = match (pr2_cached_runs_per_sec(m.program), m.speedup_vs_pr2()) {
            (Some(base), Some(s)) => {
                format!("\"pr2_cached_runs_per_sec\": {base:.1}, \"speedup_vs_pr2_cached\": {s:.2}")
            }
            _ => "\"pr2_cached_runs_per_sec\": null, \"speedup_vs_pr2_cached\": null".into(),
        };
        let pr5 = match (pr5_forked_runs_per_sec(m.program), m.speedup_vs_pr5()) {
            (Some(base), Some(s)) => {
                format!("\"pr5_forked_runs_per_sec\": {base:.1}, \"speedup_vs_pr5_forked\": {s:.2}")
            }
            _ => "\"pr5_forked_runs_per_sec\": null, \"speedup_vs_pr5_forked\": null".into(),
        };
        rows.push_str(&format!(
            "    {{\"program\": \"{}\", \"runs\": {}, \
             \"cached_instrs_per_sec\": {:.0}, \"blocks_instrs_per_sec\": {:.0}, \
             \"cached_runs_per_sec\": {:.1}, \"blocks_runs_per_sec\": {:.1}, \
             \"instrs_speedup\": {:.2}, {pr2}, {pr5}, \
             \"blocks_built\": {}, \"block_hits\": {}, \"fallback_dispatches\": {}, \
             \"block_invalidations\": {}, \"block_instr_pct\": {:.1}}}",
            m.program,
            m.runs,
            m.cached_instrs_per_sec,
            m.blocks_instrs_per_sec,
            m.cached_runs_per_sec,
            m.blocks_runs_per_sec,
            m.instrs_speedup(),
            m.blocks_built,
            m.block_hits,
            m.fallback_dispatches,
            m.block_invalidations,
            m.block_instr_pct()
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"block_translation\",\n  \"schedule\": \"section6 class campaign, all \
         generated faults x shared inputs (6 for JB, 2 for Camelot)\",\n  \"cached\": \"warm \
         RunSession, predecoded line cache only (--no-block-cache, the PR 2 engine), no prefix \
         fork\",\n  \"blocks\": \"warm RunSession, basic-block superinstruction interpreter; \
         pinned trigger PCs and patched code fall back to the line-cached/slow paths\",\n  \
         \"pr2_baseline\": \"cached_runs_per_sec from PR 2's committed \
         BENCH_translation_cache.json, same schedule\",\n  \"pr5_baseline\": \
         \"forked_runs_per_sec from PR 5's committed BENCH_prefix_fork.json, same schedule\",\n  \
         \"metric\": \"instrs/s (both sides retire identical instruction streams; no prefix \
         cache on either side)\",\n  \"methodology\": \"interleaved best-of-{INTERLEAVE_ROUNDS} \
         chunks of >={CHUNK_SECS}s per side; both sides warmed first\",\n  \
         \"programs\": [\n{rows}\n  ]\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_block_translation.json");
    std::fs::write(&path, json).expect("write BENCH_block_translation.json");
    println!("wrote {}", path.display());
}

/// One program's telemetry-overhead measurement: the §6 schedule on
/// identical warm sessions with telemetry absent (`None`, the shipped
/// default) and with every pillar live (trace events + metrics +
/// profiler), plus the PR 7 block-translation baseline the "off" side
/// must not regress.
struct TraceOverheadMeasurement {
    program: &'static str,
    runs: u64,
    off_instrs_per_sec: f64,
    on_instrs_per_sec: f64,
    off_runs_per_sec: f64,
    on_runs_per_sec: f64,
    on_events: usize,
}

/// `blocks_instrs_per_sec` committed in PR 7's BENCH_block_translation.json
/// — the engine this PR instrumented, same schedule and seed.
fn pr7_blocks_instrs_per_sec(program: &str) -> Option<f64> {
    match program {
        "JB.team6" => Some(189_982_548.0),
        "JB.team11" => Some(301_979_747.0),
        _ => None,
    }
}

impl TraceOverheadMeasurement {
    /// Throughput lost with every telemetry pillar live, in percent of
    /// the telemetry-off rate.
    fn on_overhead_pct(&self) -> f64 {
        (1.0 - self.on_instrs_per_sec / self.off_instrs_per_sec) * 100.0
    }

    fn off_vs_pr7(&self) -> Option<f64> {
        pr7_blocks_instrs_per_sec(self.program).map(|pr7| self.off_instrs_per_sec / pr7)
    }
}

/// Measure the §6 class campaign with telemetry off and all-on, both on
/// default (block-translating) warm sessions. The "on" side gets a fresh
/// hub each round so the event buffer's memory footprint stays bounded;
/// building a hub and lane is microseconds against a >=0.1s chunk.
fn measure_trace_overhead(name: &'static str, seed: u64) -> TraceOverheadMeasurement {
    use swifi_trace::{Telemetry, TelemetryConfig};

    let p = program(name).unwrap();
    let compiled = compile(p.source_correct).unwrap();
    let (n_assign, n_check) = chosen_locations(name);
    let set = swifi_core::locations::generate_error_set(&compiled.debug, n_assign, n_check, seed);
    let faults: Vec<_> = set
        .assign_faults
        .iter()
        .chain(set.check_faults.iter())
        .cloned()
        .collect();
    let inputs = p.family.test_case(6, seed ^ 0x5EED);
    let all_on = TelemetryConfig {
        trace: true,
        metrics: true,
        profile: true,
        ..TelemetryConfig::default()
    };

    let mut off = RunSession::new(&compiled, p.family);
    let mut on = RunSession::new(&compiled, p.family);
    // Warm-up pass per side: lazy decode and block translation off the
    // measured clock, on both sessions identically.
    let _ = time_schedule(&faults, &inputs, seed, |input, spec, s| {
        off.run(input, Some(spec), s);
    });
    let _ = time_schedule(&faults, &inputs, seed, |input, spec, s| {
        on.run(input, Some(spec), s);
    });

    let mut off_acc = Accum::default();
    let mut on_acc = Accum::default();
    let mut on_events = 0usize;
    for _ in 0..INTERLEAVE_ROUNDS {
        time_schedule_chunk(&mut off, &faults, &inputs, seed, &mut off_acc);
        let hub = Telemetry::shared(all_on);
        on.set_telemetry(Some(hub.worker()));
        time_schedule_chunk(&mut on, &faults, &inputs, seed, &mut on_acc);
        on.set_telemetry(None);
        on_events += hub.event_count();
    }
    TraceOverheadMeasurement {
        program: name,
        runs: faults.len() as u64 * inputs.len() as u64,
        off_instrs_per_sec: off_acc.best_instrs_per_sec,
        on_instrs_per_sec: on_acc.best_instrs_per_sec,
        off_runs_per_sec: off_acc.best_runs_per_sec,
        on_runs_per_sec: on_acc.best_runs_per_sec,
        on_events,
    }
}

/// Telemetry no-op-contract bench: the §6 JB schedules with telemetry
/// absent vs every pillar live, recorded to `BENCH_trace_overhead.json`
/// at the repo root. The headline number is the *off* side against PR 7's
/// committed block-translation throughput — disabled telemetry must cost
/// under 1% — with the all-on overhead reported alongside for scale.
fn bench_trace_overhead(_c: &mut Criterion) {
    if !bench_enabled("trace_overhead") {
        return;
    }
    let measurements: Vec<TraceOverheadMeasurement> = ["JB.team6", "JB.team11"]
        .iter()
        .map(|&name| measure_trace_overhead(name, 0xB007))
        .collect();
    let mut rows = String::new();
    for m in &measurements {
        println!(
            "{:<42} off: {:>6.1} Minstr/s  all-on: {:>6.1} Minstr/s  overhead: {:.1}% ({}x vs PR-7 blocks)",
            format!("trace/class_campaign_{}", m.program),
            m.off_instrs_per_sec / 1e6,
            m.on_instrs_per_sec / 1e6,
            m.on_overhead_pct(),
            m.off_vs_pr7()
                .map(|s| format!("{s:.3}"))
                .unwrap_or_else(|| "?".into())
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let pr7 = match (pr7_blocks_instrs_per_sec(m.program), m.off_vs_pr7()) {
            (Some(base), Some(s)) => {
                format!("\"pr7_blocks_instrs_per_sec\": {base:.0}, \"off_vs_pr7_blocks\": {s:.3}")
            }
            _ => "\"pr7_blocks_instrs_per_sec\": null, \"off_vs_pr7_blocks\": null".into(),
        };
        rows.push_str(&format!(
            "    {{\"program\": \"{}\", \"runs\": {}, \
             \"off_instrs_per_sec\": {:.0}, \"on_instrs_per_sec\": {:.0}, \
             \"off_runs_per_sec\": {:.1}, \"on_runs_per_sec\": {:.1}, \
             \"all_on_overhead_pct\": {:.1}, {pr7}, \"on_trace_events\": {}}}",
            m.program,
            m.runs,
            m.off_instrs_per_sec,
            m.on_instrs_per_sec,
            m.off_runs_per_sec,
            m.on_runs_per_sec,
            m.on_overhead_pct(),
            m.on_events
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"trace_overhead\",\n  \"schedule\": \"section6 class campaign, all \
         generated faults x 6 shared inputs (same schedule and seed as \
         BENCH_block_translation)\",\n  \"off\": \"warm default RunSession, telemetry None — the \
         shipped no-telemetry configuration; per-run cost is one Option test\",\n  \"on\": \"warm \
         default RunSession with a WorkerTelemetry lane from an all-pillars hub (trace events + \
         metrics registry + guest-PC profiler), fresh hub per chunk\",\n  \"pr7_baseline\": \
         \"blocks_instrs_per_sec from PR 7's committed BENCH_block_translation.json, same \
         schedule\",\n  \"contract\": \"off_vs_pr7_blocks >= 0.99 — telemetry off must cost under \
         1% of PR 7 throughput (host variance aside); all_on_overhead_pct is informational\",\n  \
         \"metric\": \"instrs/s (both sides retire identical instruction streams)\",\n  \
         \"methodology\": \"interleaved best-of-{INTERLEAVE_ROUNDS} chunks of >={CHUNK_SECS}s per \
         side; both sides warmed first\",\n  \"programs\": [\n{rows}\n  ]\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_trace_overhead.json");
    std::fs::write(&path, json).expect("write BENCH_trace_overhead.json");
    println!("wrote {}", path.display());
}

/// One program's source-mutation pipeline measurement: mutant compile
/// throughput (the cost binary SWIFI avoids by mutating in place) and
/// injected-run throughput on the §6-class schedule (every selected
/// mutant × every shared input, warm baked-image sessions).
struct MutationMeasurement {
    program: &'static str,
    mutants_total: usize,
    mutants_selected: usize,
    compile_mutants_per_sec: f64,
    runs: u64,
    runs_per_sec: f64,
}

/// Measure the G-SWFIT source-mutation pipeline for one program: best-of
/// interleaved chunks, same methodology as the interpreter benches.
fn measure_source_mutation(name: &'static str, seed: u64) -> MutationMeasurement {
    use swifi_campaign::source::SourceMutationSource;
    use swifi_core::source::{FaultSource, PreparedFault};

    let p = program(name).unwrap();
    let compiled = compile(p.source_correct).unwrap();
    let muts = swifi_lang::mutate::mutants(&compiled.ast);

    // Side 1: mutant compilation rate (parse + sema + codegen per mutant).
    let mut compile_best = 0.0f64;
    for _ in 0..INTERLEAVE_ROUNDS / 2 {
        let mut n = 0u64;
        let t0 = std::time::Instant::now();
        loop {
            for m in &muts {
                criterion::black_box(compile(&m.source).expect("mutant compiles"));
                n += 1;
            }
            if t0.elapsed().as_secs_f64() >= CHUNK_SECS {
                break;
            }
        }
        let rate = n as f64 / t0.elapsed().as_secs_f64();
        if rate > compile_best {
            compile_best = rate;
        }
    }

    // Side 2: injected-run rate on the §6-class schedule — the
    // field-weighted mutant selection at the reduced-scale budget, run as
    // baked images through warm sessions (one per mutant, compile cached).
    let source = SourceMutationSource::from_target(&p, 18);
    let plans = source.plans(seed).expect("mutants compile");
    let inputs = p.family.test_case(6, seed ^ 0x5EED);
    let mut sessions: Vec<RunSession> = plans
        .iter()
        .map(|plan| match &plan.fault {
            PreparedFault::Baked(prog) => RunSession::new(prog, p.family),
            PreparedFault::Runtime(_) => unreachable!("source plans are baked"),
        })
        .collect();
    // Warm-up pass: first snapshot restores and lazy decodes off the clock.
    for s in sessions.iter_mut() {
        for input in &inputs {
            criterion::black_box(s.run_clean(input));
        }
    }
    let mut runs_best = 0.0f64;
    for _ in 0..INTERLEAVE_ROUNDS / 2 {
        let mut n = 0u64;
        let t0 = std::time::Instant::now();
        loop {
            for s in sessions.iter_mut() {
                for input in &inputs {
                    criterion::black_box(s.run_clean(input));
                    n += 1;
                }
            }
            if t0.elapsed().as_secs_f64() >= CHUNK_SECS {
                break;
            }
        }
        let rate = n as f64 / t0.elapsed().as_secs_f64();
        if rate > runs_best {
            runs_best = rate;
        }
    }

    MutationMeasurement {
        program: name,
        mutants_total: muts.len(),
        mutants_selected: plans.len(),
        compile_mutants_per_sec: compile_best,
        runs: plans.len() as u64 * inputs.len() as u64,
        runs_per_sec: runs_best,
    }
}

/// Source-mutation headline bench: mutant compile rate and baked-image
/// run rate for the JB family, recorded to `BENCH_source_mutation.json`
/// at the repo root.
fn bench_source_mutation(_c: &mut Criterion) {
    if !bench_enabled("source_mutation") {
        return;
    }
    let measurements: Vec<MutationMeasurement> = ["JB.team6", "JB.team11"]
        .iter()
        .map(|name| measure_source_mutation(name, 0xB007))
        .collect();
    let mut rows = String::new();
    for m in &measurements {
        println!(
            "{:<42} compile: {:>8.1} mutants/s   run: {:>8.1} runs/s  ({} of {} mutants selected)",
            format!("mutation/source_campaign_{}", m.program),
            m.compile_mutants_per_sec,
            m.runs_per_sec,
            m.mutants_selected,
            m.mutants_total
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"program\": \"{}\", \"mutants_total\": {}, \"mutants_selected\": {}, \
             \"compile_mutants_per_sec\": {:.1}, \"runs\": {}, \"runs_per_sec\": {:.1}}}",
            m.program,
            m.mutants_total,
            m.mutants_selected,
            m.compile_mutants_per_sec,
            m.runs,
            m.runs_per_sec
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"source_mutation\",\n  \"schedule\": \"G-SWFIT source campaign: \
         field-weighted selection of 18 mutants x 6 shared inputs (the section6-class \
         schedule)\",\n  \"compile\": \"full pipeline (parse + sema + codegen) per mutant \
         source; binary SWIFI mutates in place and skips this cost entirely\",\n  \"run\": \
         \"warm RunSession per baked mutant image, snapshot restore between runs\",\n  \
         \"methodology\": \"best-of-{rounds} chunks of >={CHUNK_SECS}s per side\",\n  \
         \"programs\": [\n{rows}\n  ]\n}}\n",
        rounds = INTERLEAVE_ROUNDS / 2
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_source_mutation.json");
    std::fs::write(&path, json).expect("write BENCH_source_mutation.json");
    println!("wrote {}", path.display());
}

/// Interned-key lookup micro-bench: the prefix cache's hot probes hash
/// a `(u32, u32, u64, …)` key after interning the input once; before
/// interning every probe hashed (and every insert cloned) the full
/// [`TestInput`]. Measures both shapes on the same population.
fn bench_intern_lookup(_c: &mut Criterion) {
    if !bench_enabled("intern_lookup") {
        return;
    }
    use std::collections::HashMap;
    let p = program("JB.team11").unwrap();
    let inputs = p.family.test_case(32, 0xB007);
    let cache = swifi_campaign::PrefixCache::new();
    let mut full_key: HashMap<(TestInput, u32, u64), bool> = HashMap::new();
    for (i, input) in inputs.iter().enumerate() {
        for pc in 0..8u32 {
            cache.record_shallow(input, 0x100 + 4 * pc, i as u64);
            full_key.insert((input.clone(), 0x100 + 4 * pc, i as u64), true);
        }
    }

    type LookupFn<'a> = Box<dyn FnMut(&TestInput, u32, u64) -> bool + 'a>;
    let probe = |label: &str, mut hit: LookupFn| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..INTERLEAVE_ROUNDS {
            let mut lookups = 0u64;
            let t0 = std::time::Instant::now();
            loop {
                for (i, input) in inputs.iter().enumerate() {
                    for pc in 0..8u32 {
                        criterion::black_box(hit(input, 0x100 + 4 * pc, i as u64));
                        lookups += 1;
                    }
                }
                if t0.elapsed().as_secs_f64() >= CHUNK_SECS {
                    break;
                }
            }
            let rate = lookups as f64 / t0.elapsed().as_secs_f64();
            if rate > best {
                best = rate;
            }
        }
        println!("intern/{label:<34} {:>8.1} Mlookups/s", best / 1e6);
        best
    };

    let interned = probe(
        "shallow_probe_interned",
        Box::new(|input, pc, occ| cache.is_shallow(input, pc, occ)),
    );
    let cloned = probe(
        "shallow_probe_full_testinput_key",
        Box::new(|input, pc, occ| {
            full_key
                .get(&(input.clone(), pc, occ))
                .copied()
                .unwrap_or(false)
        }),
    );
    println!(
        "intern/{:<34} {:>8.2}x interned vs full-key",
        "speedup",
        interned / cloned
    );
}

criterion_group!(
    benches,
    bench_vm_throughput,
    bench_injector_overhead,
    bench_compiler,
    bench_campaign_run,
    bench_warm_reboot,
    bench_translation_cache,
    bench_prefix_fork,
    bench_block_translation,
    bench_trace_overhead,
    bench_source_mutation,
    bench_intern_lookup
);
criterion_main!(benches);
