//! The benchmark's workloads and the campaign passes over them.
//!
//! A class campaign's one seed chooses both the fault locations and the
//! test case. Which locations are chosen sets a campaign's cost (a
//! JB.team6 campaign at 300 inputs takes 0.1 s or 2.1 s depending on
//! whether a hang-prone location is among them), so a workload fixes its
//! locations with [`LOCATION_SEED`] and the workload seed draws the test
//! case and the per-run seeds. [`engine_campaign`] runs that schedule
//! through the same engine calls as `class_campaign_with`; with both
//! seeds equal it is that campaign, which the traced run checks, and a
//! pass at that seed times `class_campaign_with` itself
//! ([`class_campaign`]).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use swifi_campaign::report::class_campaign_report;
use swifi_campaign::section6::{chosen_locations, class_campaign_with};
use swifi_campaign::{
    watch_pcs_of, CampaignEngine, CampaignOptions, CampaignScale, CheckpointHeader, ModeCounts,
    PrefixCache, RunSession,
};
use swifi_core::locations::{choose_locations, GeneratedFault};
use swifi_core::source::{BinarySwifiSource, FaultSource, PreparedFault};
use swifi_lang::{compile, Program};
use swifi_programs::input::TestInput;
use swifi_programs::TargetProgram;

use crate::records::{read_checkpoint, runs_of, FaultRecord};

/// The campaign seed whose location choice every workload uses (the
/// paper-scale campaigns measured in `ROADMAP.md` use it too).
pub const LOCATION_SEED: u64 = 7;

/// Shards of the traced run's service submissions.
pub const SERVICE_SHARDS: u64 = 2;

/// One benchmark workload: which §6 programs, at how many inputs per
/// fault.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload name, as on the command line.
    pub name: &'static str,
    /// §6 programs campaigned one after another in a pass.
    pub programs: &'static [&'static str],
    /// Inputs per fault (the shared test case size).
    pub inputs: usize,
}

/// Every workload (reasons in `perfbench/METHODOLOGY.md`).
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "jb-paper",
        programs: &["JB.team6", "JB.team11"],
        inputs: 300,
    },
    Workload {
        name: "camelot-deep",
        programs: &["C.team10"],
        inputs: 2,
    },
    Workload {
        name: "sor-multicore",
        programs: &["SOR"],
        inputs: 12,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Result<Workload, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .copied()
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` ({})", names.join(", "))
        })
}

/// Look a roster program up by name.
pub fn target(name: &str) -> Result<TargetProgram, String> {
    swifi_programs::program(name).ok_or_else(|| format!("unknown program `{name}`"))
}

/// Worker threads the campaign pool spawns.
pub fn pool_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// The layer configuration of a pass, as the CLI's `--no-*` flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layers {
    /// `--no-block-cache`.
    pub no_blocks: bool,
    /// `--no-prefix-fork`.
    pub no_fork: bool,
    /// `--no-prune`.
    pub no_prune: bool,
}

impl Layers {
    /// Every layer off: the reference configuration.
    pub const NONE: Layers = Layers {
        no_blocks: true,
        no_fork: true,
        no_prune: true,
    };

    fn options(self) -> CampaignOptions {
        CampaignOptions {
            no_block_cache: self.no_blocks,
            no_prefix_fork: self.no_fork,
            no_prune: self.no_prune,
            ..CampaignOptions::default()
        }
    }
}

/// One program's campaign, as a pass sees it.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Runs answered.
    pub runs: u64,
    /// Wall-clock of the whole campaign, set-up included.
    pub wall_s: f64,
    /// Per-fault records.
    pub records: Vec<FaultRecord>,
}

/// Everything a class campaign builds before its first run, for one
/// program: the compiled program, both phases' faults and the test case.
pub struct Prepared {
    /// The compiled corrected source.
    pub compiled: Program,
    /// Assignment-phase faults, in campaign order.
    pub assign: Vec<GeneratedFault>,
    /// Checking-phase faults, in campaign order.
    pub check: Vec<GeneratedFault>,
    /// The shared test case.
    pub inputs: Vec<TestInput>,
}

/// Seconds spent in each set-up step of [`prepare`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `swifi_lang::compile`.
    pub compile_s: f64,
    /// Location choice plus `BinarySwifiSource::plans`.
    pub fault_plans_s: f64,
    /// `Family::test_case`.
    pub test_case_s: f64,
}

/// Build what a class campaign of `target` builds before its first run,
/// through the same public calls, timing each step: faults from
/// [`LOCATION_SEED`], the test case from `seed`.
pub fn prepare(
    target: &TargetProgram,
    inputs: usize,
    seed: u64,
) -> Result<(Prepared, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let compiled = compile(target.source_correct).map_err(|e| format!("{e:?}"))?;
    times.compile_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (n_assign, n_check) = chosen_locations(target.name);
    let fault_source = BinarySwifiSource::new(compiled.debug.clone(), n_assign, n_check);
    std::hint::black_box(choose_locations(
        &compiled.debug,
        n_assign,
        n_check,
        LOCATION_SEED,
    ));
    let mut assign = Vec::new();
    let mut check = Vec::new();
    for p in fault_source.plans(LOCATION_SEED)? {
        let PreparedFault::Runtime(fault) = p.fault else {
            return Err("binary fault source yielded a baked plan".to_string());
        };
        match p.group.as_str() {
            "assign" => assign.push(fault),
            _ => check.push(fault),
        }
    }
    times.fault_plans_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let inputs = target.family.test_case(inputs, seed ^ 0x5EED);
    times.test_case_s = t.elapsed().as_secs_f64();
    Ok((
        Prepared {
            compiled,
            assign,
            check,
            inputs,
        },
        times,
    ))
}

impl Prepared {
    /// The campaign's shared prefix cache, watching both phases' trigger
    /// PCs (as `class_campaign_with` declares them).
    pub fn prefix_cache(&self) -> Arc<PrefixCache> {
        let cache = PrefixCache::shared();
        cache.set_watch_pcs(watch_pcs_of(
            self.assign.iter().chain(&self.check).map(|f| &f.spec),
        ));
        cache
    }

    /// Boot one worker session configured as `class_campaign_with`
    /// configures it under `opts`.
    pub fn boot_session(
        &self,
        target: &TargetProgram,
        opts: &CampaignOptions,
        prefix: &Option<Arc<PrefixCache>>,
    ) -> RunSession {
        let mut s = RunSession::new(&self.compiled, target.family);
        opts.configure_session(&mut s);
        s.set_prefix_cache(prefix.clone());
        s.set_block_cache(!opts.no_block_cache);
        s
    }

    /// The phases in campaign order.
    pub fn phases(&self) -> [(&'static str, &[GeneratedFault]); 2] {
        [("assign", &self.assign), ("check", &self.check)]
    }
}

/// The driver's per-run seed for input `j` of `fault`.
pub fn run_seed(seed: u64, fault: &GeneratedFault, j: usize) -> u64 {
    seed.wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(fault.site_addr as u64)
        .wrapping_add(j as u64)
}

/// Run one fault against the whole test case on `session`.
pub fn run_fault(
    session: &mut RunSession,
    fault: &GeneratedFault,
    inputs: &[TestInput],
    seed: u64,
) -> (swifi_core::locations::ErrorClass, ModeCounts, u64) {
    let mut counts = ModeCounts::default();
    let mut dormant = 0;
    for (j, input) in inputs.iter().enumerate() {
        let (mode, fired) = session.run(input, Some(&fault.spec), run_seed(seed, fault, j));
        counts.add(mode);
        if !fired {
            dormant += 1;
        }
    }
    (fault.error, counts, dormant)
}

/// One cold class campaign of `program`: locations from
/// [`LOCATION_SEED`], test case and run seeds from `seed`, every phase
/// through `CampaignEngine::run_phase` with the sessions, prefix cache
/// and per-fault closure of `class_campaign_with`.
pub fn engine_campaign(
    program: &str,
    inputs: usize,
    seed: u64,
    layers: Layers,
) -> Result<CampaignRun, String> {
    let t0 = Instant::now();
    let target = target(program)?;
    let (prepared, _) = prepare(&target, inputs, seed)?;
    let opts = layers.options();
    let header = CheckpointHeader::new(format!("perfbench:{program}"), seed, inputs as u64);
    let mut engine = CampaignEngine::new(header, &opts)?;
    let prefix = (!opts.no_prefix_fork).then(|| prepared.prefix_cache());
    let mut records = Vec::new();
    for (phase, faults) in prepared.phases() {
        let (phase_records, _sessions) = engine.run_phase(
            phase,
            faults,
            || prepared.boot_session(&target, &opts, &prefix),
            |session, _, fault| run_fault(session, fault, &prepared.inputs, seed),
            |i, fault| {
                format!(
                    "{phase} fault #{i}: {:?} at {:#x}",
                    fault.error, fault.site_addr
                )
            },
        )?;
        records.extend(phase_records);
    }
    Ok(CampaignRun {
        runs: runs_of(&records),
        wall_s: t0.elapsed().as_secs_f64(),
        records,
    })
}

/// A campaign run through `class_campaign_with`, with its report.
#[derive(Debug, Clone)]
pub struct ClassRun {
    /// Runs, wall-clock of the `class_campaign_with` call, and the
    /// per-fault records read back from the campaign's checkpoint.
    pub run: CampaignRun,
    /// The report, as `swifi campaign` prints it.
    pub report: String,
}

/// One program's campaign through `class_campaign_with` itself, at
/// campaign seed [`LOCATION_SEED`], with its records checkpointed to
/// `work` so they can be compared item by item.
pub fn class_campaign(program: &str, inputs: usize, work: &Path) -> Result<ClassRun, String> {
    let t0 = Instant::now();
    let target = target(program)?;
    let checkpoint = work.join(format!("class-{program}.jsonl"));
    let opts = CampaignOptions::with_checkpoint(&checkpoint, false);
    let scale = CampaignScale {
        inputs_per_fault: inputs,
    };
    let campaign = class_campaign_with(&target, scale, LOCATION_SEED, &opts)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let records = read_checkpoint(&checkpoint)?;
    std::fs::remove_file(&checkpoint).ok();
    Ok(ClassRun {
        run: CampaignRun {
            runs: runs_of(&records),
            wall_s,
            records,
        },
        report: class_campaign_report(&campaign),
    })
}

/// One cold set-up of a campaign of `program`: compile, fault plans,
/// test case, prefix cache, and a session per worker per phase.
pub fn setup_once(program: &str, inputs: usize, seed: u64) -> Result<(), String> {
    let target = target(program)?;
    let (prepared, _) = prepare(&target, inputs, seed)?;
    let opts = CampaignOptions::default();
    let prefix = Some(prepared.prefix_cache());
    for _ in 0..2 * pool_workers() {
        std::hint::black_box(prepared.boot_session(&target, &opts, &prefix));
    }
    Ok(())
}
