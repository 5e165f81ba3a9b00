//! Workspace integration tests: the full pipeline from MiniC source to
//! classified fault-injection outcomes, spanning every crate.

use swifi_campaign::runner::{execute, FailureMode};
use swifi_campaign::section6::{class_campaign, CampaignScale};
use swifi_core::emulate::{plan_emulation, EmulationVerdict};
use swifi_core::locations::generate_error_set;
use swifi_lang::compile;
use swifi_programs::{all_programs, program, Family, TestInput};

/// The §5 experiment's headline result, end to end: every real fault is
/// classified as the paper classified its class.
#[test]
fn real_faults_classify_per_paper() {
    use swifi_odc::DefectType;
    for p in all_programs() {
        let Some(faulty_src) = p.source_faulty else {
            continue;
        };
        let corrected = compile(p.source_correct).unwrap();
        let faulty = compile(faulty_src).unwrap();
        let verdict = plan_emulation(&corrected.image, &faulty.image);
        let fault = p.real_fault.unwrap();
        match fault.defect_type {
            DefectType::Algorithm => {
                assert!(
                    matches!(verdict, EmulationVerdict::NotEmulable { .. }),
                    "{}: algorithm faults are class C, got {verdict:?}",
                    p.name
                );
            }
            DefectType::Assignment | DefectType::Checking => {
                assert!(
                    matches!(
                        verdict,
                        EmulationVerdict::Emulable { .. }
                            | EmulationVerdict::BreakpointBudgetExceeded { .. }
                    ),
                    "{}: assignment/checking faults are emulable in principle, got {verdict:?}",
                    p.name
                );
            }
            other => panic!("unexpected fault class {other:?}"),
        }
    }
}

/// Injected faults have much stronger impact than real software faults —
/// the paper's central §6 observation, tested end to end on one program.
#[test]
fn injected_faults_hit_harder_than_real_ones() {
    let target = program("JB.team6").unwrap();

    // Real fault: failure rate over random inputs is tiny.
    let faulty = compile(target.source_faulty.unwrap()).unwrap();
    let inputs = Family::JamesB.test_case(150, 5);
    let real_failures = inputs
        .iter()
        .filter(|i| execute(&faulty, Family::JamesB, i, None, 0).0 != FailureMode::Correct)
        .count();

    // Injected faults: a small campaign on the corrected program.
    let campaign = class_campaign(
        &target,
        CampaignScale {
            inputs_per_fault: 5,
        },
        3,
    );
    let injected_total = campaign.total_runs;
    let injected_noncorrect =
        injected_total - campaign.assign_modes.correct - campaign.check_modes.correct;

    let real_rate = real_failures as f64 / inputs.len() as f64;
    let injected_rate = injected_noncorrect as f64 / injected_total as f64;
    assert!(
        injected_rate > real_rate + 0.2,
        "injected {injected_rate:.2} vs real {real_rate:.2}: injected faults should hit much harder"
    );
}

/// Each failure mode is reachable through injection on the dynamic
/// structures program (the crash-prone C.team9).
#[test]
fn all_failure_modes_reachable() {
    let target = program("C.team9").unwrap();
    let compiled = compile(target.source_correct).unwrap();
    let set = generate_error_set(&compiled.debug, 9, 9, 17);
    let inputs = Family::Camelot.test_case(3, 17);
    let mut seen = std::collections::HashSet::new();
    'outer: for f in set.assign_faults.iter().chain(&set.check_faults) {
        for input in &inputs {
            let (mode, _) = execute(&compiled, Family::Camelot, input, Some(&f.spec), 1);
            seen.insert(mode);
            if seen.len() == 4 {
                break 'outer;
            }
        }
    }
    for mode in FailureMode::ALL {
        assert!(
            seen.contains(&mode),
            "mode {mode:?} never observed; saw {seen:?}"
        );
    }
}

/// SOR runs correctly on 4 cores and its injected faults produce the
/// crash-sensitivity the paper reports for checking faults.
#[test]
fn sor_parallel_campaign_smoke() {
    let target = program("SOR").unwrap();
    let campaign = class_campaign(
        &target,
        CampaignScale {
            inputs_per_fault: 3,
        },
        41,
    );
    assert!(campaign.total_runs > 0);
    // Injected faults must disturb the parallel execution: crashes from
    // wild values (random assignment errors into band bounds/indices) or
    // hangs from broken loop controls. (The paper saw checking faults
    // crash its 2400-line SOR; our Table-3 checking mutations on this
    // smaller SOR are semantically gentler, so the disturbance arrives
    // mostly through assignment faults — recorded in EXPERIMENTS.md.)
    let total_crash_hang = campaign.check_modes.crash
        + campaign.check_modes.hang
        + campaign.assign_modes.crash
        + campaign.assign_modes.hang;
    assert!(
        total_crash_hang > 0,
        "SOR injections should disturb the parallel execution: {campaign:?}"
    );
}

/// The roster's corrected programs all agree with the oracle (sampled).
#[test]
fn oracle_agreement_sampled() {
    for p in all_programs() {
        let compiled = compile(p.source_correct).unwrap();
        for input in p.family.test_case(4, 99) {
            let (mode, fired) = execute(&compiled, p.family, &input, None, 0);
            assert_eq!(mode, FailureMode::Correct, "{} on {input:?}", p.name);
            assert!(!fired);
        }
    }
}

/// A single input can be pushed through every family.
#[test]
fn manual_inputs_work_for_every_family() {
    let cases = vec![
        (
            "C.team8",
            TestInput::Camelot {
                pieces: vec![(3, 3), (0, 0), (7, 7)],
            },
        ),
        (
            "JB.team11",
            TestInput::JamesB {
                seed: 42,
                line: b"end to end".to_vec(),
            },
        ),
        (
            "SOR",
            TestInput::Sor {
                n: 8,
                iters: 6,
                boundary: [1000, 2000, 3000, 4000],
            },
        ),
    ];
    for (name, input) in cases {
        let p = program(name).unwrap();
        let compiled = compile(p.source_correct).unwrap();
        let (mode, _) = execute(&compiled, p.family, &input, None, 0);
        assert_eq!(mode, FailureMode::Correct, "{name}");
    }
}

/// The parallel SOR result is independent of the scheduler's quantum —
/// the red-black decomposition makes phases conflict-free, so any core
/// interleaving yields the same matrix. (This is the property that lets a
/// sequential oracle check a parallel program.)
#[test]
fn sor_is_quantum_independent() {
    use swifi_vm::machine::{Machine, MachineConfig};
    use swifi_vm::Noop;
    let p = program("SOR").unwrap();
    let compiled = compile(p.source_correct).unwrap();
    let input = TestInput::Sor {
        n: 10,
        iters: 8,
        boundary: [7_000, 55_000, 13_000, 90_000],
    };
    let run_with_quantum = |quantum: u32| {
        let mut m = Machine::new(MachineConfig {
            num_cores: 4,
            quantum,
            budget: Family::Sor.run_budget(),
            ..MachineConfig::default()
        });
        m.load(&compiled.image);
        m.set_input(input.to_tape());
        m.run(&mut Noop).output().to_vec()
    };
    let reference = run_with_quantum(64);
    assert_eq!(reference, input.expected_output());
    for q in [1, 3, 17, 1000] {
        assert_eq!(
            run_with_quantum(q),
            reference,
            "quantum {q} changed the SOR result"
        );
    }
}

/// Real faults stay invisible to the contest-style acceptance test but
/// are caught by the oracle-checked intensive test — the paper's framing
/// for why its fault set is interesting ("only bugs found in programs
/// that passed the test cases were considered").
#[test]
fn faulty_programs_pass_a_weak_acceptance_test() {
    // A fixed 3-input acceptance suite, like the contest judges'.
    let acceptance: Vec<TestInput> = vec![
        TestInput::Camelot {
            pieces: vec![(2, 2), (4, 4)],
        },
        TestInput::Camelot {
            pieces: vec![(0, 0), (3, 3), (5, 5)],
        },
        TestInput::Camelot {
            pieces: vec![(1, 6), (6, 1), (2, 2), (7, 0)],
        },
    ];
    for name in ["C.team1", "C.team4"] {
        let p = program(name).unwrap();
        let faulty = compile(p.source_faulty.unwrap()).unwrap();
        for input in &acceptance {
            let (mode, _) = execute(&faulty, Family::Camelot, input, None, 0);
            assert_eq!(
                mode,
                FailureMode::Correct,
                "{name} should pass the weak acceptance test on {input:?}"
            );
        }
    }
}

/// Work conservation: every guest instruction of a default §6 campaign
/// is either executed or skipped by the prefix cache, and together they
/// add up to exactly the instructions of the same campaign with every
/// execution layer off. An extra execution no (fault, input) pair asked
/// for, such as a hidden traced or validation run, breaks the equality.
#[test]
fn default_campaigns_execute_no_hidden_work() {
    use swifi_campaign::section6::class_campaign_with;
    use swifi_campaign::CampaignOptions;
    let scale = CampaignScale {
        inputs_per_fault: 3,
    };
    let plain = CampaignOptions {
        no_prefix_fork: true,
        no_block_cache: true,
        ..CampaignOptions::default()
    };
    for name in ["JB.team6", "JB.team11"] {
        let target = program(name).unwrap();
        for seed in [7, 2024] {
            let full = class_campaign_with(&target, scale, seed, &plain)
                .unwrap()
                .throughput
                .stats;
            let layered = class_campaign_with(&target, scale, seed, &CampaignOptions::default())
                .unwrap()
                .throughput
                .stats;
            assert_eq!(full.prefix_instrs_skipped, 0, "{name} seed {seed}");
            assert!(
                layered.prefix_instrs_skipped > 0,
                "{name} seed {seed}: the prefix cache answered nothing"
            );
            assert_eq!(
                layered.retired_instrs + layered.prefix_instrs_skipped,
                full.retired_instrs,
                "{name} seed {seed}: executed + skipped must equal the layer-free campaign"
            );
        }
    }
}

/// The trigger-path counter gate. Every hang fault of the JB programs'
/// seed-7 location choice has its trigger PC inside the loop that hangs,
/// so each iteration fetches the trigger. Over 3 inputs, the per-run
/// records `(mode, fired, retired, output)` must not depend on block
/// translation or prefix forking, block translation must not change the
/// slow-fetch count, and with blocks on at least 99% of the retired
/// instructions must run inside translated blocks, trigger steps included.
/// A change that makes trigger PCs leave the block tier again fails here.
#[test]
fn hang_loop_triggers_run_inside_blocks() {
    use swifi_campaign::section6::chosen_locations;
    use swifi_campaign::{classify_outcome, PrefixCache, RunSession};
    use swifi_core::injector::TriggerMode;
    let seed = 7u64;
    for name in ["JB.team6", "JB.team11"] {
        let target = program(name).unwrap();
        let compiled = compile(target.source_correct).unwrap();
        let (n_assign, n_check) = chosen_locations(name);
        let set = generate_error_set(&compiled.debug, n_assign, n_check, seed);
        let faults: Vec<_> = set.assign_faults.iter().chain(&set.check_faults).collect();
        let inputs = target.family.test_case(3, seed ^ 0x5EED);
        // Runs every (fault, input) pair of `faults` in one session.
        let run_all =
            |faults: &[&swifi_core::locations::GeneratedFault], blocks: bool, fork: bool| {
                let mut session = RunSession::new(&compiled, target.family);
                session.set_block_cache(blocks);
                session.set_prefix_cache(fork.then(PrefixCache::shared));
                let mut records = Vec::new();
                for fault in faults {
                    for (j, input) in inputs.iter().enumerate() {
                        let run_seed = seed
                            .wrapping_mul(0x9E3779B97F4A7C15)
                            .wrapping_add(fault.site_addr as u64)
                            .wrapping_add(j as u64);
                        let (outcome, fired) = session.run_injected(
                            input,
                            std::slice::from_ref(&fault.spec),
                            TriggerMode::Hardware,
                            run_seed,
                        );
                        let mode = classify_outcome(&outcome, &input.expected_output());
                        records.push((
                            mode,
                            fired,
                            session.last_retired(),
                            outcome.output().to_vec(),
                        ));
                    }
                }
                (records, session.stats())
            };
        let (all, _) = run_all(&faults, false, false);
        let hangs: Vec<_> = faults
            .iter()
            .zip(all.chunks(inputs.len()))
            .filter(|(_, runs)| runs.iter().any(|r| r.0 == FailureMode::Hang))
            .map(|(f, _)| *f)
            .collect();
        assert!(!hangs.is_empty(), "{name}: no hang fault at seed {seed}");
        let (plain, plain_stats) = run_all(&hangs, false, false);
        for fork in [false, true] {
            let (off, off_stats) = run_all(&hangs, false, fork);
            let (on, on_stats) = run_all(&hangs, true, fork);
            assert_eq!(plain, off, "{name}: fork {fork} changed the records");
            assert_eq!(off, on, "{name} fork {fork}: blocks changed the records");
            assert_eq!(
                off_stats.slow_fetches, on_stats.slow_fetches,
                "{name} fork {fork}: blocks changed the slow fetches"
            );
            assert!(on_stats.slow_fetches > 0, "{name}: no trigger arrival");
            assert!(
                on_stats.block_instrs as f64 >= 0.99 * on_stats.retired_instrs as f64,
                "{name} fork {fork}: {} of {} instructions in blocks",
                on_stats.block_instrs,
                on_stats.retired_instrs
            );
        }
        assert_eq!(plain_stats.block_instrs, 0);
    }
}
