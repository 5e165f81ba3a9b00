//! The traced run: the class-campaign schedule driven from the
//! benchmark's own code through the engine's public calls, with a span
//! around each call and a `SessionStats` delta around each run.
//!
//! The loop mirrors `class_campaign_with`: compile, fault plans, test
//! case, one shared prefix cache watching both phases' trigger PCs, and
//! per phase one pool of worker sessions running every (fault, input)
//! pair with the driver's run-seed formula. Its per-fault records must
//! equal those of the untraced pass for the same seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use swifi_campaign::engine::{RunRecord, RunStatus};
use swifi_campaign::pool::parallel_map_with;
use swifi_campaign::{FailureMode, ModeCounts, RunSession, SessionStats};
use swifi_core::locations::GeneratedFault;
use swifi_programs::input::TestInput;
use swifi_trace::event::{arg_str, arg_u64};
use swifi_trace::{TraceEvent, ENGINE_TID};

use crate::records::FaultRecord;
use crate::stats::{PhaseLoad, WorkerLoad};
use crate::workload::{prepare, run_seed, target, SetupTimes};

/// One (fault, input) run as the traced loop saw it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSample {
    /// Wall-clock of the `RunSession::run` call, in microseconds.
    pub dur_us: f64,
    /// Guest instructions the run executed.
    pub retired: u64,
    /// Classified `Hang` (the instruction budget ran out).
    pub hang: bool,
    /// The run captured at least one prefix snapshot.
    pub captured: bool,
    /// The run resumed from a prefix snapshot.
    pub forked: bool,
    /// The run paid a def-use-traced clean run.
    pub traced: bool,
    /// The planner answered the run without executing it (dormancy
    /// proof or collapse hit).
    pub pruned: bool,
}

impl RunSample {
    fn from_delta(dur_us: f64, mode: FailureMode, b: &SessionStats, a: &SessionStats) -> RunSample {
        RunSample {
            dur_us,
            retired: a.retired_instrs - b.retired_instrs,
            hang: mode == FailureMode::Hang,
            captured: a.prefix_snapshots_built > b.prefix_snapshots_built,
            forked: a.prefix_fork_hits > b.prefix_fork_hits,
            traced: a.prune_trace_runs > b.prune_trace_runs,
            pruned: a.prune_dormant_skips + a.prune_collapse_hits
                > b.prune_dormant_skips + b.prune_collapse_hits,
        }
    }

    /// The run's verdict, most specific first.
    pub fn verdict(&self) -> &'static str {
        if self.hang {
            "hang"
        } else if self.pruned {
            "pruned"
        } else if self.retired == 0 {
            "answered"
        } else if self.traced {
            "traced"
        } else if self.forked {
            "forked"
        } else {
            "executed"
        }
    }
}

/// One program's traced campaign.
#[derive(Debug)]
pub struct TracedProgram {
    /// Per-fault records, phase by phase in item order.
    pub records: Vec<FaultRecord>,
    /// Counters of every worker session, folded.
    pub stats: SessionStats,
    /// Every run, in no particular order.
    pub samples: Vec<RunSample>,
    /// Pool occupancy of both phases.
    pub phases: Vec<PhaseLoad>,
    /// Compile, fault-plan and test-case time.
    pub setup: SetupTimes,
    /// Summed `RunSession::new` time over every worker of both phases.
    pub boot_s: f64,
    /// Wall-clock of the whole campaign, set-up included.
    pub wall_s: f64,
    /// Spans and instants, in microseconds from the trace epoch.
    pub events: Vec<TraceEvent>,
}

/// Microseconds from `epoch` to `t`.
fn us(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_micros() as u64
}

/// One pool worker: its session, its trace lane and its load.
struct Worker {
    tid: u64,
    session: RunSession,
    events: Vec<TraceEvent>,
    samples: Vec<RunSample>,
    busy_s: f64,
    last_end: Instant,
    boot_s: f64,
}

impl Worker {
    fn run_fault(
        &mut self,
        fault: &GeneratedFault,
        inputs: &[TestInput],
        seed: u64,
        epoch: Instant,
    ) -> (swifi_core::locations::ErrorClass, ModeCounts, u64, u64) {
        let item_start = Instant::now();
        let mut counts = ModeCounts::default();
        let mut dormant = 0;
        for (j, input) in inputs.iter().enumerate() {
            let before = self.session.stats();
            let t = Instant::now();
            let (mode, fired) =
                self.session
                    .run(input, Some(&fault.spec), run_seed(seed, fault, j));
            let end = Instant::now();
            let after = self.session.stats();
            counts.add(mode);
            if !fired {
                dormant += 1;
            }
            let dur = end - t;
            let sample = RunSample::from_delta(dur.as_secs_f64() * 1e6, mode, &before, &after);
            let ts = us(epoch, t);
            self.events.push(TraceEvent::complete(
                "run",
                ts,
                dur.as_micros() as u64,
                self.tid,
                vec![
                    arg_str("verdict", sample.verdict()),
                    arg_u64("retired", sample.retired),
                ],
            ));
            for (hit, name) in [(sample.forked, "fork_hit"), (sample.traced, "trace_run")] {
                if hit {
                    self.events
                        .push(TraceEvent::instant(name, ts, self.tid, Vec::new()));
                }
            }
            self.samples.push(sample);
        }
        self.last_end = Instant::now();
        let item = self.last_end - item_start;
        self.busy_s += item.as_secs_f64();
        (fault.error, counts, dormant, item.as_micros() as u64)
    }
}

/// Drive one program's class campaign through the engine's public
/// calls, tracing every layer boundary. Worker lanes take their trace
/// ids from `lanes`.
pub fn traced_campaign(
    program: &str,
    inputs: usize,
    seed: u64,
    epoch: Instant,
    lanes: &AtomicU64,
) -> Result<TracedProgram, String> {
    let t_start = Instant::now();
    let target = target(program)?;
    let (prepared, setup) = prepare(&target, inputs, seed)?;
    let mut events = Vec::new();
    let mut ts = us(epoch, t_start);
    for (name, secs) in [
        ("phase:compile", setup.compile_s),
        ("phase:fault_plans", setup.fault_plans_s),
        ("phase:test_case", setup.test_case_s),
    ] {
        let dur = (secs * 1e6) as u64;
        events.push(TraceEvent::complete(
            name,
            ts,
            dur,
            ENGINE_TID,
            vec![arg_str("program", program)],
        ));
        ts += dur;
    }
    let opts = swifi_campaign::CampaignOptions::default();
    let prefix = Some(prepared.prefix_cache());

    let mut out = TracedProgram {
        records: Vec::new(),
        stats: SessionStats::default(),
        samples: Vec::new(),
        phases: Vec::new(),
        setup,
        boot_s: 0.0,
        wall_s: 0.0,
        events,
    };
    for (phase, faults) in prepared.phases() {
        let p0 = Instant::now();
        let (results, workers) = parallel_map_with(
            faults,
            || {
                let b0 = Instant::now();
                let session = prepared.boot_session(&target, &opts, &prefix);
                let booted = Instant::now();
                let tid = lanes.fetch_add(1, Ordering::Relaxed);
                Worker {
                    tid,
                    session,
                    events: vec![TraceEvent::complete(
                        "phase:session_boot",
                        us(epoch, b0),
                        (booted - b0).as_micros() as u64,
                        tid,
                        Vec::new(),
                    )],
                    samples: Vec::new(),
                    busy_s: 0.0,
                    last_end: booted,
                    boot_s: (booted - b0).as_secs_f64(),
                }
            },
            |w, fault| w.run_fault(fault, &prepared.inputs, seed, epoch),
        );
        let p1 = Instant::now();
        out.events.push(TraceEvent::complete(
            format!("phase:{phase}"),
            us(epoch, p0),
            (p1 - p0).as_micros() as u64,
            ENGINE_TID,
            vec![
                arg_str("program", program),
                arg_u64("items", faults.len() as u64),
            ],
        ));
        let mut load = PhaseLoad {
            wall_s: (p1 - p0).as_secs_f64(),
            workers: Vec::new(),
        };
        for w in workers {
            load.workers.push(WorkerLoad {
                busy_s: w.busy_s,
                last_end_s: w.last_end.saturating_duration_since(p0).as_secs_f64(),
            });
            out.stats.merge(&w.session.stats());
            out.boot_s += w.boot_s;
            out.samples.extend(w.samples);
            out.events.extend(w.events);
        }
        out.phases.push(load);
        for (i, (error, counts, dormant, micros)) in results.into_iter().enumerate() {
            out.records.push(RunRecord {
                phase: phase.to_string(),
                index: i as u64,
                elapsed_micros: micros,
                status: RunStatus::Ok((error, counts, dormant)),
            });
        }
    }
    let end = Instant::now();
    out.wall_s = (end - t_start).as_secs_f64();
    out.events.push(TraceEvent::complete(
        "campaign",
        us(epoch, t_start),
        (end - t_start).as_micros() as u64,
        ENGINE_TID,
        vec![
            arg_str("campaign", format!("section6:{program}")),
            arg_u64("runs", out.samples.len() as u64),
        ],
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_prefer_the_most_specific_tag() {
        let mut s = RunSample {
            retired: 10,
            ..RunSample::default()
        };
        assert_eq!(s.verdict(), "executed");
        s.forked = true;
        assert_eq!(s.verdict(), "forked");
        s.traced = true;
        assert_eq!(s.verdict(), "traced");
        s.retired = 0;
        assert_eq!(s.verdict(), "answered");
        s.pruned = true;
        assert_eq!(s.verdict(), "pruned");
        s.hang = true;
        assert_eq!(s.verdict(), "hang");
    }
}
