//! Per-fault records and the correctness checks built on them.
//!
//! A class campaign's unit of work is one fault run against the whole
//! test case; its record is the fault's error class, mode counts and
//! dormant count. Every pass compares its records with those of the
//! all-layers-off configuration for the same seed, and its report with
//! that configuration's report once the engine-counter lines are gone.

use std::collections::BTreeMap;
use std::path::Path;

use swifi_campaign::engine::{RunRecord, RunStatus};
use swifi_campaign::ModeCounts;
use swifi_core::locations::ErrorClass;

/// What one fault item of a class campaign produces.
pub type FaultResult = (ErrorClass, ModeCounts, u64);

/// One fault item's record (the class campaign's checkpoint line).
pub type FaultRecord = RunRecord<FaultResult>;

/// Report lines that carry wall-clock or engine counters: they differ
/// between configurations and between runs, so report equality ignores
/// them.
pub const VOLATILE_PREFIXES: &[&str] = &[
    "throughput:",
    "icache:",
    "blocks:",
    "prefix-fork:",
    "prune:",
    "phases:",
];

/// `report` without its wall-clock and engine-counter lines.
pub fn strip_report(report: &str) -> String {
    report
        .lines()
        .filter(|l| !VOLATILE_PREFIXES.iter().any(|p| l.starts_with(p)))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Read the records of a class-campaign checkpoint (header line skipped).
pub fn read_checkpoint(path: &Path) -> Result<Vec<FaultRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint `{}`: {e}", path.display()))?;
    text.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde_json::from_str::<FaultRecord>(l)
                .map_err(|e| format!("bad record in `{}`: {e}", path.display()))
        })
        .collect()
}

/// Runs answered by the `Ok` records.
pub fn runs_of(records: &[FaultRecord]) -> u64 {
    records
        .iter()
        .map(|r| match &r.status {
            RunStatus::Ok((_, counts, _)) => counts.total(),
            RunStatus::Abnormal { .. } => 0,
        })
        .sum()
}

/// Outcome of comparing a pass's records with the reference records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Fault items compared (reference items plus unexpected extras).
    pub items: u64,
    /// Items whose record is missing, differs, or is `Abnormal`.
    pub failed: u64,
    /// Of those, items that ended `Abnormal` in either configuration.
    pub abnormal: u64,
}

impl Tally {
    /// Fold another comparison in.
    pub fn add(&mut self, other: Tally) {
        self.items += other.items;
        self.failed += other.failed;
        self.abnormal += other.abnormal;
    }
}

/// Compare `got` with `reference`, keyed by (phase, index). Completion
/// order and elapsed time do not matter; the status must be `Ok` and
/// equal on both sides.
pub fn compare(reference: &[FaultRecord], got: &[FaultRecord]) -> Tally {
    let mut pending: BTreeMap<(&str, u64), &RunStatus<FaultResult>> = got
        .iter()
        .map(|r| ((r.phase.as_str(), r.index), &r.status))
        .collect();
    let mut tally = Tally::default();
    for r in reference {
        tally.items += 1;
        let theirs = pending.remove(&(r.phase.as_str(), r.index));
        let abnormal = matches!(r.status, RunStatus::Abnormal { .. })
            || matches!(theirs, Some(RunStatus::Abnormal { .. }));
        if abnormal {
            tally.abnormal += 1;
        }
        if abnormal || theirs != Some(&r.status) {
            tally.failed += 1;
        }
    }
    // Items the reference does not have are failures too.
    tally.items += pending.len() as u64;
    tally.failed += pending.len() as u64;
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use swifi_odc::AssignErrorType;

    fn record(phase: &str, index: u64, correct: u64, dormant: u64) -> FaultRecord {
        RunRecord {
            phase: phase.to_string(),
            index,
            elapsed_micros: 100 + index,
            status: RunStatus::Ok((
                ErrorClass::Assign(AssignErrorType::NoAssign),
                ModeCounts {
                    correct,
                    incorrect: 1,
                    hang: 0,
                    crash: 0,
                },
                dormant,
            )),
        }
    }

    fn reference() -> Vec<FaultRecord> {
        vec![
            record("assign", 0, 5, 0),
            record("assign", 1, 3, 1),
            record("check", 0, 2, 2),
        ]
    }

    #[test]
    fn identical_records_in_any_order_pass() {
        let mut got = reference();
        got.reverse();
        got[0].elapsed_micros = 9; // wall-clock never counts
        let t = compare(&reference(), &got);
        assert_eq!(
            t,
            Tally {
                items: 3,
                failed: 0,
                abnormal: 0
            }
        );
    }

    #[test]
    fn a_corrupted_record_counts_once() {
        let mut got = reference();
        got[1] = record("assign", 1, 3, 0); // dormant count differs
        let t = compare(&reference(), &got);
        assert_eq!((t.items, t.failed, t.abnormal), (3, 1, 0));
    }

    #[test]
    fn missing_extra_and_abnormal_items_fail() {
        let mut got = reference();
        got.remove(2);
        got.push(record("check", 7, 1, 0));
        got[0].status = RunStatus::Abnormal {
            message: "boom".to_string(),
            detail: "fault 0".to_string(),
        };
        let t = compare(&reference(), &got);
        // assign#0 abnormal, check#0 missing, check#7 unexpected.
        assert_eq!((t.items, t.failed, t.abnormal), (4, 3, 1));
    }

    #[test]
    fn strip_report_drops_exactly_the_volatile_lines() {
        let report = "\
| Fault class | Correct |
| assignment | 10 |
total runs: 20, dormant: 1
throughput: 9300 runs in 0.0s (523825616.8 runs/s, 0.0 Minstr/s), 9300 fired / 0 dormant
icache: 1 lines built
blocks: 2 built
prefix-fork: 3 snapshots
prune: 4 trace runs
phases: assign 20 items in 2.1s
abnormal: assign#3 — boom (fault 3)
";
        assert_eq!(
            strip_report(report),
            "| Fault class | Correct |\n| assignment | 10 |\ntotal runs: 20, dormant: 1\n\
             abnormal: assign#3 — boom (fault 3)\n"
        );
    }
}
