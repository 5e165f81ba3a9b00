//! Summary arithmetic shared by the passes: percentiles with their sample
//! counts, and worker-pool occupancy.

/// One percentile of a sample set, with the counts that say how far it
/// can be trusted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value (0 for an empty set).
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples ranked above the percentile. A tail percentile is only
    /// worth citing with at least ten samples beyond it.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0–100] of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// What one pool worker did during one phase, in seconds from the
/// phase's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerLoad {
    /// Summed wall-clock of the items this worker ran.
    pub busy_s: f64,
    /// When this worker finished its last item (its boot, if it ran none).
    pub last_end_s: f64,
}

/// One pool phase: its wall-clock and every worker's load.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseLoad {
    /// Phase wall-clock, from the pool call to its return.
    pub wall_s: f64,
    /// One entry per worker the pool spawned.
    pub workers: Vec<WorkerLoad>,
}

/// Summed item time over (workers × phase wall), across all phases.
pub fn busy_frac(phases: &[PhaseLoad]) -> f64 {
    let busy: f64 = phases
        .iter()
        .flat_map(|p| &p.workers)
        .map(|w| w.busy_s)
        .sum();
    let capacity: f64 = phases
        .iter()
        .map(|p| p.wall_s * p.workers.len() as f64)
        .sum();
    ratio(busy, capacity)
}

/// Seconds each phase ran on after its first worker went idle, summed:
/// the straggler tail the pool's static item order leaves.
pub fn tail_s(phases: &[PhaseLoad]) -> f64 {
    phases
        .iter()
        .map(|p| {
            let first_idle = p
                .workers
                .iter()
                .map(|w| w.last_end_s)
                .fold(f64::INFINITY, f64::min);
            if first_idle.is_finite() {
                (p.wall_s - first_idle).max(0.0)
            } else {
                0.0
            }
        })
        .sum()
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_value_and_sample_counts() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p50 = percentile(&samples, 50.0);
        assert_eq!(p50.value, 100.0);
        assert_eq!((p50.samples, p50.beyond), (200, 100));
        let p99 = percentile(&samples, 99.0);
        assert_eq!(p99.value, 198.0);
        // Two samples above p99: too few to cite it as a tail.
        assert_eq!(p99.beyond, 2);
    }

    #[test]
    fn percentile_of_tiny_and_empty_sets() {
        assert_eq!(percentile(&[], 50.0).samples, 0);
        let one = percentile(&[7.0], 99.0);
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
        let p = percentile(&[3.0, 1.0, 2.0], 50.0);
        assert_eq!((p.value, p.beyond), (2.0, 1));
    }

    #[test]
    fn busy_frac_and_tail_over_two_phases() {
        let phases = vec![
            PhaseLoad {
                wall_s: 10.0,
                workers: vec![
                    WorkerLoad {
                        busy_s: 10.0,
                        last_end_s: 10.0,
                    },
                    WorkerLoad {
                        busy_s: 6.0,
                        last_end_s: 6.0,
                    },
                ],
            },
            PhaseLoad {
                wall_s: 2.0,
                workers: vec![
                    WorkerLoad {
                        busy_s: 2.0,
                        last_end_s: 2.0,
                    },
                    WorkerLoad {
                        busy_s: 0.0,
                        last_end_s: 0.5,
                    },
                ],
            },
        ];
        // (10 + 6 + 2 + 0) / (2×10 + 2×2)
        assert!((busy_frac(&phases) - 18.0 / 24.0).abs() < 1e-12);
        // Phase 1 idles a worker for 4 s, phase 2 for 1.5 s.
        assert!((tail_s(&phases) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn pool_arithmetic_of_nothing_is_zero() {
        assert_eq!(busy_frac(&[]), 0.0);
        assert_eq!(tail_s(&[]), 0.0);
        let empty = PhaseLoad {
            wall_s: 1.0,
            workers: vec![],
        };
        assert_eq!(tail_s(std::slice::from_ref(&empty)), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
