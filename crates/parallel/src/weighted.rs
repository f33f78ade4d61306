//! Scheduling onto *non-uniform* processing elements.
//!
//! [`lpt_order`](crate::lpt_order) assumes identical PEs: handing the
//! sorted list to greedy workers is then a 4/3-approximation. Real fabrics
//! are not identical — an FPGA pairs DSP slices with soft logic, a
//! base-station SoC pairs DSP cores with ARM cores — so this module adds
//! the *uniform machines* (`Q||C_max`) variant: every PE carries a **speed
//! factor**, and LPT assigns each task to the PE that would *finish it
//! earliest* given current loads ([`lpt_assign_weighted`]).
//!
//! [`WeightedPool`] is the execution substrate: a *simulated* heterogeneous
//! pool in the same spirit as
//! [`SequentialPool`](crate::SequentialPool) — tasks run on the calling
//! thread (results therefore bit-identical to any other pool), while
//! every priced batch ([`PePool::run_priced`]) records its placement,
//! per-PE finish times and per-task wall clocks in a [`FabricStats`]
//! audit: predicted-vs-measured makespan and per-PE utilisation. Speed
//! factors typically come from
//! `flexcore_hwmodel::HeterogeneousFabric::speed_factors()`.

use crate::pool::{assert_priced, PePool, WorkStats};
use parking_lot::Mutex;
use std::time::Instant;

/// Placement of one task batch onto non-uniform PEs, plus the modelled
/// finish times. Produced by [`lpt_assign_weighted`]; consumed by
/// [`WeightedPool`]'s priced runs.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedSchedule {
    /// Task indices in the order the scheduler visited them (LPT:
    /// most expensive first, ties in submission order).
    pub order: Vec<usize>,
    /// `assignment[task] = pe` — which PE each task landed on.
    pub assignment: Vec<usize>,
    /// Per-PE finish time in *work units per unit speed*
    /// (`Σ assigned costs / speed`).
    pub finish_units: Vec<f64>,
    /// `max(finish_units)` — the modelled makespan of the batch.
    pub makespan_units: f64,
}

impl WeightedSchedule {
    /// Modelled per-PE utilisation: each PE's busy time over the makespan
    /// (1.0 for the critical PE; 0.0 for an idle one). Empty batches
    /// report all-zero.
    ///
    /// ```
    /// use flexcore_parallel::lpt_assign_weighted;
    /// let s = lpt_assign_weighted(&[4, 4], &[1.0, 1.0, 1.0]);
    /// let util = s.utilization();
    /// assert_eq!(util, vec![1.0, 1.0, 0.0]); // two tasks, three PEs
    /// ```
    pub fn utilization(&self) -> Vec<f64> {
        if self.makespan_units <= 0.0 {
            return vec![0.0; self.finish_units.len()];
        }
        self.finish_units
            .iter()
            .map(|&f| f / self.makespan_units)
            .collect()
    }
}

/// Longest-processing-time-first list scheduling for **uniform machines**:
/// tasks are visited most-expensive-first ([`lpt_order`](crate::lpt_order))
/// and each goes to the PE that would finish it earliest —
/// `argmin_pe (load_pe + cost) / speed_pe`, ties to the lowest PE index.
///
/// With all speeds equal this degenerates to the identical-machines rule
/// of [`lpt_makespan`](crate::lpt_makespan) (the unit tests pin that), and
/// like it this is *placement only*: executing tasks in any order with any
/// placement yields bit-identical results, only the modelled latency
/// changes.
///
/// ```
/// use flexcore_parallel::lpt_assign_weighted;
/// // One PE twice as fast as the other: the heavy task goes fast.
/// let s = lpt_assign_weighted(&[8, 2], &[1.0, 2.0]);
/// assert_eq!(s.assignment, vec![1, 0]);
/// assert_eq!(s.makespan_units, 4.0); // max(2/1, 8/2)
/// ```
///
/// # Panics
/// Panics if `speeds` is empty or contains a non-positive / non-finite
/// factor.
pub fn lpt_assign_weighted(costs: &[u64], speeds: &[f64]) -> WeightedSchedule {
    assert!(!speeds.is_empty(), "lpt_assign_weighted: zero PEs");
    for &s in speeds {
        assert!(
            s.is_finite() && s > 0.0,
            "lpt_assign_weighted: bad speed {s}"
        );
    }
    let order = crate::pool::lpt_order(costs);
    let mut loads = vec![0u64; speeds.len()];
    let mut assignment = vec![0usize; costs.len()];
    for &task in &order {
        let cost = costs[task];
        let mut best_pe = 0usize;
        let mut best_finish = f64::INFINITY;
        for (pe, (&load, &speed)) in loads.iter().zip(speeds).enumerate() {
            let finish = (load + cost) as f64 / speed;
            if finish < best_finish {
                best_finish = finish;
                best_pe = pe;
            }
        }
        assignment[task] = best_pe;
        loads[best_pe] += cost;
    }
    let finish_units: Vec<f64> = loads
        .iter()
        .zip(speeds)
        .map(|(&l, &s)| l as f64 / s)
        .collect();
    let makespan_units = finish_units.iter().copied().fold(0.0, f64::max);
    WeightedSchedule {
        order,
        assignment,
        finish_units,
        makespan_units,
    }
}

/// Modelled makespan of weighted LPT scheduling — the uniform-machines
/// analogue of [`lpt_makespan`](crate::lpt_makespan), in work units per
/// unit speed.
///
/// ```
/// use flexcore_parallel::{lpt_makespan, lpt_makespan_weighted};
/// let costs = [7, 6, 5, 4, 3];
/// // Equal speeds reproduce the identical-machines makespan exactly.
/// assert_eq!(lpt_makespan_weighted(&costs, &[1.0, 1.0]), lpt_makespan(&costs, 2) as f64);
/// // A faster pair of PEs shrinks it.
/// assert!(lpt_makespan_weighted(&costs, &[2.0, 2.0]) < lpt_makespan(&costs, 2) as f64);
/// ```
pub fn lpt_makespan_weighted(costs: &[u64], speeds: &[f64]) -> f64 {
    lpt_assign_weighted(costs, speeds).makespan_units
}

/// Audit record of one priced [`WeightedPool`] batch: how well the
/// predicted per-task costs matched the measured per-task work, and how
/// evenly the fabric was used.
///
/// "Measured" times book each task's wall-clock seconds to its assigned
/// PE divided by that PE's speed factor — the modelled-parallel time of
/// the batch given the work each task *actually* turned out to be, which
/// is exactly what a predicted makespan must be compared against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FabricStats {
    /// PEs in the fabric the batch was placed onto.
    pub n_pes: usize,
    /// Total predicted work: `Σ costs`, in the caller's cost units (the
    /// frame engine prices batches in path-extension units).
    pub total_units: u64,
    /// Predicted makespan of the weighted-LPT placement, in work units
    /// per unit speed.
    pub predicted_makespan_units: f64,
    /// `total_units / (Σ speeds · predicted_makespan_units)` — 1.0 when
    /// the tasks pack the fabric perfectly, less when one expensive task
    /// strands the rest of the pool.
    pub packing_efficiency: f64,
    /// Predicted makespan in measured-host seconds: the unit prediction
    /// calibrated by the batch's own mean cost per unit
    /// (`predicted_makespan_units × Σ task seconds / total_units`), i.e.
    /// the prediction with the host's absolute speed divided out. Compare
    /// against [`FabricStats::measured_makespan_s`].
    pub predicted_makespan_s: f64,
    /// Measured makespan: `max_pe Σ (task seconds / speed)` over the
    /// tasks each PE was assigned.
    pub measured_makespan_s: f64,
    /// `|predicted − measured| / measured` over the two host-second
    /// makespans — how much the relative cost model (cost proportional
    /// to real work) misplaced the critical path. 0 when nothing ran.
    pub makespan_error: f64,
    /// Per-PE utilisation of the measured run: busy time over makespan,
    /// 1.0 for the critical PE.
    pub per_pe_utilization: Vec<f64>,
}

/// A *simulated* pool of non-uniform processing elements.
///
/// Like [`SequentialPool`](crate::SequentialPool), tasks execute in order
/// on the calling thread — results are bit-identical to every other
/// substrate, which is what keeps heterogeneous scheduling auditable — but
/// the pool carries per-PE **speed factors**, and a priced batch
/// ([`PePool::run_priced`]) is placed with [`lpt_assign_weighted`] and
/// timed task by task. The resulting [`FabricStats`] audit of the most
/// recent priced batch is read through [`WeightedPool::last_audit`].
///
/// ```
/// use flexcore_parallel::{PePool, WeightedPool};
/// let pool = WeightedPool::new(vec![4.0, 1.0, 1.0]);
/// assert_eq!(pool.n_pes(), 3);
/// let out = pool.run((0..5).map(|i| move || i * 2).collect::<Vec<_>>());
/// assert_eq!(out, vec![0, 2, 4, 6, 8]);
/// assert!(pool.last_audit().is_none()); // a plain run is not audited
/// let out = pool.run_priced((0..3).map(|i| move || i).collect::<Vec<_>>(), &[8, 2, 2]);
/// assert_eq!(out, vec![0, 1, 2]);
/// assert_eq!(pool.last_audit().unwrap().total_units, 12);
/// ```
#[derive(Debug)]
pub struct WeightedPool {
    speeds: Vec<f64>,
    stats: WorkStats,
    audit: Mutex<Option<FabricStats>>,
}

impl WeightedPool {
    /// A pool with one PE per speed factor.
    ///
    /// # Panics
    /// Panics if `speeds` is empty or contains a non-positive /
    /// non-finite factor.
    ///
    /// ```
    /// use flexcore_parallel::WeightedPool;
    /// let pool = WeightedPool::new(vec![4.0, 4.0, 1.0]);
    /// assert_eq!(pool.speeds(), &[4.0, 4.0, 1.0]);
    /// ```
    pub fn new(speeds: Vec<f64>) -> Self {
        assert!(!speeds.is_empty(), "WeightedPool: zero PEs");
        for &s in &speeds {
            assert!(s.is_finite() && s > 0.0, "WeightedPool: bad speed {s}");
        }
        WeightedPool {
            speeds,
            stats: WorkStats::default(),
            audit: Mutex::new(None),
        }
    }

    /// A pool of `n` identical reference-speed PEs — behaviourally a
    /// [`SequentialPool`](crate::SequentialPool) that also audits its
    /// priced batches.
    ///
    /// ```
    /// use flexcore_parallel::{PePool, WeightedPool};
    /// assert_eq!(WeightedPool::uniform(6).n_pes(), 6);
    /// ```
    pub fn uniform(n: usize) -> Self {
        Self::new(vec![1.0; n])
    }

    /// The per-PE speed factors.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The audit of the most recent [`PePool::run_priced`] batch, or
    /// `None` before the first one. A plain [`PePool::run`] leaves it
    /// untouched.
    pub fn last_audit(&self) -> Option<FabricStats> {
        self.audit.lock().clone()
    }
}

impl PePool for WeightedPool {
    fn n_pes(&self) -> usize {
        self.speeds.len()
    }

    fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.stats.record(tasks.len(), self.speeds.len());
        tasks.into_iter().map(|t| t()).collect()
    }

    /// Runs every task in task order on the calling thread, timing each,
    /// and books the batch onto the fabric with [`lpt_assign_weighted`]
    /// over `costs`. The [`FabricStats`] audit of the batch replaces
    /// [`WeightedPool::last_audit`].
    ///
    /// Placement never touches results — it only decides which modelled
    /// PE each task's measured seconds are booked to.
    fn run_priced<T, F>(&self, tasks: Vec<F>, costs: &[u64]) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        assert_priced(tasks.len(), costs.len());
        self.stats.record(tasks.len(), self.speeds.len());
        let schedule = lpt_assign_weighted(costs, &self.speeds);
        let mut results = Vec::with_capacity(tasks.len());
        let mut task_seconds = Vec::with_capacity(tasks.len());
        for task in tasks {
            let t0 = Instant::now();
            results.push(task());
            task_seconds.push(t0.elapsed().as_secs_f64());
        }
        let mut busy_s = vec![0.0f64; self.speeds.len()];
        for (&pe, &seconds) in schedule.assignment.iter().zip(&task_seconds) {
            busy_s[pe] += seconds / self.speeds[pe];
        }
        let measured_makespan_s = busy_s.iter().copied().fold(0.0, f64::max);
        let total_units: u64 = costs.iter().sum();
        let makespan_units = schedule.makespan_units;
        let packing_efficiency = if makespan_units > 0.0 {
            total_units as f64 / (self.speeds.iter().sum::<f64>() * makespan_units)
        } else {
            1.0
        };
        let unit_cost_s = if total_units > 0 {
            task_seconds.iter().sum::<f64>() / total_units as f64
        } else {
            0.0
        };
        let predicted_makespan_s = makespan_units * unit_cost_s;
        let makespan_error = if measured_makespan_s > 0.0 {
            (predicted_makespan_s - measured_makespan_s).abs() / measured_makespan_s
        } else {
            0.0
        };
        let per_pe_utilization = if measured_makespan_s > 0.0 {
            busy_s.iter().map(|&b| b / measured_makespan_s).collect()
        } else {
            busy_s // all zero: nothing took measurable time
        };
        *self.audit.lock() = Some(FabricStats {
            n_pes: self.speeds.len(),
            total_units,
            predicted_makespan_units: makespan_units,
            packing_efficiency,
            predicted_makespan_s,
            measured_makespan_s,
            makespan_error,
            per_pe_utilization,
        });
        results
    }

    fn stats(&self) -> &WorkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{lpt_makespan, SequentialPool};

    #[test]
    fn uniform_speeds_reduce_to_identical_machines_lpt() {
        let cases: [&[u64]; 4] = [
            &[7, 6, 5, 4, 3],
            &[100, 1, 1, 1],
            &[5, 5, 5, 5],
            &[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5],
        ];
        for costs in cases {
            for m in 1..=5usize {
                assert_eq!(
                    lpt_makespan_weighted(costs, &vec![1.0; m]),
                    lpt_makespan(costs, m) as f64,
                    "costs {costs:?}, m {m}"
                );
            }
        }
    }

    #[test]
    fn faster_pe_attracts_the_long_task() {
        // 2 fast + 6 slow (the LTE small-cell shape): the heaviest tasks
        // must land on the fast PEs.
        let speeds = [4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let costs = [40u64, 40, 4, 4, 4, 4, 4, 4];
        let s = lpt_assign_weighted(&costs, &speeds);
        assert_eq!(s.assignment[0], 0);
        assert_eq!(s.assignment[1], 1);
        // Finish times stay balanced: makespan 10 (40/4), everyone busy.
        assert_eq!(s.makespan_units, 10.0);
        for (pe, &f) in s.finish_units.iter().enumerate() {
            assert!(f > 0.0, "PE {pe} idle: {:?}", s.finish_units);
        }
    }

    #[test]
    fn identical_machines_would_strand_the_long_task() {
        // Same workload on 8 *equal* PEs of matched total speed (14/8 each)
        // cannot beat the heterogeneous placement: the 40-unit task alone
        // pins the makespan at 40/(14/8) ≈ 22.9 > 10.
        let costs = [40u64, 40, 4, 4, 4, 4, 4, 4];
        let hetero = lpt_makespan_weighted(&costs, &[4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let uniform = lpt_makespan_weighted(&costs, &[14.0 / 8.0; 8]);
        assert!(
            hetero < uniform,
            "heterogeneous {hetero} should beat speed-matched uniform {uniform}"
        );
    }

    #[test]
    fn weighted_schedule_is_a_partition() {
        let costs = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let speeds = [2.0, 1.0, 0.5];
        let s = lpt_assign_weighted(&costs, &speeds);
        assert_eq!(s.assignment.len(), costs.len());
        assert!(s.assignment.iter().all(|&pe| pe < speeds.len()));
        // Loads reconstruct the finish times exactly.
        let mut loads = vec![0u64; speeds.len()];
        for (task, &pe) in s.assignment.iter().enumerate() {
            loads[pe] += costs[task];
        }
        for (pe, (&load, &speed)) in loads.iter().zip(&speeds).enumerate() {
            assert_eq!(s.finish_units[pe], load as f64 / speed);
        }
        // Order is the LPT permutation.
        let mut sorted = s.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..costs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn makespan_lower_bounds_hold() {
        let costs = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let speeds = [3.0, 2.0, 1.0, 1.0];
        let span = lpt_makespan_weighted(&costs, &speeds);
        let total: u64 = costs.iter().sum();
        let total_speed: f64 = speeds.iter().sum();
        assert!(span >= total as f64 / total_speed, "area bound");
        // The longest task on the fastest PE bounds from below too.
        assert!(span >= 9.0 / 3.0, "critical-task bound");
    }

    #[test]
    fn empty_batch_and_degenerate_shapes() {
        let s = lpt_assign_weighted(&[], &[1.0, 2.0]);
        assert_eq!(s.makespan_units, 0.0);
        assert_eq!(s.utilization(), vec![0.0, 0.0]);
        let one = lpt_assign_weighted(&[5], &[0.5]);
        assert_eq!(one.makespan_units, 10.0);
        assert_eq!(one.utilization(), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "zero PEs")]
    fn weighted_rejects_zero_pes() {
        let _ = lpt_assign_weighted(&[1], &[]);
    }

    #[test]
    #[should_panic(expected = "bad speed")]
    fn weighted_rejects_bad_speed() {
        let _ = lpt_assign_weighted(&[1], &[1.0, -2.0]);
    }

    fn square_tasks(n: usize) -> Vec<impl FnOnce() -> usize + Send> {
        (0..n).map(|i| move || i * i).collect()
    }

    #[test]
    fn weighted_pool_matches_sequential_results() {
        let seq = SequentialPool::new(3);
        let weighted = WeightedPool::new(vec![4.0, 1.0, 1.0]);
        assert_eq!(weighted.run(square_tasks(23)), seq.run(square_tasks(23)));
        assert_eq!(weighted.stats().tasks(), 23);
        assert_eq!(weighted.stats().batches(), 1);
    }

    #[test]
    fn audit_of_a_perfectly_predicted_batch() {
        // Tasks whose wall time is (approximately) proportional to their
        // cost: spin loops scaled by the declared units.
        let pool = WeightedPool::new(vec![2.0, 1.0]);
        let costs: Vec<u64> = vec![400, 200, 200, 100, 100];
        let tasks: Vec<_> = costs
            .iter()
            .map(|&c| {
                move || {
                    let mut acc = 0u64;
                    for i in 0..c * 40_000 {
                        acc = acc.wrapping_mul(31).wrapping_add(i);
                    }
                    acc
                }
            })
            .collect();
        pool.run_priced(tasks, &costs);
        let audit = pool.last_audit().expect("priced batch audited");
        assert_eq!(audit.n_pes, 2);
        assert_eq!(audit.total_units, 1000);
        assert!(audit.predicted_makespan_units > 0.0);
        assert!(audit.packing_efficiency > 0.5 && audit.packing_efficiency <= 1.0);
        assert!(
            audit.makespan_error < 0.25,
            "spin-loop work should be predictable: error {}",
            audit.makespan_error
        );
        assert_eq!(audit.per_pe_utilization.len(), 2);
        assert!(audit
            .per_pe_utilization
            .iter()
            .all(|&u| (0.0..=1.0 + 1e-12).contains(&u)));
        assert!(audit
            .per_pe_utilization
            .iter()
            .any(|&u| (u - 1.0).abs() < 1e-9));
    }

    #[test]
    fn audit_of_an_empty_batch_reports_zeroes() {
        let pool = WeightedPool::uniform(3);
        let out = pool.run_priced(Vec::<fn() -> u8>::new(), &[]);
        assert!(out.is_empty());
        let audit = pool.last_audit().expect("empty batch audited");
        assert_eq!(audit.total_units, 0);
        assert_eq!(audit.measured_makespan_s, 0.0);
        assert_eq!(audit.makespan_error, 0.0);
        assert_eq!(audit.packing_efficiency, 1.0);
        assert_eq!(audit.per_pe_utilization, vec![0.0; 3]);
    }
}
