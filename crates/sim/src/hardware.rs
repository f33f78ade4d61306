//! Paper-style hardware-efficiency tables from the unified cost models.
//!
//! §5 of the paper reports its hardware story as small tables: for each
//! substrate (GPU, CPU, FPGA) and antenna configuration, what throughput
//! does a detector reach, and at what efficiency? The `hwtables` bench
//! binary reproduces that shape for the *scheduling stack*: it runs the
//! frame engine on each modelled fabric, measures the per-subcarrier
//! effort profile and the fabric audit
//! (`flexcore_parallel::FabricStats`-equivalent numbers), and hands the
//! per-cell [`HwMeasurement`]s to [`hardware_table`], which converts them
//! into modelled throughput on the actual hardware via
//! [`HeterogeneousFabric::ideal_throughput_bps`].
//!
//! The split keeps this module pure model — unit-testable against pinned
//! numbers with no detector in the loop — while the bench owns the real
//! detection runs and the bit-identity gate.

use crate::table::ResultTable;
use flexcore_hwmodel::{HeterogeneousFabric, PeCost, WorkUnit};

/// One measured sweep cell: a detector run at one antenna/modulation
/// configuration on one fabric, reduced to the numbers the hardware table
/// needs.
#[derive(Clone, Debug, PartialEq)]
pub struct HwMeasurement {
    /// Detector label (e.g. `"FlexCore-16"`, `"a-FlexCore(0.95)"`).
    pub detector: String,
    /// Transmit streams (4/8/12 for the paper's 4×4 / 8×8 / 12×12).
    pub nt: usize,
    /// Constellation size `|Q|`.
    pub q: usize,
    /// Mean path-extension units one received vector cost
    /// (`EngineStats::mean_effort()` — the fixed budget for FlexCore-K,
    /// the stopping-criterion activation for a-FlexCore).
    pub mean_effort: f64,
    /// Scheduler packing efficiency on the fabric
    /// (`FabricStats::packing_efficiency`).
    pub packing_efficiency: f64,
    /// Predicted-vs-measured makespan error
    /// (`FabricStats::makespan_error`).
    pub makespan_error: f64,
    /// Least-loaded PE's utilisation in the measured run.
    pub min_utilization: f64,
}

/// Modelled detection throughput of `m` on `fabric` under `cost`'s
/// pricing, in Mbit/s: the fabric's ideal throughput at `mean_effort`
/// units/vector, derated by the scheduler's realised packing efficiency.
///
/// ```
/// use flexcore_hwmodel::{EngineKind, FpgaModel, HeterogeneousFabric};
/// use flexcore_sim::hardware::{modelled_throughput_mbps, HwMeasurement};
/// let m = HwMeasurement {
///     detector: "FlexCore-32".into(),
///     nt: 12, q: 64,
///     mean_effort: 32.0,
///     packing_efficiency: 1.0,
///     makespan_error: 0.0,
///     min_utilization: 1.0,
/// };
/// let fpga = FpgaModel::new(EngineKind::FlexCore, 12, 64);
/// let fabric = HeterogeneousFabric::fpga_engines(32);
/// let mbps = modelled_throughput_mbps(&m, &fpga, &fabric);
/// // The paper's §5.3 formula: 72 bits · 312.5 MHz · 32 PEs / 32 paths.
/// assert!((mbps - 72.0 * 312.5 * 32.0 / 32.0).abs() < 1e-6);
/// ```
pub fn modelled_throughput_mbps(
    m: &HwMeasurement,
    cost: &impl PeCost,
    fabric: &HeterogeneousFabric,
) -> f64 {
    let work = WorkUnit::new(m.nt, m.q);
    fabric.ideal_throughput_bps(cost, &work, m.mean_effort) * m.packing_efficiency / 1e6
}

/// Builds one paper-style table for a `(fabric, cost model)` pair from
/// the bench's measured sweep cells: one row per (detector, config) with
/// the effort, packing, utilisation spread, prediction error, and the
/// modelled throughput on that hardware.
pub fn hardware_table(
    cost: &impl PeCost,
    fabric: &HeterogeneousFabric,
    measurements: &[HwMeasurement],
) -> ResultTable {
    let mut table = ResultTable::new(
        format!(
            "Hardware efficiency — {} fabric ({} PEs, Σspeed {:.0}, {} cost model)",
            fabric.name,
            fabric.n_pes(),
            fabric.total_speed(),
            cost.label()
        ),
        &[
            "detector",
            "config",
            "effort/vec",
            "pack%",
            "min util%",
            "err%",
            "Mb/s",
        ],
    );
    for m in measurements {
        table.push_row(vec![
            m.detector.clone(),
            format!("{}x{} {}-QAM", m.nt, m.nt, m.q),
            format!("{:.2}", m.mean_effort),
            format!("{:.1}", m.packing_efficiency * 100.0),
            format!("{:.1}", m.min_utilization * 100.0),
            format!("{:.1}", m.makespan_error * 100.0),
            format!("{:.1}", modelled_throughput_mbps(m, cost, fabric)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_hwmodel::{CpuModel, EngineKind, FpgaModel, GpuModel};

    fn meas(detector: &str, nt: usize, effort: f64, pack: f64) -> HwMeasurement {
        HwMeasurement {
            detector: detector.into(),
            nt,
            q: 16,
            mean_effort: effort,
            packing_efficiency: pack,
            makespan_error: 0.05,
            min_utilization: 0.9,
        }
    }

    #[test]
    fn fpga_row_reproduces_paper_throughput_formula() {
        // 12×12 64-QAM, 32 engines, 128 paths: §5.3 reports 3.27 Gb/s.
        let m = HwMeasurement {
            detector: "FlexCore-128".into(),
            nt: 12,
            q: 64,
            mean_effort: 128.0,
            packing_efficiency: 1.0,
            makespan_error: 0.0,
            min_utilization: 1.0,
        };
        let fpga = FpgaModel::new(EngineKind::FlexCore, 12, 64);
        let fabric = HeterogeneousFabric::fpga_engines(32);
        let mbps = modelled_throughput_mbps(&m, &fpga, &fabric);
        let want = fpga.throughput_bps(32, 128) / 1e6;
        assert!((mbps - want).abs() < 1e-6, "{mbps} vs {want}");
    }

    #[test]
    fn adaptive_effort_saving_scales_throughput() {
        // Halving the mean effort doubles modelled throughput — the whole
        // point of a-FlexCore on any fabric.
        let cpu = CpuModel::fx8120();
        let fabric = HeterogeneousFabric::lte_smallcell();
        let fixed = modelled_throughput_mbps(&meas("FlexCore-16", 8, 16.0, 1.0), &cpu, &fabric);
        let adaptive = modelled_throughput_mbps(&meas("a-FlexCore", 8, 8.0, 1.0), &cpu, &fabric);
        assert!((adaptive / fixed - 2.0).abs() < 1e-12);
    }

    #[test]
    fn poor_packing_derates_throughput() {
        let gpu = GpuModel::gtx970();
        let fabric = HeterogeneousFabric::gpu_sms(&gpu);
        let good = modelled_throughput_mbps(&meas("FlexCore-16", 4, 16.0, 1.0), &gpu, &fabric);
        let bad = modelled_throughput_mbps(&meas("FlexCore-16", 4, 16.0, 0.5), &gpu, &fabric);
        assert!((bad / good - 0.5).abs() < 1e-12);
    }

    #[test]
    fn table_rows_mirror_measurements() {
        let cpu = CpuModel::fx8120();
        let fabric = HeterogeneousFabric::lte_smallcell();
        let ms = vec![
            meas("FlexCore-16", 4, 16.0, 0.95),
            meas("a-FlexCore(0.95)", 4, 3.2, 0.88),
        ];
        let t = hardware_table(&cpu, &fabric, &ms);
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(0, "detector"), Some("FlexCore-16"));
        assert_eq!(t.cell(1, "config"), Some("4x4 16-QAM"));
        assert_eq!(t.cell(0, "effort/vec"), Some("16.00"));
        assert_eq!(t.cell(1, "pack%"), Some("88.0"));
        assert!(t.title.contains("lte"));
        assert!(t.title.contains("8 PEs"));
        // The adaptive row's throughput beats the fixed row's.
        let thr = |r: usize| t.cell(r, "Mb/s").unwrap().parse::<f64>().unwrap();
        assert!(thr(1) > thr(0));
    }
}
