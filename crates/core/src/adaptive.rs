//! a-FlexCore: channel-adaptive processing-element activation (§5.1).
//!
//! Fig. 10 introduces an adjustable FlexCore that, out of `N_PE` *available*
//! processing elements, activates only as many as needed for the selected
//! paths' cumulative probability `Σ Pc` to reach a target (0.95 in the
//! paper). In a well-conditioned channel (few users on many AP antennas)
//! the SIC path alone carries almost all the probability mass and
//! a-FlexCore collapses to ~1 active PE — linear-detection complexity —
//! while in a crowded channel it spends the full budget.

use crate::detector::{FlexCoreConfig, FlexCoreDetector};
use flexcore_detect::common::Detector;
use flexcore_modulation::Constellation;
use flexcore_numeric::{CMat, Cx};
use std::sync::atomic::{AtomicU64, Ordering};

/// Adaptive FlexCore: FlexCore plus the stopping criterion, with
/// bookkeeping of how many PEs each channel actually activated.
///
/// Activation bookkeeping is O(1) — a running sum and count, not a
/// history vector — so a long-running engine can prepare millions of
/// channels without the detector growing. A [`Clone`] starts its own
/// bookkeeping from zero: the frame engine stamps one clone per
/// subcarrier, and each clone's [`AdaptiveFlexCore::mean_active_pes`]
/// must describe *its* channels, not drag along the template's.
#[derive(Debug)]
pub struct AdaptiveFlexCore {
    inner: FlexCoreDetector,
    /// Σ active-PE counts over every `prepare` call since the last reset.
    activation_sum: u64,
    /// Number of `prepare` calls since the last reset.
    activation_count: u64,
    /// `detect_batch_refs` invocations — the engine's scratch-reuse path.
    batch_calls: AtomicU64,
    /// Single-vector `detect` invocations — the allocating fallback.
    vector_calls: AtomicU64,
}

impl Clone for AdaptiveFlexCore {
    /// Clones the detector (configuration + prepared state) with **fresh
    /// activation bookkeeping**: counters start at zero so per-slot means
    /// are not skewed by whatever the template accumulated.
    fn clone(&self) -> Self {
        AdaptiveFlexCore {
            inner: self.inner.clone(),
            activation_sum: 0,
            activation_count: 0,
            batch_calls: AtomicU64::new(0),
            vector_calls: AtomicU64::new(0),
        }
    }
}

impl AdaptiveFlexCore {
    /// Creates an a-FlexCore with `n_pe` available PEs and the given
    /// cumulative-probability target (the paper uses 0.95).
    pub fn new(constellation: Constellation, n_pe: usize, threshold: f64) -> Self {
        let mut config = FlexCoreConfig::new(n_pe);
        config.stop_threshold = Some(threshold);
        AdaptiveFlexCore {
            inner: FlexCoreDetector::new(constellation, config),
            activation_sum: 0,
            activation_count: 0,
            batch_calls: AtomicU64::new(0),
            vector_calls: AtomicU64::new(0),
        }
    }

    /// The paper's configuration: 64 available PEs, target 0.95 (Fig. 10).
    pub fn paper_default(constellation: Constellation) -> Self {
        Self::new(constellation, 64, 0.95)
    }

    /// PEs activated for the current channel.
    pub fn active_pes(&self) -> usize {
        self.inner.active_paths()
    }

    /// Mean active PEs across every `prepare` call since construction,
    /// clone, or [`AdaptiveFlexCore::reset_history`] — the line plotted in
    /// Fig. 10.
    pub fn mean_active_pes(&self) -> f64 {
        if self.activation_count == 0 {
            return 0.0;
        }
        self.activation_sum as f64 / self.activation_count as f64
    }

    /// Clears the activation bookkeeping.
    pub fn reset_history(&mut self) {
        self.activation_sum = 0;
        self.activation_count = 0;
    }

    /// How many batch detections ([`Detector::detect_batch_refs`]) this
    /// instance has served — the scratch-reuse path the frame engine
    /// schedules. Tests use the pair of counters to prove the engine never
    /// falls back to per-vector detection.
    pub fn batch_calls(&self) -> u64 {
        self.batch_calls.load(Ordering::Relaxed)
    }

    /// How many single-vector detections ([`Detector::detect`]) this
    /// instance has served — the allocating per-vector path.
    pub fn vector_calls(&self) -> u64 {
        self.vector_calls.load(Ordering::Relaxed)
    }

    /// Access to the wrapped detector (e.g. for `detect_on_pool`).
    pub fn inner(&self) -> &FlexCoreDetector {
        &self.inner
    }

    /// The stopping threshold currently steering the active path set (the
    /// re-tuned one after [`AdaptiveFlexCore::retune_threshold`]).
    pub fn threshold(&self) -> f64 {
        // An a-FlexCore always carries a threshold by construction.
        self.inner.active_threshold().unwrap_or(1.0)
    }

    /// Re-tunes the stopping threshold without a full re-prepare — see
    /// [`FlexCoreDetector::retune_threshold`] for the exactness contract.
    /// Returns whether the prepared active path set changed.
    pub fn retune_threshold(&mut self, t: f64) -> bool {
        self.inner.retune_threshold(t)
    }
}

impl Detector for AdaptiveFlexCore {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn prepare(&mut self, h: &CMat, sigma2: f64) {
        self.inner.prepare(h, sigma2);
        self.activation_sum += self.inner.active_paths() as u64;
        self.activation_count += 1;
    }

    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        self.vector_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.detect(y)
    }

    /// Forwards to the inner FlexCore's scratch-reuse batch path (one
    /// rotate buffer + one trie-walk workspace for the whole batch).
    /// Without this override the trait default falls back to per-vector
    /// [`Detector::detect`], re-allocating both per observation — the PR 3
    /// bug.
    fn detect_batch_refs(&self, ys: &[&[Cx]]) -> Vec<Vec<usize>> {
        self.batch_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.detect_batch_refs(ys)
    }

    fn effort(&self) -> usize {
        self.inner.effort()
    }

    fn extension_work(&self) -> usize {
        self.inner.extension_work()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble};
    use flexcore_modulation::Modulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_active(nr: usize, nt: usize, snr: f64, seed: u64) -> f64 {
        let c = Constellation::new(Modulation::Qam64);
        let mut afc = AdaptiveFlexCore::paper_default(c);
        let ens = ChannelEnsemble::iid(nr, nt);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..160 {
            let h = ens.draw(&mut rng);
            afc.prepare(&h, sigma2_from_snr_db(snr));
        }
        afc.mean_active_pes()
    }

    #[test]
    fn well_conditioned_channel_collapses_to_few_pes() {
        // Fig. 10: with 6 users on 12 antennas at 21.6 dB, a-FlexCore
        // activates close to one PE.
        let light = mean_active(12, 6, 21.6, 1);
        assert!(light < 6.0, "6-user mean active PEs {light}");
    }

    #[test]
    fn crowded_channel_uses_more_pes() {
        // The magnitude depends on the operating SNR; at a noisier point
        // the 12-user effect is pronounced (Fig. 10 plots the calibrated
        // PER_ML = 0.01 point, reproduced in flexcore-sim::fig10).
        let light = mean_active(12, 6, 18.0, 2);
        let full = mean_active(12, 12, 18.0, 2);
        assert!(
            full > 2.0 * light.max(1.0),
            "12-user ({full}) should need several times the 6-user PEs ({light})"
        );
    }

    #[test]
    fn activation_bounded_by_budget() {
        let c = Constellation::new(Modulation::Qam64);
        let mut afc = AdaptiveFlexCore::new(c, 16, 0.9999);
        let ens = ChannelEnsemble::iid(12, 12);
        let mut rng = StdRng::seed_from_u64(3);
        let h = ens.draw(&mut rng);
        afc.prepare(&h, sigma2_from_snr_db(10.0)); // very noisy: wants many
        assert!(afc.active_pes() <= 16);
        assert!(afc.active_pes() >= 1);
    }

    #[test]
    fn higher_snr_means_fewer_active_pes() {
        let noisy = mean_active(12, 12, 15.0, 4);
        let clean = mean_active(12, 12, 30.0, 4);
        assert!(clean < noisy, "30 dB ({clean}) vs 15 dB ({noisy})");
    }

    #[test]
    fn history_tracks_and_resets() {
        let c = Constellation::new(Modulation::Qam16);
        let mut afc = AdaptiveFlexCore::new(c, 8, 0.95);
        let ens = ChannelEnsemble::iid(4, 4);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(afc.mean_active_pes(), 0.0);
        for _ in 0..5 {
            let h = ens.draw(&mut rng);
            afc.prepare(&h, 0.05);
        }
        assert!(afc.mean_active_pes() >= 1.0);
        afc.reset_history();
        assert_eq!(afc.mean_active_pes(), 0.0);
    }

    #[test]
    fn clone_starts_fresh_bookkeeping() {
        // A frame engine stamps one clone per subcarrier: each clone's mean
        // must describe only the channels *it* prepared, and the clone's
        // prepared state must still detect (state is copied, history isn't).
        let c = Constellation::new(Modulation::Qam16);
        let mut afc = AdaptiveFlexCore::new(c.clone(), 8, 0.95);
        let ens = ChannelEnsemble::iid(4, 4);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let h = ens.draw(&mut rng);
            afc.prepare(&h, 0.05);
        }
        let clone = afc.clone();
        assert_eq!(clone.mean_active_pes(), 0.0, "history must not be copied");
        assert_eq!(clone.batch_calls(), 0);
        assert_eq!(clone.vector_calls(), 0);
        assert_eq!(
            clone.active_pes(),
            afc.active_pes(),
            "prepared state must be copied"
        );
        let mut one = afc.clone();
        let h = ens.draw(&mut rng);
        one.prepare(&h, 0.05);
        assert_eq!(
            one.mean_active_pes(),
            one.active_pes() as f64,
            "a single prepare is its own mean"
        );
    }

    #[test]
    fn batch_detection_is_bit_identical_and_counted() {
        use flexcore_channel::MimoChannel;
        use rand::Rng;
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(18);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let mut afc = AdaptiveFlexCore::new(c.clone(), 16, 0.95);
        afc.prepare(&h, sigma2_from_snr_db(14.0));
        let ch = MimoChannel::new(h, 14.0);
        let ys: Vec<Vec<Cx>> = (0..12)
            .map(|_| {
                let x: Vec<Cx> = (0..4)
                    .map(|_| c.point(rng.gen_range(0..c.order())))
                    .collect();
                ch.transmit(&x, &mut rng)
            })
            .collect();
        let per_vector: Vec<Vec<usize>> = ys.iter().map(|y| afc.detect(y)).collect();
        assert_eq!(afc.vector_calls(), 12);
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
        assert_eq!(afc.detect_batch_refs(&refs), per_vector);
        assert_eq!(afc.batch_calls(), 1);
        assert_eq!(afc.vector_calls(), 12, "batch must not fall back");
    }

    #[test]
    fn effort_tracks_active_pes() {
        let c = Constellation::new(Modulation::Qam16);
        let mut afc = AdaptiveFlexCore::new(c, 16, 0.95);
        assert_eq!(afc.effort(), 1, "unprepared effort defaults to 1");
        let ens = ChannelEnsemble::iid(6, 6);
        let mut rng = StdRng::seed_from_u64(19);
        let h = ens.draw(&mut rng);
        afc.prepare(&h, sigma2_from_snr_db(12.0));
        assert_eq!(afc.effort(), afc.active_pes());
    }

    #[test]
    fn detection_still_works() {
        use flexcore_numeric::Cx;
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(6);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let mut afc = AdaptiveFlexCore::new(c.clone(), 32, 0.95);
        afc.prepare(&h, 1e-6);
        let s = vec![3usize, 7, 11, 0];
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        assert_eq!(afc.detect(&h.mul_vec(&x)), s);
    }
}
