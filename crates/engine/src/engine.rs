//! The frame engine: prepared-detector cache + grid scheduling.

use crate::channel::FrameChannel;
use crate::frame::{DetectedFrame, RxFrame};
use flexcore_detect::common::Detector;
use flexcore_numeric::Cx;
use flexcore_parallel::PePool;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of an engine's cumulative work counters plus the current
/// per-subcarrier effort profile.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Frames pushed through [`FrameEngine::detect_frame`] /
    /// [`FrameEngine::process_frame`].
    pub frames: u64,
    /// Received vectors detected.
    pub vectors: u64,
    /// Channel-dependent preparation executions (QR / ordering / filters).
    /// Under a flat channel one execution can refresh many subcarriers.
    pub prepare_runs: u64,
    /// Subcarrier slots refreshed by [`FrameEngine::prepare`].
    pub subcarriers_refreshed: u64,
    /// Subcarriers currently holding a prepared detector.
    pub prepared_subcarriers: u64,
    /// Σ of [`Detector::effort`] over the prepared subcarriers — for
    /// FlexCore templates, the total active paths (PEs) the current channel
    /// costs per OFDM symbol. Fixed FlexCore-`N` pins this at
    /// `N · prepared_subcarriers`; a-FlexCore shrinks it wherever the
    /// stopping criterion fires, and the difference is the §5.1 effort
    /// saving at frame scale.
    pub effort_total: u64,
    /// Histogram of per-subcarrier effort: sorted `(effort, count)` pairs
    /// over the prepared subcarriers. A clean channel piles the mass on
    /// small efforts; a crowded one spreads it toward the PE budget.
    pub effort_histogram: Vec<(usize, u64)>,
}

impl EngineStats {
    /// Mean per-subcarrier effort (0.0 when nothing is prepared) — the
    /// frame-scale analogue of Fig. 10's mean active PEs.
    pub fn mean_effort(&self) -> f64 {
        if self.prepared_subcarriers == 0 {
            return 0.0;
        }
        self.effort_total as f64 / self.prepared_subcarriers as f64
    }
}

/// One batch of a pool run: `(frame index, subcarrier, symbol range)`.
type Batch = (usize, usize, usize, usize);

/// Splits every frame of one pool run into `(frame, subcarrier,
/// symbol-range)` batches and prices each at `work(frame, subcarrier) ×
/// symbols` — the one batch geometry and the one cost signal every
/// scheduling path shares (single frames, multi-user ticks, the pipelined
/// cell and the city's modelled-time pricing), which is what keeps their
/// detections bit-identical (identical batches → identical scratch-reuse
/// sequences per batch) and their predictions consistent.
///
/// One shared `2 × n_pes` task target is divided across the frames, so a
/// run stays at a few tasks per PE whatever the frame count; every
/// subcarrier of a frame contributes the same number of contiguous symbol
/// chunks (≥ 1, ≤ `n_sym`). `work` is the subcarrier's prepared
/// [`Detector::extension_work`]: the fabric audit's makespan gate and the
/// city's pricing are calibrated against it.
pub(crate) fn plan_batches(
    frames: &[&RxFrame],
    n_pes: usize,
    work: impl Fn(usize, usize) -> usize,
) -> (Vec<Batch>, Vec<u64>) {
    let target = (2 * n_pes).div_ceil(frames.len().max(1));
    let mut batches = Vec::new();
    for (e, frame) in frames.iter().enumerate() {
        let (n_sc, n_sym) = (frame.n_subcarriers(), frame.n_symbols());
        let tasks_per_sc = target.div_ceil(n_sc.max(1)).clamp(1, n_sym.max(1));
        let chunk = n_sym.div_ceil(tasks_per_sc).max(1);
        for sc in 0..n_sc {
            let mut from = 0;
            while from < n_sym {
                let to = (from + chunk).min(n_sym);
                batches.push((e, sc, from, to));
                from = to;
            }
        }
    }
    let costs = batches
        .iter()
        .map(|&(e, sc, from, to)| work(e, sc) as u64 * (to - from) as u64)
        .collect();
    (batches, costs)
}

/// Runs `f` over every planned batch of `frames` in one priced pool run
/// ([`PePool::run_priced`]) and scatters the per-vector outputs back into
/// one symbol-major grid per frame.
///
/// `slot(frame, subcarrier)` supplies the prepared detector a batch runs
/// against and its extension work; `f` receives the frame index, that
/// detector, the subcarrier and the borrowed batch of received vectors,
/// and must return one output per vector. Placement is the pool's
/// business and scatter is by grid position, so results never depend on
/// the pool.
pub(crate) fn run_frames<'a, D, P, T, S, F>(
    pool: &P,
    frames: &[&'a RxFrame],
    slot: S,
    f: F,
) -> Vec<Vec<T>>
where
    D: Sync + 'a,
    P: PePool,
    T: Send,
    S: Fn(usize, usize) -> (&'a D, usize),
    F: Fn(usize, &D, usize, &[&[Cx]]) -> Vec<T> + Sync,
{
    let (batches, costs) = plan_batches(frames, pool.n_pes(), |e, sc| slot(e, sc).1);
    let f = &f;
    let tasks: Vec<_> = batches
        .iter()
        .map(|&(e, sc, from, to)| {
            let frame = frames[e];
            let det = slot(e, sc).0;
            move || {
                let ys = frame.column_chunk(sc, from, to);
                let out = f(e, det, sc, &ys);
                assert_eq!(out.len(), to - from, "batch output count mismatch");
                out
            }
        })
        .collect();
    let per_batch = pool.run_priced(tasks, &costs);

    let mut grids: Vec<Vec<Option<T>>> = frames
        .iter()
        .map(|frame| (0..frame.n_vectors()).map(|_| None).collect())
        .collect();
    {
        // flexcore-lint: hot-path
        // Scatter by grid position into the preallocated grids — the
        // ordering-erasing step that makes placement invisible downstream.
        for (&(e, sc, from, _), outputs) in batches.iter().zip(per_batch) {
            let n_sc = frames[e].n_subcarriers();
            for (offset, value) in outputs.into_iter().enumerate() {
                grids[e][(from + offset) * n_sc + sc] = Some(value);
            }
        }
    }
    grids
        .into_iter()
        .map(|grid| {
            grid.into_iter()
                // flexcore-lint: allow(FL004, reason = "the batches tile each frame's grid exactly (plan_batches), so every cell was produced above")
                .map(|v| v.expect("frame cell never produced"))
                .collect()
        })
        .collect()
}

struct Slot<D> {
    detector: D,
    channel_id: u64,
    generation: u64,
    /// [`Detector::effort`] captured right after preparation — the
    /// effort profile [`EngineStats`] reports.
    effort: usize,
    /// [`Detector::extension_work`] captured right after preparation —
    /// the cost every pool run prices this subcarrier's batches with
    /// (equal efforts can hide severalfold work differences).
    extension_work: usize,
    /// The engine's tune epoch when this slot was last prepared or
    /// re-tuned — part of the slot's cache key, so snapshot consumers see
    /// a re-tune exactly like a channel refresh.
    tune_stamp: u64,
}

/// Drives one detector design across whole OFDM frames.
///
/// The engine owns a clone of the template detector per subcarrier, each
/// prepared against that subcarrier's channel. [`FrameEngine::prepare`] is
/// the paper's pre-processing phase with a cache in front: a subcarrier is
/// re-prepared only when its [`FrameChannel`] generation moved.
/// [`FrameEngine::detect_frame`] is the parallel phase: the
/// *(subcarrier × symbol)* grid is carved into per-subcarrier symbol
/// batches and scheduled onto the given [`PePool`], each batch flowing
/// through [`Detector::detect_batch_refs`] on its subcarrier's prepared
/// clone — borrowed slices in, one reused scratch workspace per batch, so
/// a software PE streams a subcarrier's symbols exactly like the paper's
/// pipelined hardware engines (§4), with zero per-vector heap traffic.
///
/// The engine is also **load-aware**: preparation captures each
/// subcarrier's [`Detector::effort`] (for a-FlexCore, the PEs its stopping
/// criterion activates — §5.1's adjustable FlexCore, lifted to the frame
/// grid) into the [`EngineStats`] profile, and its
/// [`Detector::extension_work`] as the price of its symbol batches, so the
/// pool can run cheap near-SIC subcarriers after the crowded ones.
pub struct FrameEngine<D> {
    template: D,
    slots: Vec<Option<Slot<D>>>,
    frames: AtomicU64,
    vectors: AtomicU64,
    prepare_runs: AtomicU64,
    subcarriers_refreshed: AtomicU64,
    tune_epoch: u64,
}

impl<D: Detector + Clone + Sync> FrameEngine<D> {
    /// An engine stamping out clones of `template`; no subcarrier is
    /// prepared yet.
    pub fn new(template: D) -> Self {
        FrameEngine {
            template,
            slots: Vec::new(),
            frames: AtomicU64::new(0),
            vectors: AtomicU64::new(0),
            prepare_runs: AtomicU64::new(0),
            subcarriers_refreshed: AtomicU64::new(0),
            tune_epoch: 0,
        }
    }

    /// Cumulative work counters plus the current effort profile.
    pub fn stats(&self) -> EngineStats {
        let mut histogram: BTreeMap<usize, u64> = BTreeMap::new();
        let mut effort_total = 0u64;
        let mut prepared = 0u64;
        for slot in self.slots.iter().flatten() {
            prepared += 1;
            effort_total += slot.effort as u64;
            *histogram.entry(slot.effort).or_insert(0) += 1;
        }
        EngineStats {
            frames: self.frames.load(Ordering::Relaxed),
            vectors: self.vectors.load(Ordering::Relaxed),
            prepare_runs: self.prepare_runs.load(Ordering::Relaxed),
            subcarriers_refreshed: self.subcarriers_refreshed.load(Ordering::Relaxed),
            prepared_subcarriers: prepared,
            effort_total,
            effort_histogram: histogram.into_iter().collect(),
        }
    }

    /// The scheduling weight of one subcarrier: its prepared detector's
    /// [`Detector::extension_work`], or 1 while unprepared — public so
    /// serving layers (the city simulation's admission and load
    /// calibration) can price a user's frames in the same units every pool
    /// run is planned in.
    pub fn slot_extension_work(&self, subcarrier: usize) -> usize {
        self.slots
            .get(subcarrier)
            .and_then(Option::as_ref)
            .map_or(1, |slot| slot.extension_work)
    }

    /// The prepared detector of one subcarrier.
    ///
    /// # Panics
    /// Panics if [`FrameEngine::prepare`] has not covered `subcarrier`.
    pub fn detector(&self, subcarrier: usize) -> &D {
        &self
            .slots
            .get(subcarrier)
            .and_then(Option::as_ref)
            // flexcore-lint: allow(FL004, reason = "prepare-before-access API contract; documented panic on the public accessor")
            .expect("FrameEngine: subcarrier not prepared")
            .detector
    }

    /// Synchronises the per-subcarrier prepared detectors with `channel`,
    /// re-running preparation for exactly the subcarriers whose generation
    /// changed (all of them, on first call). Returns how many were
    /// refreshed.
    ///
    /// Under a frequency-flat channel ([`FrameChannel::is_flat`]) the
    /// channel-dependent work runs **once** and the prepared state is
    /// cloned into every stale slot — preparation is deterministic, so a
    /// clone is bit-identical to re-preparing.
    pub fn prepare(&mut self, channel: &FrameChannel) -> usize {
        let n_sc = channel.n_subcarriers();
        if self.slots.len() != n_sc {
            self.slots = (0..n_sc).map(|_| None).collect();
        }
        let stale: Vec<usize> = (0..n_sc)
            .filter(|&sc| {
                self.slots[sc].as_ref().is_none_or(|slot| {
                    slot.channel_id != channel.id() || slot.generation != channel.generation(sc)
                })
            })
            .collect();
        if stale.is_empty() {
            return 0;
        }
        if channel.is_flat() {
            // One preparation, cloned into every stale slot.
            let mut detector = self.template.clone();
            detector.prepare(channel.h(stale[0]), channel.sigma2());
            let effort = detector.effort();
            let extension_work = detector.extension_work();
            self.prepare_runs.fetch_add(1, Ordering::Relaxed);
            for &sc in &stale {
                self.slots[sc] = Some(Slot {
                    detector: detector.clone(),
                    channel_id: channel.id(),
                    generation: channel.generation(sc),
                    effort,
                    extension_work,
                    tune_stamp: self.tune_epoch,
                });
            }
        } else {
            for &sc in &stale {
                let mut detector = self.template.clone();
                detector.prepare(channel.h(sc), channel.sigma2());
                let effort = detector.effort();
                let extension_work = detector.extension_work();
                self.prepare_runs.fetch_add(1, Ordering::Relaxed);
                self.slots[sc] = Some(Slot {
                    detector,
                    channel_id: channel.id(),
                    generation: channel.generation(sc),
                    effort,
                    extension_work,
                    tune_stamp: self.tune_epoch,
                });
            }
        }
        self.subcarriers_refreshed
            .fetch_add(stale.len() as u64, Ordering::Relaxed);
        stale.len()
    }

    /// Applies `f` to the template and to every prepared subcarrier
    /// detector **in place** — the cheap re-tuning hook behind the
    /// closed-loop effort controller (think
    /// `FlexCoreDetector::retune_threshold`: a prefix re-truncation of the
    /// already-searched path selection, no QR and no tree search). `f`
    /// returns whether it changed the detector's active configuration;
    /// changed slots have their effort and extension work
    /// recaptured and their tune stamp bumped, so snapshot consumers (the
    /// pipelined cell) notice exactly like a channel refresh. Returns how
    /// many prepared subcarriers changed.
    ///
    /// The template is re-tuned first, so subcarriers refreshed by a later
    /// [`FrameEngine::prepare`] come up already at the current tuning.
    pub fn retune(&mut self, mut f: impl FnMut(&mut D) -> bool) -> usize {
        f(&mut self.template);
        let epoch = self.tune_epoch + 1;
        let mut changed = 0;
        for slot in self.slots.iter_mut().flatten() {
            if f(&mut slot.detector) {
                slot.effort = slot.detector.effort();
                slot.extension_work = slot.detector.extension_work();
                slot.tune_stamp = epoch;
                changed += 1;
            }
        }
        if changed > 0 {
            self.tune_epoch = epoch;
        }
        changed
    }

    /// Replaces the template detector wholesale and **clears every
    /// prepared slot** — the service-tier swap behind the city layer's
    /// load-shedding lever (`CellDetector` FlexCore → SIC/linear), where
    /// [`FrameEngine::retune`]'s in-place mutation is not enough: a
    /// different detector type needs its own preparation (QR factors,
    /// MMSE filter, path selection) against the channel.
    ///
    /// The tune epoch is bumped so snapshot consumers (the pipelined
    /// cell) treat the next [`FrameEngine::prepare`] like a re-tune plus
    /// channel refresh rather than a cache hit. Work counters are kept:
    /// the user keeps its service history across the swap.
    ///
    /// The engine is unprepared until the next [`FrameEngine::prepare`].
    pub fn set_template(&mut self, template: D) {
        self.template = template;
        for slot in self.slots.iter_mut() {
            *slot = None;
        }
        self.tune_epoch += 1;
    }

    /// The current template detector (the swap/retune target; per-slot
    /// prepared clones may carry channel-dependent state on top).
    pub fn template(&self) -> &D {
        &self.template
    }

    /// Cache key of one prepared subcarrier: `(channel id, channel
    /// generation, tune stamp)`. The key moves exactly when the slot's
    /// prepared state can differ — the pipelined cell snapshots detectors
    /// and uses this to refresh only moved slots. `None` while unprepared.
    pub(crate) fn slot_key(&self, subcarrier: usize) -> Option<(u64, u64, u64)> {
        self.slots
            .get(subcarrier)
            .and_then(Option::as_ref)
            .map(|slot| (slot.channel_id, slot.generation, slot.tune_stamp))
    }

    /// Credits one detected frame of `n_vectors` vectors to this engine's
    /// counters — the multi-user cells detect many users' frames in one
    /// shared pool run, then book each user's share here so
    /// [`FrameEngine::stats`] stays truthful per user.
    pub(crate) fn record_frame(&self, n_vectors: usize) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.vectors.fetch_add(n_vectors as u64, Ordering::Relaxed);
    }

    /// Runs `f` over every `(subcarrier, symbol-batch)` of the frame on the
    /// pool and reassembles the per-vector outputs in symbol-major order.
    ///
    /// `f` receives the subcarrier's prepared detector, the subcarrier
    /// index, and the batch of received vectors (consecutive symbols of
    /// that subcarrier, borrowed straight from the frame's flat plane); it
    /// must return one output per vector, in order. This is the engine's
    /// core primitive: [`FrameEngine::detect_frame`] is
    /// `f = detect_batch_refs` — each PE reuses one scratch workspace for
    /// its whole symbol batch — and the soft-output uplink streams LLRs
    /// through it.
    ///
    /// Batches are priced at [`Detector::extension_work`]` × symbols` and
    /// handed to [`PePool::run_priced`]: identical-PE pools run them
    /// longest-first, so cheap near-SIC subcarriers never pad out the
    /// critical path behind the crowded ones, and a
    /// [`WeightedPool`](flexcore_parallel::WeightedPool) places them on its
    /// non-uniform PEs and audits the prediction. Placement never touches
    /// results.
    ///
    /// # Panics
    /// Panics if a subcarrier of `frame` was never prepared, or if `f`
    /// returns the wrong number of outputs for a batch.
    pub fn process_frame<P, T, F>(&self, frame: &RxFrame, pool: &P, f: F) -> Vec<T>
    where
        P: PePool,
        T: Send,
        F: Fn(&D, usize, &[&[Cx]]) -> Vec<T> + Sync,
    {
        let n_sc = frame.n_subcarriers();
        assert_eq!(
            n_sc,
            self.slots.len(),
            "FrameEngine: frame has {n_sc} subcarriers, engine prepared {}",
            self.slots.len()
        );
        let mut grids = run_frames(
            pool,
            &[frame],
            |_, sc| (self.detector(sc), self.slot_extension_work(sc)),
            |_, det, sc, ys| f(det, sc, ys),
        );
        self.record_frame(frame.n_vectors());
        grids.swap_remove(0)
    }

    /// Detects every received vector of the frame, returning decisions in
    /// the same grid shape. Results are bit-identical to calling
    /// [`Detector::detect`] on each vector with that subcarrier's prepared
    /// detector, regardless of the pool or batch shape.
    pub fn detect_frame<P: PePool>(&self, frame: &RxFrame, pool: &P) -> DetectedFrame {
        let symbols = self.process_frame(frame, pool, |det, _sc, ys| det.detect_batch_refs(ys));
        DetectedFrame::from_parts(frame.n_subcarriers(), symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
    use flexcore_detect::{MmseDetector, SphereDecoder};
    use flexcore_modulation::{Constellation, Modulation};
    use flexcore_parallel::{CrossbeamPool, SequentialPool, WeightedPool};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const NT: usize = 4;
    const SNR: f64 = 14.0;

    fn build_frame(
        n_sc: usize,
        n_sym: usize,
        channel: &FrameChannel,
        seed: u64,
    ) -> (RxFrame, Vec<Vec<usize>>) {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut frame = RxFrame::empty(n_sc);
        let mut truth = Vec::new();
        for _ in 0..n_sym {
            let mut row = Vec::with_capacity(n_sc);
            for sc in 0..n_sc {
                let s: Vec<usize> = (0..NT).map(|_| rng.gen_range(0..16)).collect();
                let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                let ch = MimoChannel {
                    h: channel.h(sc).clone(),
                    sigma2: channel.sigma2(),
                };
                row.push(ch.transmit(&x, &mut rng));
                truth.push(s);
            }
            frame.push_symbol(row);
        }
        (frame, truth)
    }

    fn selective_channel(n_sc: usize, seed: u64) -> FrameChannel {
        let ens = ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(seed);
        FrameChannel::per_subcarrier(ens.draw_many(&mut rng, n_sc), sigma2_from_snr_db(SNR))
    }

    #[test]
    fn prepare_is_cached_by_generation() {
        let mut engine = FrameEngine::new(MmseDetector::new(Constellation::new(Modulation::Qam16)));
        let mut ch = selective_channel(8, 1);
        assert_eq!(engine.prepare(&ch), 8);
        assert_eq!(engine.prepare(&ch), 0, "unchanged channel re-prepared");
        let ens = ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(99);
        ch.update_subcarrier(3, ens.draw(&mut rng));
        assert_eq!(engine.prepare(&ch), 1, "only the touched subcarrier");
        assert_eq!(engine.stats().subcarriers_refreshed, 9);
        assert_eq!(engine.stats().prepare_runs, 9);
    }

    #[test]
    fn flat_channel_prepares_once_and_clones() {
        let mut engine = FrameEngine::new(MmseDetector::new(Constellation::new(Modulation::Qam16)));
        let ens = ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(2);
        let ch = FrameChannel::flat(ens.draw(&mut rng), sigma2_from_snr_db(SNR), 48);
        assert_eq!(engine.prepare(&ch), 48);
        assert_eq!(engine.stats().prepare_runs, 1, "flat prep should run once");

        // The cloned slots must behave exactly like individually prepared
        // detectors.
        let (frame, _) = build_frame(48, 2, &ch, 3);
        let seq = SequentialPool::new(4);
        let out = engine.detect_frame(&frame, &seq);
        let mut reference = MmseDetector::new(Constellation::new(Modulation::Qam16));
        reference.prepare(ch.h(0), ch.sigma2());
        for sym in 0..2 {
            for sc in 0..48 {
                assert_eq!(out.get(sym, sc), reference.detect(frame.get(sym, sc)));
            }
        }
    }

    #[test]
    fn substrates_and_batch_shapes_agree() {
        let ch = selective_channel(12, 4);
        let mut engine =
            FrameEngine::new(SphereDecoder::new(Constellation::new(Modulation::Qam16)));
        engine.prepare(&ch);
        let (frame, _) = build_frame(12, 6, &ch, 5);
        let seq1 = SequentialPool::new(1);
        let seq7 = SequentialPool::new(7);
        let stat4 = CrossbeamPool::new(4);
        let queue4 = CrossbeamPool::work_queue(4);
        let queue9 = CrossbeamPool::work_queue(9);
        let reference = engine.detect_frame(&frame, &seq1);
        assert_eq!(engine.detect_frame(&frame, &seq7), reference);
        assert_eq!(engine.detect_frame(&frame, &stat4), reference);
        assert_eq!(engine.detect_frame(&frame, &queue4), reference);
        assert_eq!(engine.detect_frame(&frame, &queue9), reference);
    }

    #[test]
    fn detection_matches_per_vector_reference() {
        let ch = selective_channel(6, 6);
        let mut engine =
            FrameEngine::new(SphereDecoder::new(Constellation::new(Modulation::Qam16)));
        engine.prepare(&ch);
        let (frame, _) = build_frame(6, 4, &ch, 7);
        let out = engine.detect_frame(&frame, &CrossbeamPool::work_queue(3));
        for sym in 0..4 {
            for sc in 0..6 {
                let mut det = SphereDecoder::new(Constellation::new(Modulation::Qam16));
                det.prepare(ch.h(sc), ch.sigma2());
                assert_eq!(
                    out.get(sym, sc),
                    det.detect(frame.get(sym, sc)),
                    "({sym},{sc})"
                );
            }
        }
    }

    #[test]
    fn noiseless_frame_recovered_exactly() {
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(8);
        let hs = ens.draw_many(&mut rng, 5);
        let ch = FrameChannel::per_subcarrier(hs.clone(), 1e-12);
        let mut frame = RxFrame::empty(5);
        let mut truth = Vec::new();
        for _ in 0..3 {
            let mut row = Vec::new();
            for h in &hs {
                let s: Vec<usize> = (0..NT).map(|_| rng.gen_range(0..16)).collect();
                let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                row.push(h.mul_vec(&x));
                truth.push(s);
            }
            frame.push_symbol(row);
        }
        let mut engine = FrameEngine::new(SphereDecoder::new(c));
        engine.prepare(&ch);
        let out = engine.detect_frame(&frame, &CrossbeamPool::work_queue(4));
        for (cell, want) in out.iter().zip(&truth) {
            assert_eq!(cell, want.as_slice());
        }
        assert_eq!(engine.stats().frames, 1);
        assert_eq!(engine.stats().vectors, 15);
    }

    #[test]
    fn rebuilt_channel_is_never_mistaken_for_cached() {
        // A fresh FrameChannel starts its generations at 1 just like the
        // previous one — the instance id must force re-preparation.
        let c = Constellation::new(Modulation::Qam16);
        let mut engine = FrameEngine::new(MmseDetector::new(c));
        let a = selective_channel(4, 11);
        let b = selective_channel(4, 12); // different H, same generations
        assert_eq!(engine.prepare(&a), 4);
        assert_eq!(
            engine.prepare(&b),
            4,
            "new channel instance must re-prepare"
        );
        let mut reference = MmseDetector::new(Constellation::new(Modulation::Qam16));
        reference.prepare(b.h(2), b.sigma2());
        let mut rng = StdRng::seed_from_u64(13);
        let y: Vec<Cx> = (0..NT)
            .map(|_| Cx::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        assert_eq!(engine.detector(2).detect(&y), reference.detect(&y));
    }

    #[test]
    #[should_panic(expected = "not prepared")]
    fn unprepared_subcarrier_panics() {
        let engine = FrameEngine::new(MmseDetector::new(Constellation::new(Modulation::Qam16)));
        let _ = engine.detector(0);
    }

    #[test]
    fn effort_profile_tracks_prepared_slots() {
        // Fixed-cost template: every slot reports effort 1 and the
        // histogram is a single bucket.
        let mut engine = FrameEngine::new(MmseDetector::new(Constellation::new(Modulation::Qam16)));
        assert_eq!(engine.stats().prepared_subcarriers, 0);
        assert_eq!(engine.stats().mean_effort(), 0.0);
        let ch = selective_channel(6, 21);
        engine.prepare(&ch);
        let stats = engine.stats();
        assert_eq!(stats.prepared_subcarriers, 6);
        assert_eq!(stats.effort_total, 6);
        assert_eq!(stats.effort_histogram, vec![(1, 6)]);
        assert_eq!(stats.mean_effort(), 1.0);
    }

    #[test]
    fn flexcore_effort_profile_counts_paths() {
        use flexcore::FlexCoreDetector;
        let mut engine = FrameEngine::new(FlexCoreDetector::with_pes(
            Constellation::new(Modulation::Qam16),
            12,
        ));
        let ch = selective_channel(5, 22);
        engine.prepare(&ch);
        let stats = engine.stats();
        // No stopping threshold: every subcarrier spends the full budget.
        assert_eq!(stats.effort_total, 5 * 12);
        assert_eq!(stats.effort_histogram, vec![(12, 5)]);
        assert_eq!(stats.mean_effort(), 12.0);
    }

    #[test]
    fn plan_tiles_the_frame_and_prices_extension_work() {
        use flexcore::AdaptiveFlexCore;
        // An adaptive template over a selective channel yields unequal
        // slot prices; every batch must cost its subcarrier's extension
        // work × symbols, and the batches must tile the grid.
        let mut engine = FrameEngine::new(AdaptiveFlexCore::new(
            Constellation::new(Modulation::Qam16),
            16,
            0.95,
        ));
        let ch = selective_channel(12, 23);
        engine.prepare(&ch);
        let (frame, _) = build_frame(12, 6, &ch, 24);
        let (batches, costs) = plan_batches(&[&frame], 4, |_, sc| engine.slot_extension_work(sc));
        assert_eq!(batches.len(), costs.len());
        for (&(e, sc, from, to), &cost) in batches.iter().zip(&costs) {
            assert_eq!(e, 0);
            let want = engine.detector(sc).extension_work() as u64 * (to - from) as u64;
            assert_eq!(cost, want, "batch {sc}:{from}..{to}");
        }
        // Every grid cell is covered exactly once.
        let mut covered = vec![0usize; frame.n_vectors()];
        for &(_, sc, from, to) in &batches {
            for sym in from..to {
                covered[sym * 12 + sc] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "coverage: {covered:?}");
    }

    #[test]
    fn empty_frame_and_single_subcarrier_schedules() {
        // The LPT ordering must survive the degenerate grids: a frame with
        // zero symbols produces no batches, a one-subcarrier frame slices
        // into per-PE chunks that reassemble in order.
        let c = Constellation::new(Modulation::Qam16);
        let mut engine = FrameEngine::new(MmseDetector::new(c.clone()));
        let ch = selective_channel(1, 25);
        engine.prepare(&ch);

        let plan = |frame: &RxFrame| plan_batches(&[frame], 4, |_, _| 1).0;
        let empty = RxFrame::empty(1);
        assert!(plan(&empty).is_empty());
        let out = engine.detect_frame(&empty, &SequentialPool::new(4));
        assert_eq!(out.n_symbols(), 0);

        let (frame, _) = build_frame(1, 9, &ch, 26);
        assert!(
            plan(&frame).len() > 1,
            "single subcarrier should still chunk"
        );
        let out = engine.detect_frame(&frame, &CrossbeamPool::work_queue(3));
        let mut reference = MmseDetector::new(c);
        reference.prepare(ch.h(0), ch.sigma2());
        for sym in 0..9 {
            assert_eq!(out.get(sym, 0), reference.detect(frame.get(sym, 0)));
        }
    }

    #[test]
    fn fabric_scheduling_preserves_bit_identity() {
        use flexcore::AdaptiveFlexCore;
        use flexcore_hwmodel::HeterogeneousFabric;
        // Heterogeneous placement (2 fast + 6 slow) must not change a
        // single cell, fixed or adaptive, wide or degenerate grids.
        let ch = selective_channel(9, 41);
        let (frame, _) = build_frame(9, 5, &ch, 42);
        let pool = WeightedPool::new(HeterogeneousFabric::lte_smallcell().speed_factors());

        let mut fixed = FrameEngine::new(SphereDecoder::new(Constellation::new(Modulation::Qam16)));
        fixed.prepare(&ch);
        let reference = fixed.detect_frame(&frame, &SequentialPool::new(1));
        assert_eq!(fixed.detect_frame(&frame, &pool), reference);

        let mut adaptive = FrameEngine::new(AdaptiveFlexCore::new(
            Constellation::new(Modulation::Qam16),
            16,
            0.95,
        ));
        adaptive.prepare(&ch);
        let reference = adaptive.detect_frame(&frame, &SequentialPool::new(1));
        assert_eq!(adaptive.detect_frame(&frame, &pool), reference);

        // Degenerate: empty frame on the fabric.
        let empty = RxFrame::empty(9);
        let out = fixed.detect_frame(&empty, &pool);
        assert_eq!(out.n_symbols(), 0);
    }

    #[test]
    fn fabric_audit_reports_prediction_and_utilization() {
        use flexcore::FlexCoreDetector;
        use flexcore_hwmodel::HeterogeneousFabric;
        let ch = selective_channel(16, 43);
        let mut engine = FrameEngine::new(FlexCoreDetector::with_pes(
            Constellation::new(Modulation::Qam16),
            16,
        ));
        engine.prepare(&ch);
        let (frame, _) = build_frame(16, 8, &ch, 44);
        let pool = WeightedPool::new(HeterogeneousFabric::lte_smallcell().speed_factors());
        assert!(pool.last_audit().is_none(), "no fabric run yet");
        engine.detect_frame(&frame, &pool);
        let fabric = pool.last_audit().expect("fabric audit recorded");
        assert_eq!(fabric.n_pes, 8);
        // Batches are priced at extension_work × symbols: the prepared
        // tries' static walk costs, channel-dependent even at a fixed
        // path budget.
        let want_units: u64 = (0..16)
            .map(|sc| engine.detector(sc).extension_work() as u64 * 8)
            .sum();
        assert_eq!(fabric.total_units, want_units);
        assert!(
            fabric.total_units >= 16 * 8 * 16,
            "a 16-path trie walk costs at least one unit per path: {}",
            fabric.total_units
        );
        assert!(fabric.predicted_makespan_units > 0.0);
        assert!(fabric.measured_makespan_s > 0.0);
        assert!(fabric.packing_efficiency > 0.0 && fabric.packing_efficiency <= 1.0);
        assert_eq!(fabric.per_pe_utilization.len(), 8);
        assert!(fabric
            .per_pe_utilization
            .iter()
            .all(|&u| (0.0..=1.0 + 1e-12).contains(&u)));
        assert!(fabric
            .per_pe_utilization
            .iter()
            .any(|&u| (u - 1.0).abs() < 1e-9));
        // A flat channel prepares one detector and clones it, so every
        // batch costs the same and a uniform pool packs perfectly.
        let ens = flexcore_channel::ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(45);
        let flat = FrameChannel::flat(ens.draw(&mut rng), sigma2_from_snr_db(SNR), 16);
        let mut engine = FrameEngine::new(FlexCoreDetector::with_pes(
            Constellation::new(Modulation::Qam16),
            16,
        ));
        engine.prepare(&flat);
        let (frame, _) = build_frame(16, 8, &flat, 46);
        let uniform = WeightedPool::uniform(4);
        engine.detect_frame(&frame, &uniform);
        let fabric = uniform.last_audit().expect("fabric audit recorded");
        assert_eq!(fabric.packing_efficiency, 1.0);
    }

    #[test]
    fn lpt_scheduling_preserves_bit_identity_for_adaptive_templates() {
        use flexcore::AdaptiveFlexCore;
        // The scheduling tentpole must not change results: adaptive
        // template, unequal efforts, every substrate agrees cell-for-cell.
        let mk = || AdaptiveFlexCore::new(Constellation::new(Modulation::Qam16), 16, 0.95);
        let ch = selective_channel(10, 27);
        let (frame, _) = build_frame(10, 5, &ch, 28);
        let mut engine = FrameEngine::new(mk());
        engine.prepare(&ch);
        let reference = engine.detect_frame(&frame, &SequentialPool::new(1));
        assert_eq!(
            engine.detect_frame(&frame, &CrossbeamPool::work_queue(4)),
            reference
        );
        assert_eq!(
            engine.detect_frame(&frame, &CrossbeamPool::new(3)),
            reference
        );
        // And cell-for-cell against the per-vector sequential detector.
        for sym in 0..5 {
            for sc in 0..10 {
                let mut det = mk();
                det.prepare(ch.h(sc), ch.sigma2());
                assert_eq!(reference.get(sym, sc), det.detect(frame.get(sym, sc)));
            }
        }
    }
}
