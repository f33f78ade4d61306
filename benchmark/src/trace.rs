//! The traced run's spans, recorded from outside the program: around the
//! pipeline's closures and around a wrapping [`PePool`]. Nothing here
//! reaches inside a layer; `FrameEngine::prepare` is the gap between a
//! user's `advance` return and its `transmit` entry.

use crate::run::RunOutcome;
use crate::stats::summarize;
use crate::workload::{Workload, POOL_PES};
use flexcore::CellDetector;
use flexcore_detect::common::Detector;
use flexcore_parallel::{PePool, WorkStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Spans and counts of one traced run, kept in memory until it ends.
#[derive(Default)]
pub struct Tracer {
    /// `(tick, user, start, end)` of each `ChannelStream::advance`.
    advances: Mutex<Vec<(u64, usize, Instant, Instant)>>,
    /// `(tick, user, [entry, encoded, exit])` of each transmit closure.
    transmits: Mutex<Vec<(u64, usize, [Instant; 3])>>,
    /// `(tick, user, [entry, demapped, decoded, crc-checked])`.
    decodes: Mutex<Vec<(u64, usize, [Instant; 4])>>,
    /// `(entry, exit)` of each `PePool::run`, in call order.
    runs: Mutex<Vec<(Instant, Instant)>>,
    detect_ns: AtomicU64,
    extension_work: AtomicU64,
    task_busy_ns: AtomicU64,
    task_wait_ns: AtomicU64,
    tasks: AtomicU64,
}

fn push<T>(m: &Mutex<Vec<T>>, v: T) {
    m.lock().unwrap_or_else(PoisonError::into_inner).push(v);
}

fn take<T>(m: &Mutex<Vec<T>>) -> Vec<T> {
    std::mem::take(&mut *m.lock().unwrap_or_else(PoisonError::into_inner))
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    pub fn advance(&self, tick: u64, user: usize, start: Instant, end: Instant) {
        push(&self.advances, (tick, user, start, end));
    }

    pub fn transmit(&self, tick: u64, user: usize, at: [Instant; 3]) {
        push(&self.transmits, (tick, user, at));
    }

    pub fn decode(&self, tick: u64, user: usize, at: [Instant; 4]) {
        push(&self.decodes, (tick, user, at));
    }

    pub fn detect(&self, start: Instant, end: Instant, vectors: usize, det: &CellDetector) {
        self.detect_ns.fetch_add(ns(end - start), Ordering::Relaxed);
        self.extension_work
            .fetch_add((det.extension_work() * vectors) as u64, Ordering::Relaxed);
    }

    fn task(&self, run_entry: Instant, start: Instant, end: Instant) {
        self.task_busy_ns
            .fetch_add(ns(end - start), Ordering::Relaxed);
        self.task_wait_ns
            .fetch_add(ns(start - run_entry), Ordering::Relaxed);
        self.tasks.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`PePool`] that times each `run` and each task of the pool it wraps.
pub struct TracedPool<'a, P> {
    inner: P,
    tracer: &'a Tracer,
}

impl<'a, P> TracedPool<'a, P> {
    pub fn new(inner: P, tracer: &'a Tracer) -> Self {
        TracedPool { inner, tracer }
    }
}

impl<P: PePool> PePool for TracedPool<'_, P> {
    fn n_pes(&self) -> usize {
        self.inner.n_pes()
    }

    fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let tracer = self.tracer;
        let entry = Instant::now();
        let wrapped: Vec<_> = tasks
            .into_iter()
            .map(|task| {
                move || {
                    let start = Instant::now();
                    let out = task();
                    tracer.task(entry, start, Instant::now());
                    out
                }
            })
            .collect();
        let out = self.inner.run(wrapped);
        push(&tracer.runs, (entry, Instant::now()));
        out
    }

    fn stats(&self) -> &WorkStats {
        self.inner.stats()
    }
}

/// One per-layer metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Per-tick view of the traced spans.
struct TickSpans {
    /// Σ over users of advance + prepare + transmit.
    tx_busy: f64,
    /// Last user's transmit exit: the tick is handed to the detect stage.
    submit: Instant,
    run: (Instant, Instant),
    /// `(entry, delivered)` per decoded frame, in decode order.
    decodes: Vec<(Instant, Instant)>,
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// Per-layer metrics and the reconciliation of one traced run.
pub struct Analysis {
    pub metrics: Vec<Metric>,
    pub report: Vec<String>,
}

/// Reduces the tracer's spans to the per-layer metrics, reconciles them
/// against the run's end-to-end time, and prices the tracing overhead
/// against an untraced run's frame rate.
pub fn analyse(
    w: &Workload,
    tracer: &Tracer,
    out: &RunOutcome,
    traced_fps: f64,
    untraced_fps: f64,
) -> Analysis {
    let advances = take(&tracer.advances);
    let transmits = take(&tracer.transmits);
    let mut decodes = take(&tracer.decodes);
    let runs = take(&tracer.runs);
    decodes.sort_by_key(|&(t, u, at)| (t, at[0], u));

    let n_ticks = out.started.len().min(runs.len());
    let frames = out.frames.len().max(1) as f64;
    let per_frame_ms = |total_s: f64| total_s * 1e3 / frames;

    let mut adv_end = vec![vec![None; w.users]; n_ticks];
    let (mut advance_s, mut prepare_s, mut encode_s, mut txframe_s) = (0.0, 0.0, 0.0, 0.0);
    let mut ticks: Vec<TickSpans> = (0..n_ticks)
        .map(|t| TickSpans {
            tx_busy: 0.0,
            submit: out.started[t],
            run: runs[t],
            decodes: Vec::new(),
        })
        .collect();
    for &(t, u, s, e) in &advances {
        advance_s += secs(s, e);
        if let Some(row) = adv_end.get_mut(t as usize) {
            row[u] = Some(e);
            ticks[t as usize].tx_busy += secs(s, e);
        }
    }
    for &(t, u, [entry, encoded, exit]) in &transmits {
        encode_s += secs(entry, encoded);
        txframe_s += secs(encoded, exit);
        let Some(tick) = ticks.get_mut(t as usize) else {
            continue;
        };
        let prep = adv_end[t as usize][u].map_or(0.0, |a| secs(a, entry));
        prepare_s += prep;
        tick.tx_busy += prep + secs(entry, exit);
        tick.submit = tick.submit.max(exit);
    }
    let (mut demap_s, mut viterbi_s, mut crc_s, mut decode_s) = (0.0, 0.0, 0.0, 0.0);
    for &(t, _, [entry, demapped, decoded, done]) in &decodes {
        demap_s += secs(entry, demapped);
        viterbi_s += secs(demapped, decoded);
        crc_s += secs(decoded, done);
        decode_s += secs(entry, done);
        if let Some(tick) = ticks.get_mut(t as usize) {
            tick.decodes.push((entry, done));
        }
    }

    let run_wall_s: f64 = ticks.iter().map(|t| secs(t.run.0, t.run.1)).sum();
    let task_busy_s = tracer.task_busy_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    let n_tasks = tracer.tasks.load(Ordering::Relaxed);
    let task_wait_s = tracer.task_wait_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    let detect_s = tracer.detect_ns.load(Ordering::Relaxed) as f64 * 1e-9;

    let last_delivery = out
        .frames
        .iter()
        .map(|f| f.delivered)
        .max()
        .unwrap_or(out.run_start);
    let wall_s = secs(out.run_start, last_delivery).max(1e-9);
    let tx_busy_s: f64 = ticks.iter().map(|t| t.tx_busy).sum();

    let tick_mean_ms = |v: Vec<f64>| v.iter().sum::<f64>() * 1e3 / v.len().max(1) as f64;
    let detect_queue = tick_mean_ms(ticks.iter().map(|t| secs(t.submit, t.run.0)).collect());
    let decode_queue = tick_mean_ms(
        ticks
            .iter()
            .filter_map(|t| t.decodes.first().map(|d| secs(t.run.1, d.0)))
            .collect(),
    );
    let submit_block = tick_mean_ms(
        (0..n_ticks.saturating_sub(1))
            .map(|t| secs(ticks[t].submit, out.ready[t + 1]))
            .collect(),
    );
    // Open loop: how late each tick started against its due time. Closed
    // loop: there is no schedule, so the lag is the ready→start gap.
    let lag_from = if w.period.is_some() {
        &out.reference
    } else {
        &out.ready
    };
    let gen_lags: Vec<f64> = (0..n_ticks)
        .map(|t| secs(lag_from[t], out.started[t]) * 1e3)
        .collect();
    let gen_lag_p99 = summarize(&gen_lags).p99;

    let mut report = Vec::new();
    let latency_residual = reconcile_latency(out, &ticks, &mut report);
    let residual = if w.period.is_some() {
        latency_residual
    } else {
        reconcile_stages(out, &ticks, &mut report)
    };
    let overhead = if untraced_fps > 0.0 {
        1.0 - traced_fps / untraced_fps
    } else {
        0.0
    };
    report.push(format!(
        "trace overhead: traced {traced_fps:.2} frames/s vs untraced {untraced_fps:.2} frames/s \
         → overhead_frac {overhead:.4}"
    ));

    let crc_failures: usize = out.frames.iter().map(|f| f.streams - f.crc_pass).sum();
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m(
            "engine.stream.advance_ms",
            per_frame_ms(advance_s),
            "ms/frame",
        ),
        m(
            "engine.stream.transmit_frame_ms",
            per_frame_ms(txframe_s),
            "ms/frame",
        ),
        m("coding.encode_ms", per_frame_ms(encode_s), "ms/frame"),
        m("coding.demap_ms", per_frame_ms(demap_s), "ms/frame"),
        m("coding.viterbi_ms", per_frame_ms(viterbi_s), "ms/frame"),
        m("coding.crc_ms", per_frame_ms(crc_s), "ms/frame"),
        m("coding.crc_failures", crc_failures as f64, "count"),
        m("core.prepare_ms", per_frame_ms(prepare_s), "ms/frame"),
        m(
            "core.subcarriers_refreshed",
            out.subcarriers_refreshed as f64,
            "count",
        ),
        m("core.detect_ms", per_frame_ms(detect_s), "ms/frame"),
        m("core.vectors", out.vectors as f64, "count"),
        m(
            "core.extension_work",
            tracer.extension_work.load(Ordering::Relaxed) as f64,
            "count",
        ),
        m(
            "core.prepared_bytes",
            w.prepared_bytes_per_frame(),
            "bytes_computed",
        ),
        m("parallel.run_wall_ms", per_frame_ms(run_wall_s), "ms/frame"),
        m(
            "parallel.task_busy_ms",
            per_frame_ms(task_busy_s),
            "ms/frame",
        ),
        m(
            "parallel.utilization",
            task_busy_s / (run_wall_s * POOL_PES as f64).max(1e-12),
            "fraction",
        ),
        m(
            "parallel.task_start_wait_ms",
            task_wait_s * 1e3 / n_tasks.max(1) as f64,
            "ms/task",
        ),
        m("parallel.tasks", out.tasks as f64, "count"),
        m("parallel.batches", out.batches as f64, "count"),
        m(
            "engine.pipeline.detect_queue_wait_ms",
            detect_queue,
            "ms/tick",
        ),
        m(
            "engine.pipeline.decode_queue_wait_ms",
            decode_queue,
            "ms/tick",
        ),
        m("engine.pipeline.submit_block_ms", submit_block, "ms/tick"),
        m(
            "engine.pipeline.transmit_stage_busy_frac",
            tx_busy_s / wall_s,
            "fraction",
        ),
        m(
            "engine.pipeline.decode_stage_busy_frac",
            decode_s / wall_s,
            "fraction",
        ),
        m("engine.pipeline.gen_lag_p99_ms", gen_lag_p99, "ms"),
        m("trace.residual_frac", residual, "fraction"),
        m("trace.overhead_frac", overhead, "fraction"),
        m("host.steal_frac", out.steal_frac, "fraction"),
    ];
    Analysis { metrics, report }
}

/// Each frame's latency (due time, or start in a closed loop → CRC
/// check) against the sum of its critical-path spans — generator lag, the tick's transmit stage,
/// detect queue wait, pool run, decode queue wait, and the decodes up to
/// and including its own. Returns |Σ residual| / Σ latency.
fn reconcile_latency(out: &RunOutcome, ticks: &[TickSpans], report: &mut Vec<String>) -> f64 {
    let mut parts = [0.0f64; 6];
    let (mut latency_sum, mut n) = (0.0, 0usize);
    for (t, tick) in ticks.iter().enumerate() {
        let lag = secs(out.reference[t], out.started[t]);
        let dq = secs(tick.submit, tick.run.0);
        let pool = secs(tick.run.0, tick.run.1);
        let Some(first) = tick.decodes.first() else {
            continue;
        };
        let decq = secs(tick.run.1, first.0);
        let mut decode_upto = 0.0;
        for &(entry, done) in &tick.decodes {
            decode_upto += secs(entry, done);
            latency_sum += secs(out.reference[t], done);
            for (p, v) in parts
                .iter_mut()
                .zip([lag, tick.tx_busy, dq, pool, decq, decode_upto])
            {
                *p += v;
            }
            n += 1;
        }
    }
    let spans: f64 = parts.iter().sum();
    let residual = (latency_sum - spans).abs() / latency_sum.max(1e-12);
    let ms = |s: f64| s * 1e3 / n.max(1) as f64;
    report.push(format!(
        "reconciliation (per frame, mean over {n}): latency {:.3} ms = gen lag {:.3} + transmit stage {:.3} \
         + detect queue {:.3} + pool run {:.3} + decode queue {:.3} + decode {:.3} + residual {:.3} ms \
         → residual_frac {residual:.4}",
        ms(latency_sum),
        ms(parts[0]),
        ms(parts[1]),
        ms(parts[2]),
        ms(parts[3]),
        ms(parts[4]),
        ms(parts[5]),
        ms(latency_sum - spans),
    ));
    residual
}

/// Closed loop: each stage thread's wall time against the spans that tile
/// it. Transmit: advance + prepare + transmit, plus the wait to hand the
/// tick over (submit blocking). Detect: pool runs, the previous tick's
/// scatter and hand-off (until its decode starts), and waiting for the
/// transmit stage. Decode: decodes plus waiting for the next detected
/// tick. What no span covers is the residual; returns the largest
/// |1 − Σ spans / wall| over the three stages.
fn reconcile_stages(out: &RunOutcome, ticks: &[TickSpans], report: &mut Vec<String>) -> f64 {
    let n = ticks.len();
    if n < 2 {
        return 0.0;
    }
    // Transmit stage, from the first tick's ready time to the last submit.
    let tx_wall = secs(out.ready[0], ticks[n - 1].submit);
    let mut tx_spans: f64 = 0.0;
    for (t, tick) in ticks.iter().enumerate() {
        tx_spans += tick.tx_busy + secs(out.ready[t], out.started[t]);
        if let Some(&next_ready) = out.ready.get(t + 1) {
            tx_spans += secs(tick.submit, next_ready);
        }
    }
    // Detect stage, between consecutive pool-run exits.
    let (mut det_wall, mut det_spans) = (0.0, 0.0);
    // Decode stage, between consecutive ticks' last deliveries.
    let (mut dec_wall, mut dec_spans) = (0.0, 0.0);
    for t in 1..n {
        let (prev, cur) = (&ticks[t - 1], &ticks[t]);
        let window = secs(prev.run.1, cur.run.1);
        let run = secs(cur.run.0, cur.run.1);
        // Between runs the stage first scatters and hands off the last
        // tick (covered until that tick's first decode starts), then
        // waits for the next job (covered until it was submitted).
        let handed_off = prev.decodes.first().map_or(prev.run.1, |d| d.0);
        let covered_until = handed_off.max(cur.submit).min(cur.run.0);
        det_wall += window;
        det_spans += run + secs(prev.run.1, covered_until);

        let (Some(prev), Some(cur)) = (prev.decodes.last(), cur.decodes.last()) else {
            continue;
        };
        let window = secs(prev.1, cur.1);
        let busy: f64 = ticks[t].decodes.iter().map(|d| secs(d.0, d.1)).sum();
        let first_entry = ticks[t].decodes.first().map_or(prev.1, |d| d.0);
        dec_wall += window;
        dec_spans += busy + secs(prev.1, first_entry);
    }
    let stages = [
        ("transmit", tx_wall, tx_spans),
        ("detect", det_wall, det_spans),
        ("decode", dec_wall, dec_spans),
    ];
    let mut worst = 0.0f64;
    for (name, wall, spans) in stages {
        let r = 1.0 - spans / wall.max(1e-12);
        worst = worst.max(r.abs());
        report.push(format!(
            "reconciliation ({name} stage): wall {:.3} s, spans {:.3} s, residual_frac {r:.4}",
            wall, spans
        ));
    }
    worst
}
