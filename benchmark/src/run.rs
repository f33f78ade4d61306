//! One pipelined run of a workload: `PipelinedCell::run` on a real
//! thread pool, with the chain's stages in its closures.

use crate::stats::{process_cpu_s, read_proc_stat, steal_frac, steal_of_demand};
use crate::trace::Tracer;
use crate::workload::{crc_flags, digest, rng_for, Cell, Chain, Salt, Workload};
use flexcore::CellDetector;
use flexcore_engine::PipelinedCell;
use flexcore_parallel::PePool;
use std::cell::Cell as Flag;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Open-loop tick schedule: tick `t` is due at `start + t·period`, and
/// every latency is counted from that due time, so a stalled generator
/// charges its delay to every tick it pushed back.
#[derive(Clone, Copy, Debug)]
pub struct Pacer {
    start: Instant,
    period: Duration,
}

impl Pacer {
    pub fn new(start: Instant, period: Duration) -> Pacer {
        Pacer { start, period }
    }

    /// When tick `t` is due.
    pub fn due(&self, tick: u64) -> Instant {
        self.start
            + self
                .period
                .saturating_mul(u32::try_from(tick).unwrap_or(u32::MAX))
    }

    /// Sleeps until tick `t` is due; returns at once if it is overdue.
    pub fn wait(&self, tick: u64) -> Instant {
        let due = self.due(tick);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        Instant::now()
    }
}

/// The instant each tick's latency is counted from: its due time under a
/// schedule, its start otherwise. A late start never moves a due time.
pub fn reference_times(pacer: Option<Pacer>, started: &[Instant]) -> Vec<Instant> {
    match pacer {
        Some(p) => (0..started.len() as u64).map(|t| p.due(t)).collect(),
        None => started.to_vec(),
    }
}

/// How long a run lasts.
#[derive(Clone, Copy, Debug)]
pub enum Length {
    /// Exactly this many ticks (the identity gate).
    Ticks(u64),
    /// Until this much wall time has passed: paced workloads offer
    /// `seconds / period` ticks, closed loops stop generating at the
    /// deadline and drain.
    Seconds(f64),
}

/// Each in-flight frame's transmitted payloads, by `(tick, user)`, from
/// the transmit stage to the decode stage's CRC check.
type SentPayloads = HashMap<(u64, usize), Vec<Vec<u8>>>;

/// One decoded frame.
#[derive(Clone, Debug)]
pub struct FrameRecord {
    pub tick: u64,
    pub user: usize,
    /// When its CRC check finished.
    pub delivered: Instant,
    pub streams: usize,
    pub crc_pass: usize,
    pub digest: u64,
    /// The raw detection grid, kept only for the identity gate.
    pub cells: Option<Vec<Cell>>,
}

/// Everything one run measured.
pub struct RunOutcome {
    /// Per tick: when the generator was ready to start it.
    pub ready: Vec<Instant>,
    /// Per tick: when it started (after any pacing sleep).
    pub started: Vec<Instant>,
    /// Per tick: the time latency is counted from (due or start).
    pub reference: Vec<Instant>,
    pub frames: Vec<FrameRecord>,
    pub run_start: Instant,
    pub cpu_s: f64,
    /// Share of all host CPU time the hypervisor stole during the run.
    pub steal_frac: f64,
    /// Share of the time the CPUs wanted to run that it stole.
    pub steal_of_demand: f64,
    pub missing_payloads: u64,
    pub subcarriers_refreshed: u64,
    pub vectors: u64,
    pub tasks: u64,
    pub batches: u64,
}

/// Runs `cell` on `pool` for `length`, recording spans into `tracer` when
/// one is given. Untraced runs take no timestamps beyond what the
/// end-to-end metrics need.
pub fn run<P: PePool + Sync>(
    w: &Workload,
    seed: u64,
    cell: &mut PipelinedCell<CellDetector>,
    pool: &P,
    length: Length,
    keep_cells: bool,
    tracer: Option<&Tracer>,
) -> RunOutcome {
    let chain = Chain::new(w);
    let chain = &chain;
    let users = w.users;
    let engine_before = engine_counts(cell, users);
    let (tasks_before, batches_before) = (pool.stats().tasks(), pool.stats().batches());

    let n_ticks = match (length, w.period) {
        (Length::Ticks(n), _) => n,
        (Length::Seconds(s), Some(period)) => (s / period.as_secs_f64()).floor().max(1.0) as u64,
        (Length::Seconds(s), None) => (s * w.max_ticks_per_s).ceil().max(1.0) as u64,
    };
    let stop_after = match length {
        Length::Seconds(s) if w.period.is_none() => Some(Duration::from_secs_f64(s)),
        _ => None,
    };

    let stopped = Flag::new(false);
    let stopped = &stopped;
    let payloads: Mutex<SentPayloads> = Mutex::new(HashMap::new());
    let payloads = &payloads;
    let mut ready = Vec::new();
    let mut started = Vec::new();
    let mut frames: Vec<FrameRecord> = Vec::new();
    let mut missing = 0u64;

    let steal_before = read_proc_stat();
    let cpu_before = process_cpu_s();
    let run_start = Instant::now();
    let pacer = w.period.map(|p| Pacer::new(run_start, p));

    cell.run(
        pool,
        n_ticks,
        w.deadline.as_secs_f64(),
        |tick, u, stream| {
            if u == 0 {
                let now = Instant::now();
                if stop_after.is_some_and(|d| now - run_start >= d) {
                    stopped.set(true);
                }
                if stopped.get() {
                    return;
                }
                ready.push(now);
                started.push(pacer.map_or(now, |p| p.wait(tick)));
            }
            if stopped.get() {
                return;
            }
            let t0 = tracer.map(|_| Instant::now());
            stream.advance(&mut rng_for(seed, tick, u, Salt::Advance));
            if let (Some(tr), Some(t0)) = (tracer, t0) {
                tr.advance(tick, u, t0, Instant::now());
            }
        },
        |tick, u, stream| {
            if stopped.get() {
                return None;
            }
            let t0 = tracer.map(|_| Instant::now());
            let mut rng = rng_for(seed, tick, u, Salt::Transmit);
            let enc = chain.encode(&mut rng);
            let t1 = tracer.map(|_| Instant::now());
            let frame = chain.transmit(stream, &enc, &mut rng);
            if let (Some(tr), Some(t0), Some(t1)) = (tracer, t0, t1) {
                tr.transmit(tick, u, [t0, t1, Instant::now()]);
            }
            payloads
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert((tick, u), enc.payloads);
            Some(frame)
        },
        |det, _u, _sc, ys| {
            let t0 = tracer.map(|_| Instant::now());
            let out = chain.detect(det, ys);
            if let (Some(tr), Some(t0)) = (tracer, t0) {
                tr.detect(t0, Instant::now(), ys.len(), det);
            }
            out
        },
        |tick, out| {
            let t0 = Instant::now();
            let sent = payloads
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&(tick, out.user));
            let Some(sent) = sent else {
                missing += 1;
                return;
            };
            let demapped = chain.demap(&out.cells);
            let t1 = tracer.map(|_| Instant::now());
            let decoded = chain.viterbi(&demapped);
            let t2 = tracer.map(|_| Instant::now());
            let crc = crc_flags(&sent, &decoded);
            let delivered = Instant::now();
            if let (Some(tr), Some(t1), Some(t2)) = (tracer, t1, t2) {
                tr.decode(tick, out.user, [t0, t1, t2, delivered]);
            }
            frames.push(FrameRecord {
                tick,
                user: out.user,
                delivered,
                streams: crc.len(),
                crc_pass: crc.iter().filter(|&&ok| ok).count(),
                digest: digest(&out.cells, &decoded, &crc),
                cells: keep_cells.then(|| out.cells.clone()),
            });
        },
        |_, _| false,
    );

    let cpu_s = process_cpu_s() - cpu_before;
    let steal_after = read_proc_stat();
    let reference = reference_times(pacer, &started);
    let engine_after = engine_counts(cell, users);
    RunOutcome {
        ready,
        started,
        reference,
        frames,
        run_start,
        cpu_s,
        steal_frac: steal_frac(steal_before, steal_after),
        steal_of_demand: steal_of_demand(steal_before, steal_after),
        missing_payloads: missing,
        subcarriers_refreshed: engine_after.0 - engine_before.0,
        vectors: engine_after.1 - engine_before.1,
        tasks: pool.stats().tasks() - tasks_before,
        batches: pool.stats().batches() - batches_before,
    }
}

/// `(subcarriers refreshed, vectors detected)` summed over the users.
fn engine_counts(cell: &PipelinedCell<CellDetector>, users: usize) -> (u64, u64) {
    (0..users).fold((0, 0), |(r, v), u| {
        let s = cell.engine(u).stats();
        (r + s.subcarriers_refreshed, v + s.vectors)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_due_time_after_a_generator_stall() {
        let start = Instant::now();
        let ms = |v: u64| Duration::from_millis(v);
        let pacer = Pacer::new(start, ms(10));
        // Tick 0 starts on time, then the generator stalls for 35 ms:
        // ticks 1..=3 all start at 35 ms, and each is delivered 1 ms
        // after it starts.
        let started = [start, start + ms(35), start + ms(35), start + ms(35)];
        let reference = reference_times(Some(pacer), &started);
        let latency_ms: Vec<u128> = started
            .iter()
            .zip(&reference)
            .map(|(&s, &r)| (s + ms(1) - r).as_millis())
            .collect();
        // Counted from the due times 0, 10, 20, 30 ms, not from the
        // delayed starts (which would read 1 ms each).
        assert_eq!(latency_ms, [1, 26, 16, 6]);
        // A closed loop has no schedule: latency runs from the start.
        assert_eq!(reference_times(None, &started), started);
        // An overdue tick is started at once, without sleeping.
        let pacer = Pacer::new(Instant::now() - ms(500), ms(10));
        let before = Instant::now();
        pacer.wait(3);
        assert!(before.elapsed() < ms(10));
    }
}
