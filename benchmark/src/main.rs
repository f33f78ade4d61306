//! The coded-uplink benchmark.
//!
//! ```text
//! flexcore-uplink-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every invocation first gates correctness: the pipelined cell's
//! detections must be bit-identical to a barrier `StreamingCell` run on a
//! `SequentialPool` over the first ticks of the same seed. `--trace 0`
//! then measures the end-to-end metrics on an untraced run; `--trace 1`
//! runs untraced and traced back to back, checks that both delivered the
//! same decisions, and reports the per-layer metrics from the traced run.
//! The last line of standard output is one JSON object.

mod run;
mod stats;
mod trace;
mod workload;

use flexcore::CellDetector;
use flexcore_bench::{assert_grid_identity, GridView};
use flexcore_engine::{PipelinedCell, StreamingCell};
use flexcore_parallel::{CrossbeamPool, SequentialPool};
use run::{run, FrameRecord, Length, RunOutcome};
use stats::{cpu_model, peak_rss_mb, read_proc_stat, steal_of_demand, summarize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{analyse, Metric, TracedPool, Tracer};
use workload::{rng_for, Cell, Chain, Salt, Workload, POOL_PES};

/// Set-ups timed per invocation; `setup_s` is a median over them.
const SETUP_REPS: usize = 9;
/// The first stretch of a run is warm-up: it counts toward correctness
/// and CPU but not toward rate or latency.
const WARMUP: Duration = Duration::from_millis(500);
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (expected one of {})",
            Workload::NAMES.join(", ")
        )
    })?;
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"))
    };
    let seconds = num("seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn host_tag() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} cpu=\"{}\" target-cpu={} lanes_enabled={}",
        cpu_model(),
        env!("BENCH_TARGET_CPU"),
        flexcore_numeric::lanes::lanes_enabled()
    )
}

/// The bit-identity gate: the benchmark's own pipelined run over the
/// first `gate_ticks` ticks against a barrier `StreamingCell` tick on a
/// `SequentialPool` with the same PE count (hence the same batch split),
/// cell for cell, with every soft LLR compared bitwise.
fn identity_gate(w: &Workload, seed: u64) -> Result<String, String> {
    let chain = Chain::new(w);
    let mut barrier = StreamingCell::new();
    for u in 0..w.users {
        barrier.add_user(w.stream(seed, u), w.template());
    }
    let mut want: Vec<(u64, usize, Vec<Cell>)> = Vec::new();
    for tick in 0..w.gate_ticks {
        for u in 0..w.users {
            barrier.advance_user(u, &mut rng_for(seed, tick, u, Salt::Advance));
            let mut rng = rng_for(seed, tick, u, Salt::Transmit);
            let enc = chain.encode(&mut rng);
            let frame = chain.transmit(barrier.stream(u), &enc, &mut rng);
            barrier.submit(u, frame);
        }
        let outs = barrier.process_tick(&SequentialPool::new(POOL_PES), |det, _u, _sc, ys| {
            chain.detect(det, ys)
        });
        want.extend(outs.into_iter().map(|o| (tick, o.user, o.cells)));
    }

    let mut cell = w.build_cell(seed);
    let pool = CrossbeamPool::work_queue(POOL_PES);
    let got = run(
        w,
        seed,
        &mut cell,
        &pool,
        Length::Ticks(w.gate_ticks),
        true,
        None,
    );
    if got.frames.len() != want.len() {
        return Err(format!(
            "pipelined run decoded {} frames, barrier {}",
            got.frames.len(),
            want.len()
        ));
    }
    let n_sc = w.n_subcarriers;
    let checked = catch_unwind(AssertUnwindSafe(|| {
        for (frame, (tick, user, cells)) in got.frames.iter().zip(&want) {
            let label = format!("{} identity (tick {tick}, user {user})", w.name);
            assert_eq!((frame.tick, frame.user), (*tick, *user), "{label}: order");
            // A frame without its grid fails the size check below.
            let gcells = frame.cells.as_deref().unwrap_or(&[]);
            assert_grid_identity(&label, &view(n_sc, gcells), &view(n_sc, cells));
            // Every LLR position as its own metric plane, compared bitwise.
            let planes = match cells.first() {
                Some(Cell::Soft(s)) => s.llrs.len() * s.llrs.first().map_or(0, Vec::len),
                _ => 0,
            };
            for k in 0..planes {
                let plane = |cells: &[Cell]| -> Vec<f64> {
                    cells
                        .iter()
                        .map(|c| match c {
                            Cell::Soft(s) => s.llrs.iter().flatten().nth(k).copied().unwrap_or(0.0),
                            Cell::Hard(_) => 0.0,
                        })
                        .collect()
                };
                let (pg, pw) = (plane(gcells), plane(cells));
                assert_grid_identity(
                    &label,
                    &view(n_sc, gcells).with_metrics(&pg),
                    &view(n_sc, cells).with_metrics(&pw),
                );
            }
        }
    }));
    checked.map_err(|_| "detections differ from the barrier reference".to_string())?;
    Ok(format!(
        "identity gate: pipelined (CrossbeamPool work_queue({POOL_PES})) == barrier \
         StreamingCell (SequentialPool({POOL_PES})) over {} ticks, {} frames, hard symbols{}",
        w.gate_ticks,
        want.len(),
        if w.soft { " + every LLR bitwise" } else { "" }
    ))
}

fn view(n_sc: usize, cells: &[Cell]) -> GridView<'_> {
    GridView::new(n_sc, cells.iter().map(Cell::hard).collect())
}

/// Builds the cell `SETUP_REPS` times and returns the last one with the
/// median build time, in steal-free seconds.
fn timed_setup(w: &Workload, seed: u64) -> (PipelinedCell<CellDetector>, f64) {
    let steal_before = read_proc_stat();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut cell = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let c = w.build_cell(seed);
        times.push(t0.elapsed().as_secs_f64());
        cell = Some(c);
    }
    let free = 1.0 - steal_of_demand(steal_before, read_proc_stat());
    let cell = cell.unwrap_or_else(|| w.build_cell(seed));
    (cell, summarize(&times).median * free)
}

/// The end-to-end view of one untraced run.
struct EndToEnd {
    frames_per_s: f64,
    goodput_mbps: f64,
    cpu_ms_per_frame: f64,
    crc_pass_frac: f64,
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    latency_samples: usize,
    latency_iqr_ms: (f64, f64),
    wall_frames_per_s: f64,
    wall_latency_p50_ms: f64,
    deadline_hit_frac: f64,
    attempted: usize,
    failed: usize,
    ticks: usize,
}

fn latency_s(out: &RunOutcome, f: &FrameRecord) -> f64 {
    f.delivered
        .saturating_duration_since(out.reference[f.tick as usize])
        .as_secs_f64()
}

fn end_to_end(w: &Workload, out: &RunOutcome) -> EndToEnd {
    // Rate counts the frames delivered after the warm-up; latency covers
    // the frames of ticks whose reference time falls after it. Latency is
    // timed in steal-free seconds, and so is a closed loop's rate, which
    // the host's speed sets; an open loop's rate is its wall-clock
    // schedule.
    let free = 1.0 - out.steal_of_demand;
    let rate_free = if w.period.is_some() { 1.0 } else { free };
    let warm_end = out.run_start + WARMUP;
    let last = out
        .frames
        .iter()
        .map(|f| f.delivered)
        .max()
        .unwrap_or(warm_end);
    let delivered = out.frames.iter().filter(|f| f.delivered > warm_end).count();
    let wall_frames_per_s = delivered as f64
        / last
            .saturating_duration_since(warm_end)
            .as_secs_f64()
            .max(1e-9);
    let frames_per_s = wall_frames_per_s / rate_free;
    let latencies: Vec<f64> = out
        .frames
        .iter()
        .filter(|f| out.reference[f.tick as usize] >= warm_end)
        .map(|f| latency_s(out, f) * 1e3)
        .collect();
    let lat = summarize(&latencies);

    let good: usize = out.frames.iter().map(|f| f.crc_pass).sum();
    let attempted: usize = out.frames.iter().map(|f| f.streams).sum();
    let goodput_mbps =
        frames_per_s * (good * w.payload_bits()) as f64 / out.frames.len().max(1) as f64 / 1e6;

    let deadline = w.deadline.as_secs_f64();
    let mut failed = 0;
    let mut hits = 0;
    for f in &out.frames {
        let on_time = latency_s(out, f) <= deadline;
        let late = w.period.is_some() && !on_time;
        failed += if late {
            f.streams
        } else {
            f.streams - f.crc_pass
        };
        if on_time && f.crc_pass == f.streams {
            hits += 1;
        }
    }
    let n = out.frames.len().max(1) as f64;
    EndToEnd {
        frames_per_s,
        goodput_mbps,
        cpu_ms_per_frame: out.cpu_s * 1e3 / n,
        crc_pass_frac: good as f64 / attempted.max(1) as f64,
        latency_p50_ms: lat.median * free,
        latency_p99_ms: lat.p99 * free,
        latency_samples: lat.n,
        latency_iqr_ms: (lat.q1 * free, lat.q3 * free),
        wall_frames_per_s,
        wall_latency_p50_ms: lat.median,
        deadline_hit_frac: hits as f64 / n,
        attempted,
        failed,
        ticks: out.started.len(),
    }
}

/// Whole-run checks every invocation makes: every offered frame came back
/// with its payload.
fn delivery_check(w: &Workload, out: &RunOutcome) -> Result<(), String> {
    let offered = out.started.len() * w.users;
    if out.frames.len() != offered || out.missing_payloads != 0 {
        return Err(format!(
            "{} frames offered, {} decoded, {} without a payload",
            offered,
            out.frames.len(),
            out.missing_payloads
        ));
    }
    Ok(())
}

/// Traced and untraced runs of one seed must agree on every tick both
/// reached: same decisions (digest) and same CRC verdicts.
fn agreement_check(a: &RunOutcome, b: &RunOutcome) -> Result<String, String> {
    let key = |f: &FrameRecord| ((f.tick, f.user), (f.digest, f.streams - f.crc_pass));
    let ma: BTreeMap<_, _> = a.frames.iter().map(key).collect();
    let mb: BTreeMap<_, _> = b.frames.iter().map(key).collect();
    let common = a.started.len().min(b.started.len()) as u64;
    let mut compared = 0;
    let (mut fail_a, mut fail_b) = (0, 0);
    for (k, va) in ma.range(..(common, 0)) {
        let Some(vb) = mb.get(k) else {
            return Err(format!("frame {k:?} missing from the traced run"));
        };
        if va.0 != vb.0 {
            return Err(format!("frame {k:?}: decision digests differ"));
        }
        fail_a += va.1;
        fail_b += vb.1;
        compared += 1;
    }
    if fail_a != fail_b {
        return Err(format!("CRC failures differ: {fail_a} vs {fail_b}"));
    }
    Ok(format!(
        "traced == untraced: {compared} frames over {common} common ticks, equal digests, \
         {fail_a} CRC failures each"
    ))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line. It is printed only when every correctness check
/// passed; a failed check exits non-zero instead.
fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn untraced_metrics(e: &EndToEnd, setup_s: f64) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", setup_s, "s"),
        m("frames_per_s", e.frames_per_s, "1/s"),
        m("goodput_mbps", e.goodput_mbps, "Mbit/s"),
        m("crc_pass_frac", e.crc_pass_frac, "fraction"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
        m("latency_p50_ms", e.latency_p50_ms, "ms"),
        m("deadline_hit_frac", e.deadline_hit_frac, "fraction"),
    ]
}

fn bench(args: &Args) -> Result<(usize, usize, Vec<Metric>), String> {
    let w = &args.workload;
    println!("{}", host_tag());
    println!(
        "workload: {} seed={} seconds={} trace={} ({} user(s) x {}x{} {}, N_PE={}{}, {}, \
         {} sc x {} sym, fd*dt={}, refresh={}, {} dB, {})",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.users,
        w.antennas,
        w.antennas,
        w.modulation.name(),
        w.n_pe,
        w.threshold.map_or(String::new(), |t| format!(", t={t}")),
        if w.soft { "soft" } else { "hard" },
        w.n_subcarriers,
        w.n_symbols,
        w.fd_dt,
        w.refresh_period,
        w.snr_db,
        match w.period {
            Some(p) => format!("open loop, one tick per {} ms", p.as_secs_f64() * 1e3),
            None => "closed loop".to_string(),
        }
    );
    let gate = identity_gate(w, args.seed)?;
    println!("{gate}");

    let pool = CrossbeamPool::work_queue(POOL_PES);
    let (mut cell, setup_s) = timed_setup(w, args.seed);
    let untraced = run(
        w,
        args.seed,
        &mut cell,
        &pool,
        Length::Seconds(args.seconds),
        false,
        None,
    );
    delivery_check(w, &untraced)?;
    let e = end_to_end(w, &untraced);
    println!(
        "untraced run: {} ticks, {} frames; host.steal_frac {:.4}, {:.4} of the CPUs' demand, \
         so steal-free times are wall × {:.4}; wall: {:.3} frames/s, latency p50 {:.3} ms",
        e.ticks,
        untraced.frames.len(),
        untraced.steal_frac,
        untraced.steal_of_demand,
        1.0 - untraced.steal_of_demand,
        e.wall_frames_per_s,
        e.wall_latency_p50_ms,
    );
    println!(
        "latency after the {} ms warm-up, {} frames (steal-free): quartiles {:.3}–{:.3} ms, \
         p99 {:.3} ms; process CPU {:.3} ms per frame",
        WARMUP.as_millis(),
        e.latency_samples,
        e.latency_iqr_ms.0,
        e.latency_iqr_ms.1,
        e.latency_p99_ms,
        e.cpu_ms_per_frame,
    );

    if !args.trace {
        let metrics = untraced_metrics(&e, setup_s);
        print_metrics("end-to-end metrics:", &metrics);
        return Ok((e.attempted, e.failed, metrics));
    }

    let tracer = Tracer::default();
    let traced_pool = TracedPool::new(CrossbeamPool::work_queue(POOL_PES), &tracer);
    let mut cell = w.build_cell(args.seed);
    let traced = run(
        w,
        args.seed,
        &mut cell,
        &traced_pool,
        Length::Seconds(args.seconds),
        false,
        Some(&tracer),
    );
    delivery_check(w, &traced)?;
    println!("{}", agreement_check(&untraced, &traced)?);
    let t = end_to_end(w, &traced);
    let mut analysis = analyse(w, &tracer, &traced, t.frames_per_s, e.frames_per_s);
    // The latency tail and the CPU cost follow the hypervisor's steal on
    // a shared host: they are reported here, beside host.steal_frac, not
    // gated end to end.
    analysis.metrics.push(Metric {
        name: "engine.pipeline.latency_p99_ms",
        value: t.latency_p99_ms,
        unit: "ms",
    });
    analysis.metrics.push(Metric {
        name: "process.cpu_ms_per_frame",
        value: t.cpu_ms_per_frame,
        unit: "ms",
    });
    for line in &analysis.report {
        println!("{line}");
    }
    print_metrics("per-layer metrics (traced run):", &analysis.metrics);
    Ok((t.attempted, t.failed, analysis.metrics))
}

fn main() -> ExitCode {
    // flexcore-lint: allow(FL005, reason = "the benchmark's command line is its input, not a runtime toggle")
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: flexcore-uplink-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok((attempted, failed, metrics)) => {
            println!("{}", result_line(attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("correctness check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
