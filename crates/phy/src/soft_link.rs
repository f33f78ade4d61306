//! Soft-decision uplink: FlexCore's list LLRs feeding a soft Viterbi.
//!
//! The end-to-end realisation of the paper's §7 extension: instead of
//! hard-slicing each detected symbol, the detector's candidate list
//! produces per-bit LLRs (`flexcore::soft`) which the deinterleaver passes
//! to the soft Viterbi decoder (`flexcore-coding::soft`). At equal SNR and
//! equal PE count the soft pipeline delivers strictly more packets — the
//! gain the paper anticipates from "soft-detectors as in \[7, 43\]".

use crate::link::{crc_flags, LinkConfig, LinkOutcome, StreamedOutcome};
use flexcore::{SoftDecision, SoftDetector};
use flexcore_channel::MimoChannel;
use flexcore_coding::{ConvCode, Interleaver};
use flexcore_engine::{ChannelStream, FrameChannel, FrameEngine, RxFrame, StreamingCell};
use flexcore_numeric::Cx;
use flexcore_parallel::PePool;
use rand::Rng;

/// Simulates one packet exchange with soft-output detection (any
/// [`SoftDetector`]: fixed FlexCore, a-FlexCore, or a mixed
/// `flexcore::CellDetector`).
///
/// The detector must already be `prepare`d for `channel.h`. Mirrors
/// [`crate::link::simulate_packet`] (same framing, same per-user coding)
/// but carries LLRs end to end.
pub fn simulate_packet_soft<R: Rng + ?Sized, D: SoftDetector>(
    cfg: &LinkConfig,
    channel: &MimoChannel,
    detector: &D,
    rng: &mut R,
) -> LinkOutcome {
    let nt = channel.nt();
    let c = &cfg.constellation;
    let bps = c.bits_per_symbol();
    let n_sym = cfg.ofdm_symbols_per_packet();
    let bits_per_sym = cfg.bits_per_ofdm_symbol();

    // Transmit chains (identical to the hard path — the shared helper
    // keeps the RNG consumption order in lockstep with simulate_packet
    // and the framed variants).
    let (payloads, coded_streams) = crate::link::transmit_chains(cfg, nt, rng);

    // Detection with LLR output.
    let mut llr_streams: Vec<Vec<f64>> = vec![Vec::with_capacity(n_sym * bits_per_sym); nt];
    let mut raw_bit_errors = vec![0usize; nt];
    for sym_idx in 0..n_sym {
        for sc in 0..cfg.ofdm.n_data {
            let bit_base = sym_idx * bits_per_sym + sc * bps;
            let tx: Vec<Cx> = (0..nt)
                .map(|u| {
                    let bits = &coded_streams[u][bit_base..bit_base + bps];
                    c.point(c.bits_to_index(bits))
                })
                .collect();
            let y = channel.transmit(&tx, rng);
            let soft = detector.detect_soft(&y, channel.sigma2);
            for u in 0..nt {
                llr_streams[u].extend(&soft.llrs[u]);
                // Raw (hard) errors for diagnostics.
                let hard_bits = c.index_to_bits(soft.hard[u]);
                for (j, &hb) in hard_bits.iter().enumerate() {
                    if hb != coded_streams[u][bit_base + j] {
                        raw_bit_errors[u] += 1;
                    }
                }
            }
        }
    }

    soft_receive_chains(cfg, &payloads, llr_streams, raw_bit_errors)
}

/// Frame-parallel variant of [`simulate_packet_soft`]: the packet's whole
/// `(subcarrier × symbol)` grid of soft detections runs on the given PE
/// pool through the frame engine's generic
/// [`FrameEngine::process_frame`] primitive.
///
/// Consumes the RNG in exactly [`simulate_packet_soft`]'s order and
/// computes identical per-vector LLRs, so with equal seeds the outcome is
/// bit-for-bit identical on any pool.
pub fn simulate_packet_soft_framed<R, D, P>(
    cfg: &LinkConfig,
    channel: &MimoChannel,
    engine: &mut FrameEngine<D>,
    pool: &P,
    rng: &mut R,
) -> LinkOutcome
where
    R: Rng + ?Sized,
    D: SoftDetector + Clone + Sync,
    P: PePool,
{
    let nt = channel.nt();
    let n_sc = cfg.ofdm.n_data;
    let n_sym = cfg.ofdm_symbols_per_packet();

    // Transmit chains and received frame, in simulate_packet_soft's RNG
    // order.
    let (payloads, coded_streams) = crate::link::transmit_chains(cfg, nt, rng);
    let mut frame = RxFrame::empty(n_sc);
    for sym_idx in 0..n_sym {
        let mut row = Vec::with_capacity(n_sc);
        for sc in 0..n_sc {
            let tx = crate::link::tx_vector(cfg, &coded_streams, sym_idx, sc);
            row.push(channel.transmit(&tx, rng));
        }
        frame.push_symbol(row);
    }

    // Soft detection of the whole grid on the pool.
    engine.prepare(&FrameChannel::from_mimo(channel, n_sc));
    let sigma2 = channel.sigma2;
    let soft_grid = engine.process_frame(&frame, pool, |det, _sc, ys| {
        ys.iter().map(|y| det.detect_soft(y, sigma2)).collect()
    });

    let (llr_streams, raw_bit_errors) = collect_llr_streams(cfg, nt, &soft_grid, &coded_streams);
    soft_receive_chains(cfg, &payloads, llr_streams, raw_bit_errors)
}

/// Soft-decision counterpart of
/// [`simulate_packet_streamed`](crate::link::simulate_packet_streamed):
/// the packet crosses the stream's **truth** channels, soft detection runs
/// against the (possibly stale) estimates on the pool, and the LLRs flow
/// deinterleave → soft Viterbi → CRC-32 delivery check.
///
/// Reuses `crate::link::transmit_chains` and draws noise in exactly the
/// hard streamed path's order, so with equal seeds the two paths see
/// identical channels, payloads and noise — at matched PE budget the soft
/// path's delivered-packet count can only match or beat the hard one's
/// (the §7 claim, now measurable under streaming). The stream is not
/// advanced; the caller ages it between packets.
pub fn simulate_packet_soft_streamed<R, D, P>(
    cfg: &LinkConfig,
    stream: &ChannelStream,
    engine: &mut FrameEngine<D>,
    pool: &P,
    rng: &mut R,
) -> StreamedOutcome
where
    R: Rng + ?Sized,
    D: SoftDetector + Clone + Sync,
    P: PePool,
{
    assert_eq!(
        stream.n_subcarriers(),
        cfg.ofdm.n_data,
        "simulate_packet_soft_streamed: stream width != OFDM data subcarriers"
    );
    let nt = stream.truth(0).cols();
    let n_sym = cfg.ofdm_symbols_per_packet();
    let (payloads, coded_streams) = crate::link::transmit_chains(cfg, nt, rng);
    let frame = stream.transmit_frame(
        n_sym,
        |sym_idx, sc| crate::link::tx_vector(cfg, &coded_streams, sym_idx, sc),
        rng,
    );
    engine.prepare(stream.estimate());
    let sigma2 = stream.estimate().sigma2();
    let soft_grid = engine.process_frame(&frame, pool, |det, _sc, ys| {
        ys.iter().map(|y| det.detect_soft(y, sigma2)).collect()
    });
    let (llr_streams, raw_bit_errors) = collect_llr_streams(cfg, nt, &soft_grid, &coded_streams);
    let (link, decoded) = soft_receive_chains_decoded(cfg, &payloads, llr_streams, raw_bit_errors);
    StreamedOutcome {
        user: 0,
        link,
        crc_ok: crc_flags(&payloads, &decoded),
    }
}

/// One multi-user serving tick, soft detection: the soft-path counterpart
/// of [`cell_packet_tick`](crate::link::cell_packet_tick). Every user ages
/// a frame interval and transmits one packet on its own RNG; all users'
/// soft detections run in **one** shared pool run through
/// [`StreamingCell::process_tick`]; each user's LLR streams then flow
/// deinterleave → soft Viterbi → CRC-32 check independently.
///
/// RNG consumption is in lockstep with the hard tick: with equal seeds
/// both ticks see identical channels, payloads and noise, and the soft
/// `raw_bit_errors` equal the hard ones (the `hard` field of every
/// [`SoftDecision`] matches [`flexcore_detect::common::Detector::detect`]).
///
/// # Panics
/// Same preconditions as [`cell_packet_tick`](crate::link::cell_packet_tick):
/// one RNG per user, matching stream widths, and every user's queue
/// drained on entry.
pub fn cell_packet_tick_soft<R, D, P>(
    cfg: &LinkConfig,
    cell: &mut StreamingCell<D>,
    pool: &P,
    rngs: &mut [R],
) -> Vec<StreamedOutcome>
where
    R: Rng,
    D: SoftDetector + Clone + Sync,
    P: PePool,
{
    let chains = crate::link::cell_transmit_tick(cfg, cell, rngs);
    let sigma2s: Vec<f64> = (0..cell.n_users())
        .map(|u| cell.stream(u).estimate().sigma2())
        .collect();
    let soft_ticks = cell.process_tick(pool, |det, u, _sc, ys| {
        ys.iter().map(|y| det.detect_soft(y, sigma2s[u])).collect()
    });
    soft_ticks
        .into_iter()
        .map(|out| {
            let u = out.user;
            let (payloads, coded_streams) = &chains[u];
            let (llr_streams, raw_bit_errors) =
                collect_llr_streams(cfg, payloads.len(), &out.cells, coded_streams);
            let (link, decoded) =
                soft_receive_chains_decoded(cfg, payloads, llr_streams, raw_bit_errors);
            StreamedOutcome {
                user: u,
                link,
                crc_ok: crc_flags(payloads, &decoded),
            }
        })
        .collect()
}

/// Reassembles a cell-major soft-decision grid into per-stream LLR
/// streams, counting raw (hard-decision) bit errors against the coded
/// streams — shared by every grid-shaped soft path.
fn collect_llr_streams(
    cfg: &LinkConfig,
    nt: usize,
    soft_grid: &[SoftDecision],
    coded_streams: &[Vec<u8>],
) -> (Vec<Vec<f64>>, Vec<usize>) {
    let c = &cfg.constellation;
    let n_sc = cfg.ofdm.n_data;
    let bps = c.bits_per_symbol();
    let bits_per_sym = cfg.bits_per_ofdm_symbol();
    let n_sym = soft_grid.len() / n_sc;
    let mut llr_streams: Vec<Vec<f64>> = vec![Vec::with_capacity(n_sym * bits_per_sym); nt];
    let mut raw_bit_errors = vec![0usize; nt];
    for sym_idx in 0..n_sym {
        for sc in 0..n_sc {
            let bit_base = sym_idx * bits_per_sym + sc * bps;
            let soft = &soft_grid[sym_idx * n_sc + sc];
            for u in 0..nt {
                llr_streams[u].extend(&soft.llrs[u]);
                let hard_bits = c.index_to_bits(soft.hard[u]);
                for (j, &hb) in hard_bits.iter().enumerate() {
                    if hb != coded_streams[u][bit_base + j] {
                        raw_bit_errors[u] += 1;
                    }
                }
            }
        }
    }
    (llr_streams, raw_bit_errors)
}

/// Soft receive chains, also returning the decoded payloads for the
/// MAC-style CRC delivery check.
fn soft_receive_chains_decoded(
    cfg: &LinkConfig,
    payloads: &[Vec<u8>],
    llr_streams: Vec<Vec<f64>>,
    raw_bit_errors: Vec<usize>,
) -> (LinkOutcome, Vec<Vec<u8>>) {
    let code = ConvCode::new(cfg.rate);
    let il = Interleaver::new(cfg.ofdm.n_data, cfg.constellation.bits_per_symbol());
    let n_sym = cfg.ofdm_symbols_per_packet();
    let bits_per_sym = cfg.bits_per_ofdm_symbol();
    let payload_bits = cfg.payload_bytes * 8;
    let coded_len = code.coded_len(payload_bits);
    let mut user_ok = Vec::with_capacity(payloads.len());
    let mut decoded_payloads = Vec::with_capacity(payloads.len());
    for (payload, llrs) in payloads.iter().zip(&llr_streams) {
        let deinterleaved = deinterleave_f64(&il, llrs);
        let decoded = code.decode_soft(&deinterleaved[..coded_len], payload_bits);
        user_ok.push(decoded == *payload);
        decoded_payloads.push(decoded);
    }
    (
        LinkOutcome {
            user_ok,
            raw_bit_errors,
            coded_bits_per_user: n_sym * bits_per_sym,
        },
        decoded_payloads,
    )
}

/// Soft receive chains shared by the sequential and framed packet paths:
/// deinterleave LLRs → soft Viterbi → compare against the payloads.
fn soft_receive_chains(
    cfg: &LinkConfig,
    payloads: &[Vec<u8>],
    llr_streams: Vec<Vec<f64>>,
    raw_bit_errors: Vec<usize>,
) -> LinkOutcome {
    soft_receive_chains_decoded(cfg, payloads, llr_streams, raw_bit_errors).0
}

/// Deinterleaves a multi-block LLR stream (same permutation as the bit
/// deinterleaver, applied to `f64` values).
fn deinterleave_f64(il: &Interleaver, llrs: &[f64]) -> Vec<f64> {
    let block = il.block_len();
    assert_eq!(llrs.len() % block, 0, "LLR stream not block-aligned");
    let mut out = Vec::with_capacity(llrs.len());
    for chunk in llrs.chunks(block) {
        let mut dst = vec![0.0f64; block];
        for (j, &v) in chunk.iter().enumerate() {
            dst[il.source_index(j)] = v;
        }
        out.extend(dst);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::simulate_packet;
    use flexcore::FlexCoreDetector;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble};
    use flexcore_detect::common::Detector;
    use flexcore_modulation::{Constellation, Modulation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_channel_soft_delivers() {
        let c = Constellation::new(Modulation::Qam16);
        let cfg = LinkConfig::paper_default(c.clone(), 40);
        let mut rng = StdRng::seed_from_u64(1);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let snr = 40.0;
        let ch = MimoChannel::new(h.clone(), snr);
        let mut det = FlexCoreDetector::with_pes(c, 16);
        det.prepare(&h, sigma2_from_snr_db(snr));
        let out = simulate_packet_soft(&cfg, &ch, &det, &mut rng);
        assert!(out.user_ok.iter().all(|&k| k));
    }

    #[test]
    fn soft_delivers_at_least_as_many_packets_as_hard() {
        // The §7 expectation: list-LLR decoding beats hard slicing at the
        // same SNR and PE budget (aggregate over several channels).
        let c = Constellation::new(Modulation::Qam16);
        let cfg = LinkConfig::paper_default(c.clone(), 40);
        let ens = ChannelEnsemble::iid(6, 6);
        let snr = 10.0;
        let (mut soft_ok, mut hard_ok) = (0usize, 0usize);
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr);
            let mut det = FlexCoreDetector::with_pes(c.clone(), 24);
            det.prepare(&h, sigma2_from_snr_db(snr));
            let mut rng_a = StdRng::seed_from_u64(1000 + seed);
            let mut rng_b = StdRng::seed_from_u64(1000 + seed);
            soft_ok += simulate_packet_soft(&cfg, &ch, &det, &mut rng_a)
                .user_ok
                .iter()
                .filter(|&&k| k)
                .count();
            hard_ok += simulate_packet(&cfg, &ch, &det, &mut rng_b)
                .user_ok
                .iter()
                .filter(|&&k| k)
                .count();
        }
        // Max-log list LLRs dominate in expectation; with 60 packets the
        // Monte-Carlo noise is about ±2 packets, so allow a one-packet
        // deficit while still rejecting any systematic soft-path bug.
        assert!(
            soft_ok + 1 >= hard_ok,
            "soft delivered {soft_ok} vs hard {hard_ok}"
        );
        assert!(
            soft_ok > 30,
            "soft path should deliver most packets: {soft_ok}"
        );
    }

    #[test]
    fn framed_soft_packet_is_bit_identical_to_sequential() {
        use flexcore_parallel::{CrossbeamPool, SequentialPool};
        let c = Constellation::new(Modulation::Qam16);
        let cfg = LinkConfig::paper_default(c.clone(), 40);
        let ens = ChannelEnsemble::iid(4, 4);
        let snr = 12.0;
        for seed in [1u64, 2] {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr);
            let mut det = FlexCoreDetector::with_pes(c.clone(), 16);
            det.prepare(&h, sigma2_from_snr_db(snr));
            let reference = simulate_packet_soft(&cfg, &ch, &det, &mut rng);

            let seq = SequentialPool::new(4);
            let queue = CrossbeamPool::work_queue(4);
            for run in 0..2 {
                let mut rng = StdRng::seed_from_u64(seed);
                let h = ens.draw(&mut rng);
                let ch = MimoChannel::new(h, snr);
                let mut engine = FrameEngine::new(FlexCoreDetector::with_pes(c.clone(), 16));
                let out = if run == 0 {
                    simulate_packet_soft_framed(&cfg, &ch, &mut engine, &seq, &mut rng)
                } else {
                    simulate_packet_soft_framed(&cfg, &ch, &mut engine, &queue, &mut rng)
                };
                assert_eq!(out.user_ok, reference.user_ok, "seed {seed} run {run}");
                assert_eq!(out.raw_bit_errors, reference.raw_bit_errors);
            }
        }
    }

    #[test]
    fn soft_tick_is_rng_lockstepped_with_hard_tick() {
        // With equal seeds the soft tick sees the same channels, payloads
        // and noise as the hard tick, so the raw (hard-decision) bit error
        // counts must agree exactly, and the soft path must deliver at
        // least as many CRC-passing packets.
        use crate::link::cell_packet_tick;
        use flexcore::CellDetector;
        use flexcore_engine::{ChannelStream, StreamingCell};
        use flexcore_parallel::SequentialPool;
        let c = Constellation::new(Modulation::Qam16);
        let cfg = LinkConfig::paper_default(c.clone(), 30);
        let snr = 11.0; // noisy enough for raw errors, coded mostly saves
        let build_cell = || {
            let ens = ChannelEnsemble::iid(4, 4);
            let mut cell = StreamingCell::new();
            for (i, seed) in [301u64, 302].into_iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed);
                let stream = ChannelStream::new(
                    &ens,
                    cfg.ofdm.n_data,
                    0.98,
                    4,
                    sigma2_from_snr_db(snr),
                    &mut rng,
                );
                let det = if i == 0 {
                    CellDetector::fixed(c.clone(), 16)
                } else {
                    CellDetector::adaptive(c.clone(), 16, 0.95)
                };
                cell.add_user(stream, det);
            }
            cell
        };
        let pool = SequentialPool::new(2);
        let mk_rngs =
            || -> Vec<StdRng> { (0..2).map(|u| StdRng::seed_from_u64(900 + u)).collect() };
        let mut hard_cell = build_cell();
        let mut soft_cell = build_cell();
        let (mut hard_rngs, mut soft_rngs) = (mk_rngs(), mk_rngs());
        let mut soft_delivered = 0usize;
        let mut hard_delivered = 0usize;
        for round in 0..3 {
            let hard = cell_packet_tick(&cfg, &mut hard_cell, &pool, &mut hard_rngs);
            let soft = cell_packet_tick_soft(&cfg, &mut soft_cell, &pool, &mut soft_rngs);
            for (h, s) in hard.iter().zip(&soft) {
                assert_eq!(
                    h.link.raw_bit_errors, s.link.raw_bit_errors,
                    "round {round} user {}",
                    h.user
                );
                hard_delivered += h.crc_ok.iter().filter(|&&k| k).count();
                soft_delivered += s.crc_ok.iter().filter(|&&k| k).count();
            }
        }
        assert!(
            soft_delivered >= hard_delivered,
            "soft {soft_delivered} vs hard {hard_delivered}"
        );
        assert!(soft_delivered > 0, "workload too hard to be informative");
    }

    #[test]
    fn llr_deinterleaver_matches_bit_deinterleaver() {
        let il = Interleaver::new(48, 4);
        let mut rng = StdRng::seed_from_u64(3);
        use rand::Rng as _;
        let bits: Vec<u8> = (0..il.block_len()).map(|_| rng.gen_range(0..2)).collect();
        let interleaved = il.interleave(&bits);
        // Encode bits as signed LLRs and push through the f64 path.
        let llrs: Vec<f64> = interleaved
            .iter()
            .map(|&b| if b == 0 { 5.0 } else { -5.0 })
            .collect();
        let de = deinterleave_f64(&il, &llrs);
        let back: Vec<u8> = de.iter().map(|&l| u8::from(l < 0.0)).collect();
        assert_eq!(back, bits);
    }
}
