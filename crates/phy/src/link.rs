//! End-to-end coded uplink simulation.
//!
//! One "packet exchange" follows the paper's §5.1 methodology: `Nt` users
//! each encode an independent payload with the 802.11 rate-1/2
//! convolutional code, interleave it, map it onto QAM symbols across the
//! 48 data subcarriers of consecutive OFDM symbols, and transmit
//! simultaneously. The AP detects every subcarrier of every OFDM symbol
//! with the configured detector, then each user's stream is deinterleaved,
//! Viterbi-decoded and compared to the sent payload.
//!
//! Channels are block fading: one `H` per packet (the paper's channels are
//! static over a packet, §5). Payload length is configurable; the paper's
//! 500-kByte packets only rescale PER at fixed BER, so the harness default
//! (see `flexcore-sim`) uses shorter packets and documents the scaling in
//! EXPERIMENTS.md.

use crate::ofdm::OfdmConfig;
use flexcore_channel::MimoChannel;
use flexcore_coding::{crc_check, CodeRate, ConvCode, Interleaver};
use flexcore_detect::common::Detector;
use flexcore_engine::{
    ChannelStream, DetectedFrame, FrameChannel, FrameEngine, RxFrame, StreamingCell,
};
use flexcore_modulation::Constellation;
use flexcore_numeric::Cx;
use flexcore_parallel::PePool;
use rand::Rng;

/// Link-level simulation parameters.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// OFDM numerology.
    pub ofdm: OfdmConfig,
    /// Modulation shared by all users.
    pub constellation: Constellation,
    /// Convolutional code rate (the paper uses 1/2 throughout).
    pub rate: CodeRate,
    /// Per-user payload in bytes.
    pub payload_bytes: usize,
}

impl LinkConfig {
    /// The paper's configuration at a test-friendly payload size.
    pub fn paper_default(constellation: Constellation, payload_bytes: usize) -> Self {
        LinkConfig {
            ofdm: OfdmConfig::wifi20(),
            constellation,
            rate: CodeRate::Half,
            payload_bytes,
        }
    }

    /// Coded bits per user per OFDM symbol.
    pub fn bits_per_ofdm_symbol(&self) -> usize {
        self.ofdm.n_data * self.constellation.bits_per_symbol()
    }

    /// Number of OFDM symbols needed to carry one packet.
    pub fn ofdm_symbols_per_packet(&self) -> usize {
        let code = ConvCode::new(self.rate);
        let coded = code.coded_len(self.payload_bytes * 8);
        coded.div_ceil(self.bits_per_ofdm_symbol())
    }

    /// Airtime of one packet in seconds.
    pub fn packet_airtime_s(&self) -> f64 {
        self.ofdm_symbols_per_packet() as f64 * self.ofdm.symbol_duration_s()
    }
}

/// Result of one simulated packet exchange.
#[derive(Clone, Debug)]
pub struct LinkOutcome {
    /// Per-user packet success flags.
    pub user_ok: Vec<bool>,
    /// Per-user uncoded (pre-Viterbi) bit error counts.
    pub raw_bit_errors: Vec<usize>,
    /// Total coded bits per user (for BER computation).
    pub coded_bits_per_user: usize,
}

/// Result of one packet exchange over a *streaming* channel: the usual
/// [`LinkOutcome`] plus the MAC-observable CRC-32 delivery check behind
/// goodput accounting.
#[derive(Clone, Debug)]
pub struct StreamedOutcome {
    /// The cell user (user-group) this packet belongs to; `0` for the
    /// single-stream entry points.
    pub user: usize,
    /// The link-layer outcome, bit-identical in semantics to the framed
    /// block-fading paths.
    pub link: LinkOutcome,
    /// Per-stream CRC-32 frame check of the decoded payload against the
    /// transmitted one ([`flexcore_coding::crc_check`]) — what a real MAC
    /// acks on. Agrees with `link.user_ok` except for the 2⁻³² collision
    /// case.
    pub crc_ok: Vec<bool>,
}

impl LinkOutcome {
    /// Fraction of users whose packet failed.
    pub fn packet_error_rate(&self) -> f64 {
        let fails = self.user_ok.iter().filter(|&&ok| !ok).count();
        fails as f64 / self.user_ok.len() as f64
    }

    /// Mean uncoded BER across users.
    pub fn raw_ber(&self) -> f64 {
        let total: usize = self.raw_bit_errors.iter().sum();
        total as f64 / (self.coded_bits_per_user * self.user_ok.len()) as f64
    }
}

/// Per-user transmit chains: random payloads → convolutional encode → pad →
/// interleave. Returns `(payloads, interleaved coded streams)`. Shared by
/// the sequential and frame-engine packet paths, which must consume the RNG
/// in exactly the same order to stay bit-identical.
pub(crate) fn transmit_chains<R: Rng + ?Sized>(
    cfg: &LinkConfig,
    nt: usize,
    rng: &mut R,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let code = ConvCode::new(cfg.rate);
    let il = Interleaver::new(cfg.ofdm.n_data, cfg.constellation.bits_per_symbol());
    let n_sym = cfg.ofdm_symbols_per_packet();
    let bits_per_sym = cfg.bits_per_ofdm_symbol();
    let payload_bits = cfg.payload_bytes * 8;
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(nt);
    let mut coded_streams: Vec<Vec<u8>> = Vec::with_capacity(nt);
    for _ in 0..nt {
        let payload: Vec<u8> = (0..payload_bits).map(|_| rng.gen_range(0..2u8)).collect();
        let mut coded = code.encode(&payload);
        // Pad the final OFDM symbol with zero bits.
        coded.resize(n_sym * bits_per_sym, 0);
        let interleaved = il.interleave_stream(&coded);
        payloads.push(payload);
        coded_streams.push(interleaved);
    }
    (payloads, coded_streams)
}

/// The transmitted MIMO vector at `(symbol, subcarrier)`: user `u` sends
/// its next `bps` coded bits as one constellation point.
pub(crate) fn tx_vector(
    cfg: &LinkConfig,
    coded_streams: &[Vec<u8>],
    sym_idx: usize,
    sc: usize,
) -> Vec<Cx> {
    let c = &cfg.constellation;
    let bps = c.bits_per_symbol();
    let bit_base = sym_idx * cfg.bits_per_ofdm_symbol() + sc * bps;
    coded_streams
        .iter()
        .map(|stream| {
            let bits = &stream[bit_base..bit_base + bps];
            c.point(c.bits_to_index(bits))
        })
        .collect()
}

/// Receive chains: deinterleave → Viterbi → compare against the payloads.
/// Also returns the decoded payloads so streamed callers can run the
/// MAC-style CRC delivery check on exactly what the decoder produced.
pub(crate) fn receive_chains_decoded(
    cfg: &LinkConfig,
    payloads: &[Vec<u8>],
    coded_streams: &[Vec<u8>],
    detected_bits: &[Vec<u8>],
) -> (LinkOutcome, Vec<Vec<u8>>) {
    let code = ConvCode::new(cfg.rate);
    let il = Interleaver::new(cfg.ofdm.n_data, cfg.constellation.bits_per_symbol());
    let n_sym = cfg.ofdm_symbols_per_packet();
    let bits_per_sym = cfg.bits_per_ofdm_symbol();
    let payload_bits = cfg.payload_bytes * 8;
    let nt = payloads.len();
    let mut user_ok = Vec::with_capacity(nt);
    let mut raw_bit_errors = Vec::with_capacity(nt);
    let mut decoded_payloads = Vec::with_capacity(nt);
    for u in 0..nt {
        let deinterleaved = il.deinterleave_stream(&detected_bits[u]);
        let raw_errs = deinterleaved
            .iter()
            .zip(il.deinterleave_stream(&coded_streams[u]).iter())
            .filter(|(a, b)| a != b)
            .count();
        let coded_len = code.coded_len(payload_bits);
        let decoded = code.decode(&deinterleaved[..coded_len], payload_bits);
        user_ok.push(decoded == payloads[u]);
        raw_bit_errors.push(raw_errs);
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

/// Receive chains: deinterleave → Viterbi → compare against the payloads.
fn receive_chains(
    cfg: &LinkConfig,
    payloads: &[Vec<u8>],
    coded_streams: &[Vec<u8>],
    detected_bits: &[Vec<u8>],
) -> LinkOutcome {
    receive_chains_decoded(cfg, payloads, coded_streams, detected_bits).0
}

/// Flattens a detected frame back into per-stream coded-bit streams —
/// the demapping step every hard receive path shares.
pub(crate) fn collect_detected_bits(
    cfg: &LinkConfig,
    detected: &DetectedFrame,
    nt: usize,
) -> Vec<Vec<u8>> {
    let c = &cfg.constellation;
    let n_sc = cfg.ofdm.n_data;
    let n_sym = detected.n_symbols();
    let bits_per_sym = cfg.bits_per_ofdm_symbol();
    let mut detected_bits: Vec<Vec<u8>> = vec![Vec::with_capacity(n_sym * bits_per_sym); nt];
    for sym_idx in 0..n_sym {
        for sc in 0..n_sc {
            for (u, &sym) in detected.get(sym_idx, sc).iter().enumerate() {
                detected_bits[u].extend(c.index_to_bits(sym));
            }
        }
    }
    detected_bits
}

/// The per-stream CRC delivery check: `crc_ok[u]` iff the decoded payload
/// of stream `u` carries the transmitted payload's CRC-32.
pub(crate) fn crc_flags(payloads: &[Vec<u8>], decoded: &[Vec<u8>]) -> Vec<bool> {
    payloads
        .iter()
        .zip(decoded)
        .map(|(sent, got)| crc_check(sent, got))
        .collect()
}

/// Simulates one packet exchange over the given channel with the given
/// detector. The detector must already be `prepare`d for `channel.h`.
pub fn simulate_packet<R: Rng + ?Sized>(
    cfg: &LinkConfig,
    channel: &MimoChannel,
    detector: &dyn Detector,
    rng: &mut R,
) -> LinkOutcome {
    let nt = channel.nt();
    let c = &cfg.constellation;
    let n_sym = cfg.ofdm_symbols_per_packet();
    let bits_per_sym = cfg.bits_per_ofdm_symbol();
    let (payloads, coded_streams) = transmit_chains(cfg, nt, rng);

    // Transmit symbol-by-symbol, subcarrier-by-subcarrier, detect, collect.
    let mut detected_bits: Vec<Vec<u8>> = vec![Vec::with_capacity(n_sym * bits_per_sym); nt];
    for sym_idx in 0..n_sym {
        for sc in 0..cfg.ofdm.n_data {
            let tx = tx_vector(cfg, &coded_streams, sym_idx, sc);
            let y = channel.transmit(&tx, rng);
            let decided = detector.detect(&y);
            for (u, &sym) in decided.iter().enumerate() {
                detected_bits[u].extend(c.index_to_bits(sym));
            }
        }
    }

    receive_chains(cfg, &payloads, &coded_streams, &detected_bits)
}

/// Simulates one packet exchange through the frame engine: the whole
/// packet's `(subcarrier × symbol)` grid is detected in one
/// [`FrameEngine::detect_frame`] call on the given PE pool, instead of one
/// [`Detector::detect`] call at a time.
///
/// Consumes the RNG in exactly [`simulate_packet`]'s order and relies on
/// the engine's bit-identity guarantee, so with equal seeds the outcome is
/// **bit-for-bit identical** to [`simulate_packet`] run on an equally
/// prepared detector — on any pool.
pub fn simulate_packet_framed<R, D, P>(
    cfg: &LinkConfig,
    channel: &MimoChannel,
    engine: &mut FrameEngine<D>,
    pool: &P,
    rng: &mut R,
) -> LinkOutcome
where
    R: Rng + ?Sized,
    D: Detector + Clone + Sync,
    P: PePool,
{
    // Block fading: one H for the whole packet, prepared at the channel's
    // own noise variance.
    engine.prepare(&FrameChannel::from_mimo(channel, cfg.ofdm.n_data));
    simulate_packet_framed_prepared(cfg, channel, engine, pool, rng)
}

/// Like [`simulate_packet_framed`] but trusts the engine's existing
/// preparation — for callers that prepare at an explicit `σ²` different
/// from the channel's (noise-mismatch studies, [`packet_error_rate`]'s
/// signature) or manage a persistent [`FrameChannel`] themselves.
pub fn simulate_packet_framed_prepared<R, D, P>(
    cfg: &LinkConfig,
    channel: &MimoChannel,
    engine: &FrameEngine<D>,
    pool: &P,
    rng: &mut R,
) -> LinkOutcome
where
    R: Rng + ?Sized,
    D: Detector + Clone + Sync,
    P: PePool,
{
    let nt = channel.nt();
    let n_sc = cfg.ofdm.n_data;
    let n_sym = cfg.ofdm_symbols_per_packet();
    let (payloads, coded_streams) = transmit_chains(cfg, nt, rng);

    // Build the received frame, drawing noise in simulate_packet's order.
    let mut frame = RxFrame::empty(n_sc);
    for sym_idx in 0..n_sym {
        let mut row = Vec::with_capacity(n_sc);
        for sc in 0..n_sc {
            let tx = tx_vector(cfg, &coded_streams, sym_idx, sc);
            row.push(channel.transmit(&tx, rng));
        }
        frame.push_symbol(row);
    }
    let detected = engine.detect_frame(&frame, pool);
    let detected_bits = collect_detected_bits(cfg, &detected, nt);
    receive_chains(cfg, &payloads, &coded_streams, &detected_bits)
}

/// Simulates one packet exchange over a **streaming** channel: the packet's
/// frame passes through the stream's *truth* channels while detection runs
/// against its (possibly stale) *estimates* through the frame engine.
///
/// Reuses `transmit_chains` and draws noise in exactly
/// [`simulate_packet_framed`]'s order, so on a frozen (zero-Doppler)
/// [`ChannelStream`] holding the same `H` and `σ²` the outcome is
/// **bit-for-bit identical** to the block-fading framed path — the bridge
/// `tests/coded_streaming.rs` enforces. The stream is *not* advanced here;
/// the caller ages it between packets (or not, for block fading).
pub fn simulate_packet_streamed<R, D, P>(
    cfg: &LinkConfig,
    stream: &ChannelStream,
    engine: &mut FrameEngine<D>,
    pool: &P,
    rng: &mut R,
) -> StreamedOutcome
where
    R: Rng + ?Sized,
    D: Detector + Clone + Sync,
    P: PePool,
{
    assert_eq!(
        stream.n_subcarriers(),
        cfg.ofdm.n_data,
        "simulate_packet_streamed: stream width != OFDM data subcarriers"
    );
    let nt = stream.truth(0).cols();
    let n_sym = cfg.ofdm_symbols_per_packet();
    let (payloads, coded_streams) = transmit_chains(cfg, nt, rng);
    let frame = stream.transmit_frame(
        n_sym,
        |sym_idx, sc| tx_vector(cfg, &coded_streams, sym_idx, sc),
        rng,
    );
    engine.prepare(stream.estimate());
    let detected = engine.detect_frame(&frame, pool);
    let detected_bits = collect_detected_bits(cfg, &detected, nt);
    let (link, decoded) = receive_chains_decoded(cfg, &payloads, &coded_streams, &detected_bits);
    StreamedOutcome {
        user: 0,
        link,
        crc_ok: crc_flags(&payloads, &decoded),
    }
}

/// One multi-user serving tick, hard detection: every cell user ages one
/// frame interval, transmits one whole packet through its truth channels
/// (`transmit_chains` per user, each on its *own* RNG so a user's
/// traffic is independent of who else is scheduled), and all users'
/// `(subcarrier × symbol)` grids are detected in **one** shared pool run
/// ([`StreamingCell::detect_tick`]). Per user: deinterleave → Viterbi →
/// CRC-32 delivery check.
///
/// Each user's detections — and therefore its [`StreamedOutcome`] — are
/// bit-identical to running that user alone in a single-user cell with the
/// same seeds, whatever the user mix (the multiuser bench's identity gate).
///
/// # Panics
/// Panics unless `rngs.len() == cell.n_users()`, every stream matches
/// `cfg.ofdm.n_data` subcarriers, and every user's queue is empty on
/// entry — the tick pops each user's *oldest* queued frame and decodes it
/// against *this* tick's transmit chains, so a pre-queued frame would be
/// silently paired with the wrong payloads.
pub fn cell_packet_tick<R, D, P>(
    cfg: &LinkConfig,
    cell: &mut StreamingCell<D>,
    pool: &P,
    rngs: &mut [R],
) -> Vec<StreamedOutcome>
where
    R: Rng,
    D: Detector + Clone + Sync,
    P: PePool,
{
    let chains = cell_transmit_tick(cfg, cell, rngs);
    let detected = cell.detect_tick(pool);
    detected
        .into_iter()
        .map(|(u, frame)| {
            let (payloads, coded_streams) = &chains[u];
            let detected_bits = collect_detected_bits(cfg, &frame, payloads.len());
            let (link, decoded) =
                receive_chains_decoded(cfg, payloads, coded_streams, &detected_bits);
            StreamedOutcome {
                user: u,
                link,
                crc_ok: crc_flags(payloads, &decoded),
            }
        })
        .collect()
}

/// One user's transmit-tick product: `(payloads, interleaved coded streams)`.
pub(crate) type TxTickOutput = (Vec<Vec<u8>>, Vec<Vec<u8>>);

/// The transmit half of a serving tick, shared by the hard and soft paths:
/// advances every user, runs its transmit chains, passes the packet frame
/// through its truth channels, and queues it. Returns each user's
/// `(payloads, interleaved coded streams)`.
pub(crate) fn cell_transmit_tick<R, D>(
    cfg: &LinkConfig,
    cell: &mut StreamingCell<D>,
    rngs: &mut [R],
) -> Vec<TxTickOutput>
where
    R: Rng,
    D: Detector + Clone + Sync,
{
    assert_eq!(
        rngs.len(),
        cell.n_users(),
        "cell_packet_tick: one RNG per user"
    );
    let n_sym = cfg.ofdm_symbols_per_packet();
    let mut chains = Vec::with_capacity(cell.n_users());
    for (u, rng) in rngs.iter_mut().enumerate() {
        assert_eq!(
            cell.stream(u).n_subcarriers(),
            cfg.ofdm.n_data,
            "cell_packet_tick: user {u} stream width != OFDM data subcarriers"
        );
        assert_eq!(
            cell.pending(u),
            0,
            "cell_packet_tick: user {u} already has a queued frame — the tick \
             decodes the oldest queued frame against this tick's transmit \
             chains, so the queue must be drained before serving"
        );
        cell.advance_user(u, rng);
        let nt = cell.stream(u).truth(0).cols();
        let (payloads, coded_streams) = transmit_chains(cfg, nt, rng);
        let frame = cell.stream(u).transmit_frame(
            n_sym,
            |sym_idx, sc| tx_vector(cfg, &coded_streams, sym_idx, sc),
            rng,
        );
        cell.submit(u, frame);
        chains.push((payloads, coded_streams));
    }
    chains
}

/// Measures the mean packet error rate over `n_packets` packets with a
/// fresh channel draw (block fading) per packet.
///
/// `draw_channel` supplies each packet's channel (e.g. from an ensemble or
/// a recorded trace set) and `detector.prepare` is re-run per packet —
/// exactly the paper's per-channel pre-processing amortisation.
pub fn packet_error_rate<R: Rng + ?Sized>(
    cfg: &LinkConfig,
    detector: &mut dyn Detector,
    n_packets: usize,
    sigma2: f64,
    mut draw_channel: impl FnMut(&mut R) -> MimoChannel,
    rng: &mut R,
) -> f64 {
    let mut fails = 0usize;
    let mut total = 0usize;
    for _ in 0..n_packets {
        let ch = draw_channel(rng);
        detector.prepare(&ch.h, sigma2);
        let out = simulate_packet(cfg, &ch, detector, rng);
        fails += out.user_ok.iter().filter(|&&ok| !ok).count();
        total += out.user_ok.len();
    }
    fails as f64 / total as f64
}

/// Frame-parallel, drop-in counterpart of [`packet_error_rate`]: same
/// signature semantics (preparation at the explicit `sigma2`, transmission
/// at each drawn channel's own `sigma2`), with every packet's detection
/// grid running on the pool through the engine. With equal seeds the
/// measured PER is bit-identical to [`packet_error_rate`] for the same
/// detector design.
pub fn packet_error_rate_framed<R, D, P>(
    cfg: &LinkConfig,
    engine: &mut FrameEngine<D>,
    pool: &P,
    n_packets: usize,
    sigma2: f64,
    mut draw_channel: impl FnMut(&mut R) -> MimoChannel,
    rng: &mut R,
) -> f64
where
    R: Rng + ?Sized,
    D: Detector + Clone + Sync,
    P: PePool,
{
    let mut fails = 0usize;
    let mut total = 0usize;
    for _ in 0..n_packets {
        let ch = draw_channel(rng);
        engine.prepare(&FrameChannel::flat(ch.h.clone(), sigma2, cfg.ofdm.n_data));
        let out = simulate_packet_framed_prepared(cfg, &ch, engine, pool, rng);
        fails += out.user_ok.iter().filter(|&&ok| !ok).count();
        total += out.user_ok.len();
    }
    fails as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble};
    use flexcore_detect::{MmseDetector, SphereDecoder};
    use flexcore_modulation::Modulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg16(payload: usize) -> LinkConfig {
        LinkConfig::paper_default(Constellation::new(Modulation::Qam16), payload)
    }

    #[test]
    fn packet_geometry() {
        let cfg = cfg16(120);
        // 120 B = 960 info bits → 1932 coded (with tail) at rate 1/2;
        // 48·4 = 192 coded bits per OFDM symbol → 11 symbols.
        assert_eq!(cfg.bits_per_ofdm_symbol(), 192);
        assert_eq!(cfg.ofdm_symbols_per_packet(), 11);
        assert!((cfg.packet_airtime_s() - 44e-6).abs() < 1e-12);
    }

    #[test]
    fn clean_channel_delivers_all_packets() {
        let cfg = cfg16(60);
        let mut rng = StdRng::seed_from_u64(1);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let snr = 60.0;
        let ch = MimoChannel::new(h.clone(), snr);
        let mut det = SphereDecoder::new(cfg.constellation.clone());
        det.prepare(&h, sigma2_from_snr_db(snr));
        let out = simulate_packet(&cfg, &ch, &det, &mut rng);
        assert!(out.user_ok.iter().all(|&ok| ok));
        assert_eq!(out.packet_error_rate(), 0.0);
        assert_eq!(out.raw_ber(), 0.0);
    }

    #[test]
    fn noisy_channel_fails_packets() {
        let cfg = cfg16(60);
        let mut rng = StdRng::seed_from_u64(2);
        let mut det = MmseDetector::new(cfg.constellation.clone());
        let ens = ChannelEnsemble::iid(4, 4);
        let snr = 2.0; // far below the 16-QAM waterfall
        let per = packet_error_rate(
            &cfg,
            &mut det,
            6,
            sigma2_from_snr_db(snr),
            |r| MimoChannel::new(ens.draw(r), snr),
            &mut rng,
        );
        assert!(per > 0.8, "PER at 2 dB should be near 1, got {per}");
    }

    #[test]
    fn per_is_monotone_in_snr() {
        let cfg = cfg16(40);
        let ens = ChannelEnsemble::iid(4, 4);
        let mut pers = Vec::new();
        for snr in [6.0, 14.0, 30.0] {
            let mut det = SphereDecoder::new(cfg.constellation.clone());
            let mut rng = StdRng::seed_from_u64(3);
            let per = packet_error_rate(
                &cfg,
                &mut det,
                12,
                sigma2_from_snr_db(snr),
                |r| MimoChannel::new(ens.draw(r), snr),
                &mut rng,
            );
            pers.push(per);
        }
        assert!(pers[0] >= pers[1] && pers[1] >= pers[2], "{pers:?}");
        assert!(pers[2] < 0.1, "30 dB should be nearly clean: {pers:?}");
    }

    #[test]
    fn framed_packet_is_bit_identical_to_sequential() {
        use flexcore_engine::FrameEngine;
        use flexcore_parallel::{CrossbeamPool, PePool, SequentialPool};
        let snr = 14.0;
        // Replays the same seed for every run: identical channel draw,
        // payloads, and noise.
        fn framed<P: PePool>(cfg: &LinkConfig, snr: f64, seed: u64, pool: &P) -> LinkOutcome {
            let ens = ChannelEnsemble::iid(4, 4);
            let mut rng = StdRng::seed_from_u64(seed);
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h, snr);
            let mut engine = FrameEngine::new(SphereDecoder::new(cfg.constellation.clone()));
            simulate_packet_framed(cfg, &ch, &mut engine, pool, &mut rng)
        }
        let cfg = cfg16(60);
        let ens = ChannelEnsemble::iid(4, 4);
        for seed in [1u64, 2, 3] {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr);
            let mut det = SphereDecoder::new(cfg.constellation.clone());
            det.prepare(&h, sigma2_from_snr_db(snr));
            let reference = simulate_packet(&cfg, &ch, &det, &mut rng);

            let outs = [
                framed(&cfg, snr, seed, &SequentialPool::new(4)),
                framed(&cfg, snr, seed, &CrossbeamPool::new(4)),
                framed(&cfg, snr, seed, &CrossbeamPool::work_queue(4)),
            ];
            for out in &outs {
                assert_eq!(out.user_ok, reference.user_ok, "seed {seed}");
                assert_eq!(out.raw_bit_errors, reference.raw_bit_errors, "seed {seed}");
                assert_eq!(out.coded_bits_per_user, reference.coded_bits_per_user);
            }
        }
    }

    #[test]
    fn framed_per_matches_sequential_per() {
        use flexcore_engine::FrameEngine;
        use flexcore_parallel::CrossbeamPool;
        let cfg = cfg16(40);
        let ens = ChannelEnsemble::iid(4, 4);
        let snr = 14.0;
        let sigma2 = sigma2_from_snr_db(snr);

        let mut det = SphereDecoder::new(cfg.constellation.clone());
        let mut rng_a = StdRng::seed_from_u64(7);
        let per_seq = packet_error_rate(
            &cfg,
            &mut det,
            5,
            sigma2,
            |r| MimoChannel::new(ens.draw(r), snr),
            &mut rng_a,
        );

        let mut engine = FrameEngine::new(SphereDecoder::new(cfg.constellation.clone()));
        let pool = CrossbeamPool::work_queue(4);
        let mut rng_b = StdRng::seed_from_u64(7);
        let per_framed = packet_error_rate_framed(
            &cfg,
            &mut engine,
            &pool,
            5,
            sigma2,
            |r| MimoChannel::new(ens.draw(r), snr),
            &mut rng_b,
        );
        assert_eq!(per_seq, per_framed);
        assert_eq!(engine.stats().frames, 5);
    }

    #[test]
    fn adaptive_framed_uplink_is_bit_identical_and_batch_scheduled() {
        use flexcore::AdaptiveFlexCore;
        use flexcore_engine::FrameEngine;
        use flexcore_parallel::CrossbeamPool;
        // a-FlexCore as the engine template: the whole coded packet must
        // equal the sequential per-vector adaptive uplink bit-for-bit, and
        // every subcarrier slot must have been served by the batch fast
        // path (the PR 3 bugfix), never the per-vector fallback.
        let cfg = cfg16(50);
        let ens = ChannelEnsemble::iid(4, 4);
        let snr = 15.0;
        for seed in [31u64, 32] {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr);
            let mut det = AdaptiveFlexCore::new(cfg.constellation.clone(), 16, 0.95);
            det.prepare(&h, sigma2_from_snr_db(snr));
            let reference = simulate_packet(&cfg, &ch, &det, &mut rng);

            let mut rng = StdRng::seed_from_u64(seed);
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h, snr);
            let mut engine =
                FrameEngine::new(AdaptiveFlexCore::new(cfg.constellation.clone(), 16, 0.95));
            let pool = CrossbeamPool::work_queue(4);
            let framed = simulate_packet_framed(&cfg, &ch, &mut engine, &pool, &mut rng);

            assert_eq!(framed.user_ok, reference.user_ok, "seed {seed}");
            assert_eq!(
                framed.raw_bit_errors, reference.raw_bit_errors,
                "seed {seed}"
            );
            for sc in 0..cfg.ofdm.n_data {
                let slot = engine.detector(sc);
                assert!(slot.batch_calls() > 0, "sc {sc} skipped the batch path");
                assert_eq!(slot.vector_calls(), 0, "sc {sc} fell back per-vector");
            }
            // The engine exposes the paper's Fig. 10 quantity at packet
            // scale: mean active PEs over the prepared band.
            let stats = engine.stats();
            assert!(stats.mean_effort() >= 1.0 && stats.mean_effort() <= 16.0);
        }
    }

    #[test]
    fn cell_tick_is_bit_identical_to_single_user_cells() {
        // A 3-user hard tick must reproduce, per user, the outcome of that
        // user alone in a 1-user cell with the same seeds — the sharding
        // is ordering-only all the way through the coded chains.
        use flexcore::FlexCoreDetector;
        use flexcore_channel::ChannelEnsemble;
        use flexcore_engine::StreamingCell;
        use flexcore_parallel::{CrossbeamPool, SequentialPool};
        let cfg = cfg16(30);
        let snr = 18.0;
        let mk_stream = |seed: u64| {
            let ens = ChannelEnsemble::iid(4, 4);
            let mut rng = StdRng::seed_from_u64(seed);
            flexcore_engine::ChannelStream::new(
                &ens,
                cfg.ofdm.n_data,
                0.97,
                4,
                sigma2_from_snr_db(snr),
                &mut rng,
            )
        };
        let mut cell = StreamingCell::new();
        for seed in [91u64, 92, 93] {
            cell.add_user(
                mk_stream(seed),
                FlexCoreDetector::with_pes(cfg.constellation.clone(), 8),
            );
        }
        let mut rngs: Vec<StdRng> = (0..3).map(|u| StdRng::seed_from_u64(700 + u)).collect();
        let pool = CrossbeamPool::work_queue(3);
        for round in 0..2 {
            let outs = cell_packet_tick(&cfg, &mut cell, &pool, &mut rngs);
            assert_eq!(outs.len(), 3);
            for (u, seed) in [91u64, 92, 93].into_iter().enumerate() {
                let mut solo = StreamingCell::new();
                solo.add_user(
                    mk_stream(seed),
                    FlexCoreDetector::with_pes(cfg.constellation.clone(), 8),
                );
                let mut solo_rngs = vec![StdRng::seed_from_u64(700 + u as u64)];
                let mut solo_out = Vec::new();
                for _ in 0..=round {
                    solo_out =
                        cell_packet_tick(&cfg, &mut solo, &SequentialPool::new(1), &mut solo_rngs);
                }
                assert_eq!(outs[u].link.user_ok, solo_out[0].link.user_ok, "user {u}");
                assert_eq!(
                    outs[u].link.raw_bit_errors, solo_out[0].link.raw_bit_errors,
                    "round {round} user {u}"
                );
                assert_eq!(outs[u].crc_ok, solo_out[0].crc_ok);
            }
        }
        // The cell served every user every tick: nobody fell behind.
        let stats = cell.stats();
        assert_eq!(stats.max_frames_behind, 0);
        assert_eq!(stats.frames_completed, 6);
    }

    #[test]
    fn crc_flags_agree_with_payload_comparison() {
        // Same workload as the frozen-channel regression: at a workable
        // SNR the CRC delivery check and the simulator's payload equality
        // must tell the same story.
        use flexcore_engine::{ChannelStream, FrameEngine};
        use flexcore_parallel::SequentialPool;
        let cfg = cfg16(40);
        let ens = ChannelEnsemble::iid(4, 4);
        let snr = 16.0;
        for seed in [1u64, 5, 9] {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = ens.draw(&mut rng);
            let stream = ChannelStream::frozen(h, cfg.ofdm.n_data, sigma2_from_snr_db(snr));
            let mut engine = FrameEngine::new(SphereDecoder::new(cfg.constellation.clone()));
            let out = simulate_packet_streamed(
                &cfg,
                &stream,
                &mut engine,
                &SequentialPool::new(1),
                &mut rng,
            );
            assert_eq!(out.crc_ok, out.link.user_ok, "seed {seed}");
        }
    }

    #[test]
    fn coding_repairs_residual_symbol_errors() {
        // At a moderate SNR the raw BER is non-zero but the convolutional
        // code should still deliver most packets — the mechanism behind the
        // throughput "cliff" in Fig. 9.
        let cfg = cfg16(40);
        let mut rng = StdRng::seed_from_u64(4);
        let ens = ChannelEnsemble::iid(4, 4);
        let snr = 17.0;
        let h = ens.draw(&mut rng);
        let ch = MimoChannel::new(h.clone(), snr);
        let mut det = SphereDecoder::new(cfg.constellation.clone());
        det.prepare(&h, sigma2_from_snr_db(snr));
        let mut raw = 0.0;
        let mut ok = 0usize;
        let n = 12;
        for _ in 0..n {
            let out = simulate_packet(&cfg, &ch, &det, &mut rng);
            raw += out.raw_ber();
            ok += out.user_ok.iter().filter(|&&k| k).count();
        }
        let _ = raw / n as f64;
        // At least some packets delivered despite raw errors.
        assert!(ok > 0, "expected some successes");
    }
}
