//! The three workloads and the coded uplink chain they drive.
//!
//! Everything a run feeds the program is drawn from the workload seed:
//! channel streams from `(seed, user)`, channel aging, payloads and noise
//! from `(seed, tick, user)`. Timing never reaches an input, so a seed
//! fixes every decision the cell makes.

use flexcore::{CellDetector, SoftDecision, SoftDetector};
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, GaussMarkovChannel};
use flexcore_coding::{crc_check, CodeRate, ConvCode, Interleaver};
use flexcore_detect::common::Detector;
use flexcore_engine::{ChannelStream, PipelinedCell, RxFrame};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::Cx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One benchmark workload: cell shape, detector, coding and load.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub users: usize,
    /// Antennas per side (`nt = nr`).
    pub antennas: usize,
    pub modulation: Modulation,
    pub n_pe: usize,
    /// a-FlexCore stopping threshold; `None` is fixed FlexCore-`n_pe`.
    pub threshold: Option<f64>,
    /// Soft LLRs + soft Viterbi, or hard batch detection + hard Viterbi.
    pub soft: bool,
    pub n_subcarriers: usize,
    pub n_symbols: usize,
    pub fd_dt: f64,
    pub refresh_period: usize,
    pub snr_db: f64,
    /// Open loop: one tick due every `period`. `None` is a closed loop
    /// throttled only by the pipeline's bounded queues.
    pub period: Option<Duration>,
    /// A frame delivered later than this after its due (open loop) or
    /// start (closed loop) time misses its deadline.
    pub deadline: Duration,
    /// Upper bound on ticks per second for a closed-loop run — a safety
    /// cap far above what the chain reaches.
    pub max_ticks_per_s: f64,
    /// Ticks the identity gate replays on the barrier cell.
    pub gate_ticks: u64,
}

/// Worker threads in the detection pool of every workload.
pub const POOL_PES: usize = 2;

impl Workload {
    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = match name {
            "cell_paced" => Workload {
                name: "cell_paced",
                users: 4,
                antennas: 4,
                modulation: Modulation::Qam16,
                n_pe: 16,
                threshold: Some(0.95),
                soft: true,
                n_subcarriers: 48,
                n_symbols: 4,
                fd_dt: 0.002,
                refresh_period: 4,
                snr_db: 30.0,
                period: Some(Duration::from_millis(24)),
                deadline: Duration::from_millis(200),
                max_ticks_per_s: 0.0,
                gate_ticks: 3,
            },
            "fastfade_saturate" => Workload {
                name: "fastfade_saturate",
                users: 2,
                antennas: 8,
                modulation: Modulation::Qam64,
                n_pe: 32,
                threshold: None,
                soft: true,
                n_subcarriers: 48,
                n_symbols: 2,
                fd_dt: 0.05,
                refresh_period: 1,
                snr_db: 30.0,
                period: None,
                deadline: Duration::from_millis(1000),
                max_ticks_per_s: 2000.0,
                gate_ticks: 3,
            },
            "massive64_saturate" => Workload {
                name: "massive64_saturate",
                users: 1,
                antennas: 64,
                modulation: Modulation::Qpsk,
                n_pe: 64,
                threshold: None,
                soft: false,
                n_subcarriers: 48,
                n_symbols: 14,
                fd_dt: 0.01,
                refresh_period: 4,
                snr_db: 14.0,
                period: None,
                deadline: Duration::from_millis(5000),
                max_ticks_per_s: 200.0,
                gate_ticks: 2,
            },
            _ => return None,
        };
        Some(w)
    }

    pub const NAMES: [&'static str; 3] = ["cell_paced", "fastfade_saturate", "massive64_saturate"];

    pub fn constellation(&self) -> Constellation {
        Constellation::new(self.modulation)
    }

    pub fn template(&self) -> CellDetector {
        match self.threshold {
            Some(t) => CellDetector::adaptive(self.constellation(), self.n_pe, t),
            None => CellDetector::fixed(self.constellation(), self.n_pe),
        }
    }

    pub fn sigma2(&self) -> f64 {
        sigma2_from_snr_db(self.snr_db)
    }

    /// Coded bits one stream carries per frame.
    pub fn coded_bits(&self) -> usize {
        self.n_subcarriers * self.n_symbols * self.modulation.bits_per_symbol()
    }

    /// The largest rate-1/2 payload (after the 6 tail bits) that fits a
    /// frame.
    pub fn payload_bits(&self) -> usize {
        let code = ConvCode::new(CodeRate::Half);
        let mut bits = self.coded_bits() / 2;
        while code.coded_len(bits) > self.coded_bits() {
            bits -= 1;
        }
        bits
    }

    /// User `u`'s channel stream.
    pub fn stream(&self, seed: u64, user: usize) -> ChannelStream {
        let ens = ChannelEnsemble::iid(self.antennas, self.antennas);
        let rho = GaussMarkovChannel::rho_from_doppler(self.fd_dt);
        let mut rng = StdRng::seed_from_u64(mix(seed, 0, user as u64, Salt::Stream));
        ChannelStream::new(
            &ens,
            self.n_subcarriers,
            rho,
            self.refresh_period,
            self.sigma2(),
            &mut rng,
        )
    }

    /// The benchmark's set-up: every user's stream drawn and its engine
    /// prepared against the initial estimates.
    pub fn build_cell(&self, seed: u64) -> PipelinedCell<CellDetector> {
        let mut cell = PipelinedCell::new();
        for u in 0..self.users {
            cell.add_user(self.stream(seed, u), self.template());
        }
        cell
    }

    /// Shape-computed bytes of prepared detector state one frame's
    /// detection reads: per subcarrier, `Q^H` (nr·nt) and the upper
    /// triangle of `R` as 16-byte complex values, plus one u16 symbol
    /// position per tree level for each of the `n_pe` paths.
    pub fn prepared_bytes_per_frame(&self) -> f64 {
        let n = self.antennas;
        let per_sc = 16 * (n * n + n * (n + 1) / 2) + 2 * self.n_pe * n;
        (self.n_subcarriers * per_sc) as f64
    }
}

/// What a seed-derived RNG is for, so streams never share a sequence.
#[derive(Clone, Copy)]
pub enum Salt {
    Stream = 1,
    Advance = 2,
    Transmit = 3,
}

/// SplitMix64 over `(seed, tick, user, salt)`.
pub fn mix(seed: u64, tick: u64, user: u64, salt: Salt) -> u64 {
    let mut z = seed
        ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ user.wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ (salt as u64).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded RNG for one `(tick, user)` step.
pub fn rng_for(seed: u64, tick: u64, user: usize, salt: Salt) -> StdRng {
    StdRng::seed_from_u64(mix(seed, tick, user as u64, salt))
}

/// One grid cell's detection output.
#[derive(Clone, Debug)]
pub enum Cell {
    Soft(SoftDecision),
    Hard(Vec<usize>),
}

impl Cell {
    /// The hard symbol decisions, one per stream.
    pub fn hard(&self) -> &[usize] {
        match self {
            Cell::Soft(s) => &s.hard,
            Cell::Hard(h) => h,
        }
    }
}

/// The shared coding blocks of a workload's chain.
pub struct Chain {
    w: Workload,
    code: ConvCode,
    il: Interleaver,
    c: Constellation,
}

/// One user's transmit side of one frame: a payload per stream, and the
/// interleaved coded bits that ride the air.
pub struct Encoded {
    pub payloads: Vec<Vec<u8>>,
    coded: Vec<Vec<u8>>,
}

/// Per-stream receive input to the decoder, deinterleaved.
pub enum Demapped {
    Llrs(Vec<Vec<f64>>),
    Bits(Vec<Vec<u8>>),
}

impl Chain {
    pub fn new(w: &Workload) -> Chain {
        Chain {
            w: w.clone(),
            code: ConvCode::new(CodeRate::Half),
            il: Interleaver::new(w.n_subcarriers, w.modulation.bits_per_symbol()),
            c: w.constellation(),
        }
    }

    /// Random payloads → convolutional encode → pad → interleave.
    pub fn encode(&self, rng: &mut StdRng) -> Encoded {
        let payload_bits = self.w.payload_bits();
        let mut payloads = Vec::with_capacity(self.w.antennas);
        let mut coded = Vec::with_capacity(self.w.antennas);
        for _ in 0..self.w.antennas {
            let payload: Vec<u8> = (0..payload_bits).map(|_| rng.gen_range(0..2u8)).collect();
            let mut bits = self.code.encode(&payload);
            bits.resize(self.w.coded_bits(), 0);
            coded.push(self.il.interleave_stream(&bits));
            payloads.push(payload);
        }
        Encoded { payloads, coded }
    }

    /// The encoded streams through the stream's truth channels plus noise.
    pub fn transmit(&self, stream: &ChannelStream, enc: &Encoded, rng: &mut StdRng) -> RxFrame {
        let bps = self.c.bits_per_symbol();
        let bits_per_sym = self.w.n_subcarriers * bps;
        stream.transmit_frame(
            self.w.n_symbols,
            |sym, sc| {
                let base = sym * bits_per_sym + sc * bps;
                enc.coded
                    .iter()
                    .map(|s| self.c.point(self.c.bits_to_index(&s[base..base + bps])))
                    .collect()
            },
            rng,
        )
    }

    /// Detects one batch of received vectors on a prepared detector: soft
    /// decisions vector by vector, or hard decisions through the batch
    /// (four-wide lane) path.
    pub fn detect(&self, det: &CellDetector, ys: &[&[Cx]]) -> Vec<Cell> {
        if self.w.soft {
            let sigma2 = self.w.sigma2();
            ys.iter()
                .map(|y| Cell::Soft(det.detect_soft(y, sigma2)))
                .collect()
        } else {
            det.detect_batch_refs(ys)
                .into_iter()
                .map(Cell::Hard)
                .collect()
        }
    }

    /// Symbol-major grid cells → per-stream deinterleaved LLRs or bits.
    pub fn demap(&self, cells: &[Cell]) -> Demapped {
        let n = self.w.antennas;
        let len = self.w.coded_bits();
        let block = self.il.block_len();
        if self.w.soft {
            let mut out = vec![vec![0.0f64; len]; n];
            for (cell_idx, cell) in cells.iter().enumerate() {
                let Cell::Soft(s) = cell else { continue };
                for (stream, llrs) in s.llrs.iter().enumerate() {
                    for (b, &v) in llrs.iter().enumerate() {
                        let j = cell_idx * llrs.len() + b;
                        out[stream][(j / block) * block + self.il.source_index(j % block)] = v;
                    }
                }
            }
            Demapped::Llrs(out)
        } else {
            let bps = self.c.bits_per_symbol();
            let mut out = vec![vec![0u8; len]; n];
            let mut bits = vec![0u8; bps];
            for (cell_idx, cell) in cells.iter().enumerate() {
                for (stream, &sym) in cell.hard().iter().enumerate() {
                    self.c.index_to_bits_into(sym, &mut bits);
                    for (b, &bit) in bits.iter().enumerate() {
                        let j = cell_idx * bps + b;
                        out[stream][(j / block) * block + self.il.source_index(j % block)] = bit;
                    }
                }
            }
            Demapped::Bits(out)
        }
    }

    /// Viterbi decode of every stream.
    pub fn viterbi(&self, d: &Demapped) -> Vec<Vec<u8>> {
        let payload_bits = self.w.payload_bits();
        let coded_len = self.code.coded_len(payload_bits);
        match d {
            Demapped::Llrs(streams) => streams
                .iter()
                .map(|s| self.code.decode_soft(&s[..coded_len], payload_bits))
                .collect(),
            Demapped::Bits(streams) => streams
                .iter()
                .map(|s| self.code.decode(&s[..coded_len], payload_bits))
                .collect(),
        }
    }
}

/// The receiver's CRC-32 check, per stream.
pub fn crc_flags(payloads: &[Vec<u8>], decoded: &[Vec<u8>]) -> Vec<bool> {
    payloads
        .iter()
        .zip(decoded)
        .map(|(sent, got)| crc_check(sent, got))
        .collect()
}

/// FNV-1a over a frame's delivered decisions: hard symbols, LLR bit
/// patterns, decoded payloads and CRC verdicts.
pub fn digest(cells: &[Cell], decoded: &[Vec<u8>], crc: &[bool]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for cell in cells {
        for &s in cell.hard() {
            eat(s as u64);
        }
        if let Cell::Soft(s) = cell {
            for v in s.llrs.iter().flatten() {
                eat(v.to_bits());
            }
        }
    }
    for bits in decoded {
        for &b in bits {
            eat(u64::from(b));
        }
    }
    for &ok in crc {
        eat(u64::from(ok));
    }
    h
}
