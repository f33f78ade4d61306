//! Convolutional encoding and Viterbi decoding.
//!
//! The code is the de-facto wireless standard: constraint length `K = 7`,
//! rate 1/2, generators `g0 = 133₈`, `g1 = 171₈` (802.11, LTE control
//! channels, DVB…). Higher rates are obtained by puncturing. Decoding is
//! Viterbi over the 64-state trellis with full traceback, with punctured
//! positions treated as erasures (zero branch-metric contribution). The
//! hard decoder here and the soft decoder in [`crate::soft`] are two
//! branch-metric front ends over one kernel: one depuncture, one butterfly
//! add-compare-select pass and one traceback over packed decision words.

/// Constraint length of the 802.11 code.
pub const CONSTRAINT: usize = 7;
/// Number of trellis states (`2^(K−1)`).
pub const STATES: usize = 1 << (CONSTRAINT - 1);
/// Generator polynomial `g0` (octal 133).
pub const G0: u32 = 0o133;
/// Generator polynomial `g1` (octal 171).
pub const G1: u32 = 0o171;

/// Trellis outputs: `OUTPUTS[state][input]` is the pair of coded bits of
/// that transition, packed `b0·2 + b1`.
const OUTPUTS: [[u8; 2]; STATES] = {
    let mut outputs = [[0u8; 2]; STATES];
    let mut window = 0;
    // The shift register holds the K-1 most recent bits; the new bit enters
    // at the MSB side (bit K-1 of the window), so `window = input·64 + state`.
    while window < 2 * STATES {
        let taps = window as u32;
        let (b0, b1) = ((taps & G0).count_ones() & 1, (taps & G1).count_ones() & 1);
        outputs[window % STATES][window / STATES] = (b0 << 1 | b1) as u8;
        window += 1;
    }
    outputs
};

/// Supported puncturing rates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2 (no puncturing) — the rate used throughout the paper.
    Half,
    /// Rate 2/3 (802.11 puncturing pattern).
    TwoThirds,
    /// Rate 3/4 (802.11 puncturing pattern).
    ThreeQuarters,
}

impl CodeRate {
    /// The rate as a fraction `(num, den)` of info bits per coded bit.
    pub fn fraction(self) -> (usize, usize) {
        match self {
            CodeRate::Half => (1, 2),
            CodeRate::TwoThirds => (2, 3),
            CodeRate::ThreeQuarters => (3, 4),
        }
    }

    /// The rate as an `f64`.
    pub fn as_f64(self) -> f64 {
        let (n, d) = self.fraction();
        n as f64 / d as f64
    }

    /// Puncturing pattern over pairs of rate-1/2 output bits:
    /// `true` = transmit, `false` = puncture. The pattern is indexed as
    /// `[pair][branch]` with branch 0 = g0 output, 1 = g1 output.
    pub(crate) fn pattern(self) -> &'static [[bool; 2]] {
        match self {
            CodeRate::Half => &[[true, true]],
            // 802.11: period 2 input bits → keep A1 B1 A2 (drop B2).
            CodeRate::TwoThirds => &[[true, true], [true, false]],
            // 802.11: period 3 → keep A1 B1 A2 B3 (drop B2, A3).
            CodeRate::ThreeQuarters => &[[true, true], [true, false], [false, true]],
        }
    }
}

/// Encoder/decoder pair for the (133, 171) code at a configurable rate.
#[derive(Clone, Debug)]
pub struct ConvCode {
    rate: CodeRate,
}

/// Path metric of the Viterbi kernel: `u32` Hamming distance for hard
/// decisions, `f64` max-log cost for LLRs.
pub(crate) trait PathMetric: Copy + PartialOrd + std::ops::Add<Output = Self> {
    /// Metric of the start state.
    const ZERO: Self;
    /// Metric of a state no path reaches yet. It stays above every
    /// reachable path's metric while the first `K − 1` steps add branch
    /// costs to it; after those steps every state is reachable.
    const UNREACHED: Self;
}

impl PathMetric for u32 {
    const ZERO: u32 = 0;
    const UNREACHED: u32 = u32::MAX / 2;
}

impl PathMetric for f64 {
    const ZERO: f64 = 0.0;
    const UNREACHED: f64 = f64::INFINITY;
}

impl ConvCode {
    /// Builds the code at the given rate.
    pub fn new(rate: CodeRate) -> Self {
        ConvCode { rate }
    }

    /// The configured rate.
    pub fn rate(&self) -> CodeRate {
        self.rate
    }

    /// Number of coded bits produced for `info_len` information bits
    /// (including the 6 zero tail bits that terminate the trellis).
    pub fn coded_len(&self, info_len: usize) -> usize {
        let total_in = info_len + (CONSTRAINT - 1);
        let pattern = self.rate.pattern();
        let mut n = 0usize;
        for i in 0..total_in {
            let p = pattern[i % pattern.len()];
            n += usize::from(p[0]) + usize::from(p[1]);
        }
        n
    }

    /// Encodes information bits (values 0/1), appending `K−1` zero tail bits
    /// so the trellis terminates in state 0.
    pub fn encode(&self, info: &[u8]) -> Vec<u8> {
        let pattern = self.rate.pattern();
        let mut out = Vec::with_capacity(self.coded_len(info.len()));
        let mut state = 0u32;
        for (i, &bit) in info
            .iter()
            .chain(std::iter::repeat_n(&0u8, CONSTRAINT - 1))
            .enumerate()
        {
            debug_assert!(bit <= 1, "encode: bits must be 0/1");
            let pair = OUTPUTS[state as usize][bit as usize];
            let p = pattern[i % pattern.len()];
            if p[0] {
                out.push(pair >> 1);
            }
            if p[1] {
                out.push(pair & 1);
            }
            state = (state >> 1) | ((bit as u32) << (CONSTRAINT - 2));
        }
        out
    }

    /// Decodes hard bits back to `info_len` information bits via Viterbi.
    ///
    /// `coded` must have exactly `self.coded_len(info_len)` entries.
    /// Returns the maximum-likelihood information sequence under the
    /// binary-symmetric-channel metric (minimum Hamming distance). A
    /// received value of 255 is an erasure, like a punctured position.
    pub fn decode(&self, coded: &[u8], info_len: usize) -> Vec<u8> {
        assert_eq!(
            coded.len(),
            self.coded_len(info_len),
            "decode: wrong coded length"
        );
        self.viterbi(coded, 255, info_len, |pair| {
            std::array::from_fn(|out| branch_metric(out as u8, &pair))
        })
    }

    /// The Viterbi kernel behind [`ConvCode::decode`] and
    /// [`ConvCode::decode_soft`].
    ///
    /// `received` holds the transmitted coded positions; punctured ones
    /// read as `erased`. `branch` maps one trellis step's received pair to
    /// the cost of each output pair `out = b0·2 + b1`, once per step. Next
    /// state `ns` is reached on input `ns >> 5` from `2j` and `2j + 1`
    /// (`j = ns & 31`); the odd predecessor survives only on a strictly
    /// smaller metric. The decisions pack into one `u64` per step, and the
    /// traceback starts in state 0, where the tail bits end the trellis.
    pub(crate) fn viterbi<T: Copy, M: PathMetric>(
        &self,
        received: &[T],
        erased: T,
        info_len: usize,
        branch: impl Fn([T; 2]) -> [M; 4],
    ) -> Vec<u8> {
        let pattern = self.rate.pattern();
        let total_in = info_len + (CONSTRAINT - 1);
        let mut decisions = vec![0u64; total_in];
        let mut decoded = vec![0u8; info_len];
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let mut metric = [M::UNREACHED; STATES];
        metric[0] = M::ZERO; // encoder starts in state 0
        let mut pos = 0usize;
        for (i, word) in decisions.iter_mut().enumerate() {
            let mut pair = [erased; 2];
            for (rx, &kept) in pair.iter_mut().zip(&pattern[i % pattern.len()]) {
                if kept {
                    *rx = received[pos];
                    pos += 1;
                }
            }
            let bm = branch(pair);
            let mut next = [M::UNREACHED; STATES];
            // `& 3` keeps the `bm` index provably in bounds.
            for j in 0..STATES / 2 {
                let (even, odd) = (OUTPUTS[2 * j], OUTPUTS[2 * j + 1]);
                for input in 0..2 {
                    let ns = j | input << (CONSTRAINT - 2);
                    let c0 = metric[2 * j] + bm[usize::from(even[input] & 3)];
                    let c1 = metric[2 * j + 1] + bm[usize::from(odd[input] & 3)];
                    let take_odd = c1 < c0;
                    next[ns] = if take_odd { c1 } else { c0 };
                    *word |= u64::from(take_odd) << ns;
                }
            }
            metric = next;
        }
        // Traceback: the input of state `s` is `s >> 5`; its predecessor
        // inverts `s = (prev >> 1) | input << (K − 2)`.
        let mut state = 0usize;
        for (t, word) in decisions.iter().enumerate().rev() {
            if let Some(bit) = decoded.get_mut(t) {
                *bit = (state >> (CONSTRAINT - 2)) as u8;
            }
            state = ((state << 1) & (STATES - 1)) | (word >> state & 1) as usize;
        }
        decoded
    }
}

/// Hamming branch metric with erasure support (erased positions add 0).
#[inline]
fn branch_metric(out: u8, pair: &[u8; 2]) -> u32 {
    let mut m = 0u32;
    if pair[0] != 255 {
        m += u32::from((out >> 1) != pair[0]);
    }
    if pair[1] != 255 {
        m += u32::from((out & 1) != pair[1]);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const RATES: &[CodeRate] = &[CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters];

    fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..2u8)).collect()
    }

    #[test]
    fn known_vector_rate_half() {
        // All-zero input encodes to all zeros (linear code).
        let code = ConvCode::new(CodeRate::Half);
        let coded = code.encode(&[0; 10]);
        assert!(coded.iter().all(|&b| b == 0));
        assert_eq!(coded.len(), 2 * (10 + 6));
        // Single 1 at the start produces the impulse response of (133,171):
        // g0 = 1011011, g1 = 1111001 read LSB-first from the polys.
        let coded = code.encode(&[1, 0, 0, 0, 0, 0, 0]);
        let g0_taps: Vec<u8> = (0..7).map(|i| ((G0 >> i) & 1) as u8).collect();
        let g1_taps: Vec<u8> = (0..7).map(|i| ((G1 >> i) & 1) as u8).collect();
        // Bit entering at MSB of window means tap i fires i steps later
        // when reading polynomials from their high bit; reconstruct:
        for t in 0..7 {
            assert_eq!(coded[2 * t], g0_taps[6 - t], "g0 impulse at {t}");
            assert_eq!(coded[2 * t + 1], g1_taps[6 - t], "g1 impulse at {t}");
        }
    }

    #[test]
    fn coded_len_matches_rate() {
        let n = 120;
        for &r in RATES {
            let code = ConvCode::new(r);
            let coded = code.encode(&random_bits(n, 1));
            assert_eq!(coded.len(), code.coded_len(n), "{r:?}");
            // coded_len ≈ (n + 6)/rate.
            let expect = ((n + 6) as f64 / r.as_f64()).round() as usize;
            assert_eq!(coded.len(), expect, "{r:?}");
        }
    }

    #[test]
    fn clean_channel_roundtrip_all_rates() {
        for &r in RATES {
            let code = ConvCode::new(r);
            for seed in 0..4 {
                let info = random_bits(96, seed);
                let coded = code.encode(&info);
                let dec = code.decode(&coded, info.len());
                assert_eq!(dec, info, "{r:?} seed {seed}");
            }
        }
    }

    #[test]
    fn corrects_scattered_errors_rate_half() {
        // Free distance of (133,171) is 10: sparse single errors far apart
        // are always corrected.
        let code = ConvCode::new(CodeRate::Half);
        let info = random_bits(200, 9);
        let mut coded = code.encode(&info);
        for pos in [3usize, 60, 130, 250, 380] {
            coded[pos] ^= 1;
        }
        assert_eq!(code.decode(&coded, info.len()), info);
    }

    #[test]
    fn corrects_errors_at_low_ber() {
        // 1% random BER should decode error-free at rate 1/2 for a short
        // block with overwhelming probability.
        let code = ConvCode::new(CodeRate::Half);
        let mut rng = StdRng::seed_from_u64(33);
        for trial in 0..10 {
            let info = random_bits(300, 100 + trial);
            let mut coded = code.encode(&info);
            for b in coded.iter_mut() {
                if rng.gen::<f64>() < 0.01 {
                    *b ^= 1;
                }
            }
            assert_eq!(code.decode(&coded, info.len()), info, "trial {trial}");
        }
    }

    #[test]
    fn heavy_noise_fails_gracefully() {
        // At 50% BER the decoder cannot succeed, but must return the right
        // length without panicking.
        let code = ConvCode::new(CodeRate::Half);
        let info = random_bits(64, 5);
        let coded: Vec<u8> = random_bits(code.coded_len(64), 6);
        let dec = code.decode(&coded, info.len());
        assert_eq!(dec.len(), 64);
    }

    #[test]
    fn higher_rates_are_less_robust() {
        // At a fixed coded-BER, rate 3/4 must produce at least as many
        // decoding failures as rate 1/2 (sanity on puncturing).
        let mut fails = Vec::new();
        for &r in &[CodeRate::Half, CodeRate::ThreeQuarters] {
            let code = ConvCode::new(r);
            let mut rng = StdRng::seed_from_u64(77);
            let mut f = 0;
            for seed in 0..40 {
                let info = random_bits(120, 500 + seed);
                let mut coded = code.encode(&info);
                for b in coded.iter_mut() {
                    if rng.gen::<f64>() < 0.04 {
                        *b ^= 1;
                    }
                }
                if code.decode(&coded, info.len()) != info {
                    f += 1;
                }
            }
            fails.push(f);
        }
        assert!(
            fails[1] >= fails[0],
            "3/4 fails {} < 1/2 fails {}",
            fails[1],
            fails[0]
        );
        assert!(fails[1] > 0, "3/4 should fail sometimes at 4% BER");
    }

    #[test]
    #[should_panic(expected = "wrong coded length")]
    fn decode_rejects_bad_length() {
        let code = ConvCode::new(CodeRate::Half);
        code.decode(&[0u8; 10], 16);
    }
}
