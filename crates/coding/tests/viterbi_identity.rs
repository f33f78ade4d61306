//! Bit-identity of the shared Viterbi kernel against the textbook decoders
//! it replaced.
//!
//! `reference_decode` and `reference_decode_soft` are the former
//! `ConvCode::decode` / `ConvCode::decode_soft` bodies, kept verbatim apart
//! from reading the trellis outputs and puncturing pattern through the
//! local helpers below (the decoders' private tables are gone). Each
//! allocates a survivor row per step and skips unreached states; the
//! kernel must return the same bits on every input, ties included: the
//! even predecessor wins unless the odd one is strictly better.

// The references keep their original index loops.
#![allow(clippy::needless_range_loop)]

use flexcore_coding::conv::{CodeRate, ConvCode, CONSTRAINT, G0, G1, STATES};
use flexcore_coding::soft::LLR_CLAMP;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RATES: [CodeRate; 3] = [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters];

/// `outputs[state][input]`, packed `b0·2 + b1`, as `ConvCode::new` built it.
fn outputs() -> Vec<[u8; 2]> {
    let mut outputs = vec![[0u8; 2]; STATES];
    for (state, out) in outputs.iter_mut().enumerate() {
        for input in 0..2u32 {
            let window = (input << (CONSTRAINT - 1)) | state as u32;
            let b0 = (window & G0).count_ones() & 1;
            let b1 = (window & G1).count_ones() & 1;
            out[input as usize] = (b0 << 1 | b1) as u8;
        }
    }
    outputs
}

/// The 802.11 puncturing patterns, as `CodeRate::pattern` returns them.
fn pattern(rate: CodeRate) -> &'static [[bool; 2]] {
    match rate {
        CodeRate::Half => &[[true, true]],
        CodeRate::TwoThirds => &[[true, true], [true, false]],
        CodeRate::ThreeQuarters => &[[true, true], [true, false], [false, true]],
    }
}

fn reference_decode(code: &ConvCode, coded: &[u8], info_len: usize) -> Vec<u8> {
    let outputs = outputs();
    assert_eq!(
        coded.len(),
        code.coded_len(info_len),
        "decode: wrong coded length"
    );
    let pattern = pattern(code.rate());
    let total_in = info_len + (CONSTRAINT - 1);
    // Depuncture into (bit0, bit1) pairs with erasures (255).
    let mut pairs: Vec<[u8; 2]> = Vec::with_capacity(total_in);
    let mut pos = 0usize;
    for i in 0..total_in {
        let p = pattern[i % pattern.len()];
        let b0 = if p[0] {
            let v = coded[pos];
            pos += 1;
            v
        } else {
            255
        };
        let b1 = if p[1] {
            let v = coded[pos];
            pos += 1;
            v
        } else {
            255
        };
        pairs.push([b0, b1]);
    }
    // Viterbi forward pass.
    const INF: u32 = u32::MAX / 2;
    let mut metric = vec![INF; STATES];
    metric[0] = 0; // encoder starts in state 0
    let mut survivors: Vec<Vec<u8>> = Vec::with_capacity(total_in);
    let mut next = vec![INF; STATES];
    for pair in &pairs {
        let mut surv = vec![0u8; STATES];
        next.iter_mut().for_each(|m| *m = INF);
        for (state, &m) in metric.iter().enumerate() {
            if m >= INF {
                continue;
            }
            for input in 0..2usize {
                let out = outputs[state][input];
                let bm = branch_metric(out, pair);
                let ns = (state >> 1) | (input << (CONSTRAINT - 2));
                let cand = m + bm;
                if cand < next[ns] {
                    next[ns] = cand;
                    surv[ns] = ((state & 1) << 1 | input) as u8;
                }
            }
        }
        std::mem::swap(&mut metric, &mut next);
        survivors.push(surv);
    }
    // Traceback from state 0 (tail bits force termination there).
    let mut state = 0usize;
    let mut decoded = vec![0u8; total_in];
    for t in (0..total_in).rev() {
        let s = survivors[t][state];
        let input = (s & 1) as usize;
        let prev_lsb = ((s >> 1) & 1) as usize;
        decoded[t] = input as u8;
        // Invert the state update: state = (prev >> 1) | input<<(K-2).
        state = ((state << 1) & (STATES - 1)) | prev_lsb;
    }
    decoded.truncate(info_len);
    decoded
}

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

fn reference_decode_soft(code: &ConvCode, llrs: &[f64], info_len: usize) -> Vec<u8> {
    let outputs = outputs();
    assert_eq!(
        llrs.len(),
        code.coded_len(info_len),
        "decode_soft: wrong LLR count"
    );
    let total_in = info_len + (CONSTRAINT - 1);
    // De-puncture into per-branch LLR pairs (0.0 = erasure).
    let pattern = pattern(code.rate());
    let mut pairs: Vec<[f64; 2]> = Vec::with_capacity(total_in);
    let mut pos = 0usize;
    for i in 0..total_in {
        let p = pattern[i % pattern.len()];
        let a = if p[0] {
            let v = llrs[pos].clamp(-LLR_CLAMP, LLR_CLAMP);
            pos += 1;
            v
        } else {
            0.0
        };
        let b = if p[1] {
            let v = llrs[pos].clamp(-LLR_CLAMP, LLR_CLAMP);
            pos += 1;
            v
        } else {
            0.0
        };
        pairs.push([a, b]);
    }
    // Viterbi forward pass with f64 metrics.
    const INF: f64 = f64::INFINITY;
    let mut metric = vec![INF; STATES];
    metric[0] = 0.0;
    let mut survivors: Vec<Vec<u8>> = Vec::with_capacity(total_in);
    let mut next = vec![INF; STATES];
    for pair in &pairs {
        let mut surv = vec![0u8; STATES];
        next.iter_mut().for_each(|m| *m = INF);
        for (state, &m) in metric.iter().enumerate() {
            if !m.is_finite() {
                continue;
            }
            for input in 0..2usize {
                let out = outputs[state][input];
                let bm = branch_cost(out, pair);
                let ns = (state >> 1) | (input << (CONSTRAINT - 2));
                let cand = m + bm;
                if cand < next[ns] {
                    next[ns] = cand;
                    surv[ns] = ((state & 1) << 1 | input) as u8;
                }
            }
        }
        std::mem::swap(&mut metric, &mut next);
        survivors.push(surv);
    }
    // Traceback from state 0.
    let mut state = 0usize;
    let mut decoded = vec![0u8; total_in];
    for t in (0..total_in).rev() {
        let s = survivors[t][state];
        decoded[t] = s & 1;
        state = ((state << 1) & (STATES - 1)) | ((s >> 1) & 1) as usize;
    }
    decoded.truncate(info_len);
    decoded
}

fn branch_cost(out: u8, pair: &[f64; 2]) -> f64 {
    let cost = |bit: u8, llr: f64| -> f64 {
        if bit == 0 {
            (-llr).max(0.0)
        } else {
            llr.max(0.0)
        }
    };
    cost(out >> 1, pair[0]) + cost(out & 1, pair[1])
}

/// Information lengths of the grid: every length up to 64 (all puncturing
/// phases, the short blocks where unreached states matter longest), then a
/// stride up to 800.
fn info_lens() -> impl Iterator<Item = usize> {
    (0..=64).chain((71..=800).step_by(29)).chain([800])
}

/// Coded bits of a random codeword after a binary symmetric channel.
fn noisy_codeword(code: &ConvCode, info_len: usize, ber: f64, rng: &mut StdRng) -> Vec<u8> {
    let info: Vec<u8> = (0..info_len).map(|_| rng.gen_range(0..2u8)).collect();
    let mut coded = code.encode(&info);
    for b in coded.iter_mut() {
        if rng.gen::<f64>() < ber {
            *b ^= 1;
        }
    }
    coded
}

#[test]
fn hard_decoder_matches_reference_on_the_grid() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    let mut checked = 0usize;
    for rate in RATES {
        let code = ConvCode::new(rate);
        for info_len in info_lens() {
            for ber in [0.0, 0.02, 0.1, 0.25, 0.5] {
                let mut coded = noisy_codeword(&code, info_len, ber, &mut rng);
                // A few out-of-alphabet values: 255 reads as an erasure,
                // anything else mismatches both hypotheses.
                if ber > 0.2 && !coded.is_empty() {
                    let n = coded.len();
                    coded[rng.gen_range(0..n)] = 255;
                    coded[rng.gen_range(0..n)] = 7;
                }
                assert_eq!(
                    code.decode(&coded, info_len),
                    reference_decode(&code, &coded, info_len),
                    "{rate:?} info_len {info_len} ber {ber}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 3 * info_lens().count() * 5);
}

/// Max-log LLRs of a noisy BPSK codeword, quantised to quarter steps so
/// equal path metrics (ties) are common.
fn quantised_llrs(code: &ConvCode, info_len: usize, sigma: f64, rng: &mut StdRng) -> Vec<f64> {
    let coded = noisy_codeword(code, info_len, 0.0, rng);
    coded
        .iter()
        .map(|&b| {
            let tx = if b == 0 { 1.0 } else { -1.0 };
            let noise: f64 = rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() - 1.5;
            let llr = 2.0 * (tx + 2.0 * sigma * noise) / (sigma * sigma);
            (llr * 4.0).round() / 4.0
        })
        .collect()
}

#[test]
fn soft_decoder_matches_reference_on_the_grid() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for rate in RATES {
        let code = ConvCode::new(rate);
        for info_len in info_lens() {
            for sigma in [0.3, 0.8, 1.5, 4.0] {
                let llrs = quantised_llrs(&code, info_len, sigma, &mut rng);
                assert_eq!(
                    code.decode_soft(&llrs, info_len),
                    reference_decode_soft(&code, &llrs, info_len),
                    "{rate:?} info_len {info_len} sigma {sigma}"
                );
            }
            // Coarse LLRs in {−1, −½, 0, ½, 1}: most branches tie.
            let coarse: Vec<f64> = (0..code.coded_len(info_len))
                .map(|_| f64::from(rng.gen_range(-2i32..=2)) / 2.0)
                .collect();
            assert_eq!(
                code.decode_soft(&coarse, info_len),
                reference_decode_soft(&code, &coarse, info_len),
                "{rate:?} info_len {info_len} coarse"
            );
        }
    }
}

#[test]
fn soft_decoder_matches_reference_on_non_finite_llrs() {
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        -1e300,
        f64::MIN_POSITIVE / 4.0,
        -0.0,
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for rate in RATES {
        let code = ConvCode::new(rate);
        for info_len in info_lens() {
            let mut llrs = quantised_llrs(&code, info_len, 0.8, &mut rng);
            for llr in llrs.iter_mut() {
                if rng.gen::<f64>() < 0.2 {
                    *llr = specials[rng.gen_range(0..specials.len())];
                }
            }
            assert_eq!(
                code.decode_soft(&llrs, info_len),
                reference_decode_soft(&code, &llrs, info_len),
                "{rate:?} info_len {info_len}"
            );
            // Every position the same special value.
            for &special in &specials {
                let flat = vec![special; code.coded_len(info_len)];
                assert_eq!(
                    code.decode_soft(&flat, info_len),
                    reference_decode_soft(&code, &flat, info_len),
                    "{rate:?} info_len {info_len} all {special}"
                );
            }
        }
    }
}
