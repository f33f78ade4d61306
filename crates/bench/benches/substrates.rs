//! Criterion benches for the substrate crates: QR decompositions, FFT,
//! Viterbi, symbol ordering (the triangle-LUT-vs-exact ablation from
//! DESIGN.md), and the pre-processing tree search (sequential vs batched).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexcore::{LevelErrorModel, Preprocessor};
use flexcore_channel::ChannelEnsemble;
use flexcore_coding::{CodeRate, ConvCode};
use flexcore_modulation::ordering::{exact_order, kth_nearest_exact};
use flexcore_modulation::{Constellation, Modulation, OrderingLut};
use flexcore_numeric::fft::fft_in_place;
use flexcore_numeric::qr::{fcsd_sorted_qr, householder_qr, mgs_qr, sorted_qr_sqrd};
use flexcore_numeric::rng::CxRng;
use flexcore_numeric::{CMat, Cx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_qr(crit: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = crit.benchmark_group("qr_12x12");
    let h = ChannelEnsemble::iid(12, 12).draw(&mut rng);
    group.bench_function("mgs", |b| b.iter(|| mgs_qr(&h).r[(0, 0)]));
    group.bench_function("householder", |b| b.iter(|| householder_qr(&h).r[(0, 0)]));
    group.bench_function("sqrd", |b| b.iter(|| sorted_qr_sqrd(&h).r[(0, 0)]));
    group.bench_function("fcsd_l1", |b| b.iter(|| fcsd_sorted_qr(&h, 1).r[(0, 0)]));
    group.finish();
}

fn bench_ordering(crit: &mut Criterion) {
    // The §3.2 ablation: exact k-th-nearest costs |Q| distances + a sort;
    // the triangle LUT is O(1)/O(k).
    let c = Constellation::new(Modulation::Qam64);
    let lut = OrderingLut::new(Modulation::Qam64, 64);
    let mut rng = StdRng::seed_from_u64(2);
    let points: Vec<Cx> = (0..256).map(|_| rng.cx_normal(1.2)).collect();
    let mut group = crit.benchmark_group("ordering_64qam_k3");
    group.bench_function("exact", |b| {
        b.iter(|| {
            points
                .iter()
                .filter_map(|&y| kth_nearest_exact(&c, y, 3))
                .sum::<usize>()
        })
    });
    group.bench_function("lut_strict", |b| {
        b.iter(|| {
            points
                .iter()
                .filter_map(|&y| lut.kth_nearest(&c, y, 3))
                .sum::<usize>()
        })
    });
    group.bench_function("lut_skip", |b| {
        b.iter(|| {
            points
                .iter()
                .filter_map(|&y| lut.kth_nearest_skip(&c, y, 3))
                .sum::<usize>()
        })
    });
    group.bench_function("full_sort", |b| {
        b.iter(|| points.iter().map(|&y| exact_order(&c, y)[2]).sum::<usize>())
    });
    group.finish();
}

fn bench_preprocess(crit: &mut Criterion) {
    // §3.1.1: sequential vs batched-parallel expansion, and candidate-list
    // bounding.
    let mut rng = StdRng::seed_from_u64(3);
    let h = ChannelEnsemble::iid(12, 12).draw(&mut rng);
    let qr = sorted_qr_sqrd(&h);
    let model = LevelErrorModel::from_r(&qr.r, 0.01, Modulation::Qam64);
    let mut group = crit.benchmark_group("preprocess_12x12_64qam");
    for (name, batch) in [("sequential", 1usize), ("batch12", 12)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &batch, |b, &batch| {
            let pre = Preprocessor::new(128).with_expand_batch(batch);
            b.iter(|| pre.run(&model, 64).paths.len())
        });
    }
    group.finish();
}

fn bench_fft(crit: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let x: Vec<Cx> = (0..64).map(|_| rng.cx_normal(1.0)).collect();
    crit.bench_function("fft_64", |b| {
        b.iter(|| {
            let mut buf = x.clone();
            fft_in_place(&mut buf);
            buf[0]
        })
    });
}

fn bench_viterbi(crit: &mut Criterion) {
    let code = ConvCode::new(CodeRate::Half);
    let mut rng = StdRng::seed_from_u64(5);
    // Hard rows at 2 % BER: a 480-bit block, and the 64×64 QPSK stream of
    // 48 × 14 symbols (666 info + 6 tail bits = 672 trellis steps).
    for (name, info_len) in [("viterbi_480b", 480), ("viterbi_672b", 666)] {
        let info: Vec<u8> = (0..info_len).map(|_| rng.gen_range(0..2)).collect();
        let mut coded = code.encode(&info);
        for b in coded.iter_mut() {
            if rng.gen::<f64>() < 0.02 {
                *b ^= 1;
            }
        }
        crit.bench_function(name, |b| b.iter(|| code.decode(&coded, info_len)[0]));
    }
    // Soft row: the 4×4 16-QAM stream of 48 × 4 symbols (378 info + 6
    // tail bits = 384 trellis steps), BPSK LLRs under triangular noise.
    let info: Vec<u8> = (0..378).map(|_| rng.gen_range(0..2)).collect();
    let llrs: Vec<f64> = code
        .encode(&info)
        .iter()
        .map(|&bit| {
            let tx = if bit == 0 { 1.0 } else { -1.0 };
            2.0 * (tx + rng.gen::<f64>() + rng.gen::<f64>() - 1.0)
        })
        .collect();
    crit.bench_function("viterbi_soft_384b", |b| {
        b.iter(|| code.decode_soft(&llrs, info.len())[0])
    });
}

fn bench_matrix(crit: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let a = CMat::from_fn(12, 12, |_, _| rng.cx_normal(1.0));
    let b_ = CMat::from_fn(12, 12, |_, _| rng.cx_normal(1.0));
    crit.bench_function("matmul_12x12", |b| b.iter(|| a.mul_mat(&b_)[(0, 0)]));
}

criterion_group!(
    benches,
    bench_qr,
    bench_ordering,
    bench_preprocess,
    bench_fft,
    bench_viterbi,
    bench_matrix
);
criterion_main!(benches);
