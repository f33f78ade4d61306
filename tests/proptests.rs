//! Property-based tests over the workspace's core invariants.

use flexcore::{LevelErrorModel, PositionVector, Preprocessor};
use flexcore_coding::{CodeRate, ConvCode, Interleaver};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::fft::{fft, ifft};
use flexcore_numeric::mat::norm_sqr;
use flexcore_numeric::qr::{householder_qr, mgs_qr, sorted_qr_sqrd};
use flexcore_numeric::solve::{back_substitute, hermitian_inverse};
use flexcore_numeric::symvec::{SymVec, INLINE_STREAMS};
use flexcore_numeric::{CMat, Cx};
use flexcore_parallel::{
    lpt_makespan_weighted, lpt_order, CrossbeamPool, PePool, SequentialPool, WeightedPool,
};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn symvec_hash(v: &SymVec) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Strategy: a finite complex number with moderate magnitude.
fn cx() -> impl Strategy<Value = Cx> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Cx::new(re, im))
}

/// Strategy: an `n × n` complex matrix that is (almost surely) full rank.
fn square_mat(n: usize) -> impl Strategy<Value = CMat> {
    proptest::collection::vec(cx(), n * n)
        .prop_map(move |v| CMat::from_rows(n, n, &v))
        .prop_filter("needs to be well-conditioned", |m| {
            // Cheap full-rank proxy: Gram diagonal bounded away from zero
            // after Cholesky succeeds.
            flexcore_numeric::solve::cholesky(&m.gram()).is_some()
                && m.gram().as_slice().iter().all(|z| z.is_finite())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn complex_field_axioms(a in cx(), b in cx(), c in cx()) {
        let assoc = (a * b) * c - a * (b * c);
        prop_assert!(assoc.abs() < 1e-9 * (1.0 + a.abs() * b.abs() * c.abs()));
        let distrib = a * (b + c) - (a * b + a * c);
        prop_assert!(distrib.abs() < 1e-9 * (1.0 + a.abs() * (b.abs() + c.abs())));
        // |ab| = |a||b|
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9 * (1.0 + a.abs() * b.abs()));
        // conj is an involution and multiplicative.
        prop_assert_eq!(a.conj().conj(), a);
        let mc = (a * b).conj() - a.conj() * b.conj();
        prop_assert!(mc.abs() < 1e-12 + 1e-12 * a.abs() * b.abs());
    }

    #[test]
    fn qr_reconstructs_any_full_rank_matrix(h in square_mat(4)) {
        for qr in [mgs_qr(&h), householder_qr(&h), sorted_qr_sqrd(&h)] {
            let hp = h.permute_cols(&qr.perm);
            let scale = h.fro_norm().max(1.0);
            prop_assert!(qr.reconstruct().max_abs_diff(&hp) < 1e-8 * scale);
            prop_assert!(qr.q.gram().max_abs_diff(&CMat::identity(4)) < 1e-8);
        }
    }

    #[test]
    fn back_substitution_solves(h in square_mat(4), xs in proptest::collection::vec(cx(), 4)) {
        let qr = householder_qr(&h);
        // Only test when R is comfortably non-singular.
        let min_diag = (0..4).map(|i| qr.r[(i, i)].abs()).fold(f64::INFINITY, f64::min);
        prop_assume!(min_diag > 1e-3);
        let b = qr.r.mul_vec(&xs);
        let sol = back_substitute(&qr.r, &b);
        let err: f64 = sol.iter().zip(&xs).map(|(a, b)| (*a - *b).norm_sqr()).sum();
        prop_assert!(err.sqrt() < 1e-6 * (1.0 + norm_sqr(&xs).sqrt()));
    }

    #[test]
    fn hermitian_inverse_roundtrip(h in square_mat(3)) {
        let g = h.gram();
        prop_assume!((0..3).all(|i| g[(i, i)].re > 1e-3));
        let gi = hermitian_inverse(&g);
        let err = g.mul_mat(&gi).max_abs_diff(&CMat::identity(3));
        prop_assert!(err < 1e-6 * g.fro_norm().max(1.0));
    }

    #[test]
    fn fft_roundtrip_and_parseval(v in proptest::collection::vec(cx(), 64)) {
        let spec = fft(&v);
        let back = ifft(&spec);
        for (a, b) in back.iter().zip(&v) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
        let e_time: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        prop_assert!((e_time - e_freq).abs() < 1e-9 * (1.0 + e_time));
    }

    #[test]
    fn modulation_roundtrip(bits in proptest::collection::vec(0u8..2, 6 * 20)) {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let c = Constellation::new(m);
            let n = bits.len() - bits.len() % c.bits_per_symbol();
            let chunk = &bits[..n];
            prop_assert_eq!(c.demodulate(&c.modulate(chunk)), chunk.to_vec());
        }
    }

    #[test]
    fn slicing_is_nearest_point(y in cx()) {
        let c = Constellation::new(Modulation::Qam16);
        let idx = c.slice(y);
        let d = c.point(idx).dist_sqr(y);
        for other in 0..16 {
            prop_assert!(d <= c.point(other).dist_sqr(y) + 1e-12);
        }
    }

    #[test]
    fn viterbi_inverts_encoder(bits in proptest::collection::vec(0u8..2, 24..200)) {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let code = ConvCode::new(rate);
            let coded = code.encode(&bits);
            prop_assert_eq!(code.decode(&coded, bits.len()), bits.clone());
        }
    }

    #[test]
    fn interleaver_is_a_bijection(bits in proptest::collection::vec(0u8..2, 96)) {
        let il = Interleaver::new(48, 2);
        prop_assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
    }

    #[test]
    fn preprocessor_output_is_sorted_unique_and_bounded(
        pes in proptest::collection::vec(0.01f64..0.5, 2..8),
        n_pe in 1usize..64,
    ) {
        let model = LevelErrorModel::from_pe(pes.clone());
        let out = Preprocessor::new(n_pe).run(&model, 16);
        prop_assert!(out.paths.len() <= n_pe);
        prop_assert!(!out.paths.is_empty());
        prop_assert_eq!(out.paths[0].0.clone(), PositionVector::ones(pes.len()));
        for w in out.paths.windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "not sorted");
        }
        let set: std::collections::HashSet<_> =
            out.paths.iter().map(|(p, _)| p.clone()).collect();
        prop_assert_eq!(set.len(), out.paths.len());
        prop_assert!(out.cumulative_prob <= 1.0 + 1e-9);
        for (p, _) in &out.paths {
            prop_assert!(p.within_order(16));
        }
    }

    #[test]
    fn symvec_storage_is_representation_independent(
        syms in proptest::collection::vec(0u16..1024, 0usize..65),
    ) {
        // The massive-MIMO storage contract: any length up to 64 round
        // trips, spills exactly past the inline bound, and all observable
        // behaviour (slice, equality, hash, clone, reset) is independent
        // of whether the indices live inline or in a spill buffer.
        let idx: Vec<usize> = syms.iter().map(|&s| s as usize).collect();
        let v = SymVec::from_indices(&idx);
        prop_assert_eq!(v.len(), syms.len());
        prop_assert_eq!(v.as_slice(), &syms[..]);
        prop_assert_eq!(v.is_spilled(), syms.len() > INLINE_STREAMS);
        prop_assert_eq!(v.to_indices(), idx);
        // A spilled twin with the same contents, forced through the
        // boundary: equal and hash-identical whatever `v`'s representation.
        let mut twin = SymVec::zeroed(INLINE_STREAMS + 1);
        twin.assign(&syms);
        prop_assert!(twin.is_spilled());
        prop_assert_eq!(&twin, &v);
        prop_assert_eq!(symvec_hash(&twin), symvec_hash(&v));
        // Clone preserves contents; clone_from reuses the destination.
        prop_assert_eq!(&v.clone(), &v);
        let mut dst = SymVec::zeroed(INLINE_STREAMS + 1);
        dst.clone_from(&v);
        prop_assert_eq!(&dst, &v);
        // reset() zeroes at the same length, and crossing the spill
        // boundary in either direction keeps the vector well-formed.
        let mut r = v.clone();
        r.reset(syms.len());
        prop_assert!(r.as_slice().iter().all(|&s| s == 0));
        prop_assert_eq!(r.len(), syms.len());
        r.reset(64);
        prop_assert_eq!(r.len(), 64);
        prop_assert!(r.is_spilled());
        r.reset(1);
        prop_assert_eq!(r.as_slice(), &[0u16][..]);
    }

    #[test]
    fn path_probabilities_are_consistent(
        pes in proptest::collection::vec(0.01f64..0.5, 2..6),
        ranks in proptest::collection::vec(1u32..8, 2..6),
    ) {
        prop_assume!(pes.len() == ranks.len());
        let model = LevelErrorModel::from_pe(pes);
        let lp = model.ln_path_prob(&ranks);
        prop_assert!(lp <= model.ln_root_prob() + 1e-12);
        prop_assert!(lp.is_finite());
        // Deepening any level strictly reduces probability.
        let mut deeper = ranks.clone();
        deeper[0] += 1;
        prop_assert!(model.ln_path_prob(&deeper) < lp);
    }
}

/// `n` tasks whose results identify them (and are not their index, so a
/// permuted scatter cannot pass by accident).
fn indexed_tasks(n: usize) -> Vec<impl FnOnce() -> u64 + Send> {
    (0..n as u64)
        .map(|i| move || i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5)
        .collect()
}

/// `run_priced` on `pool` returns what `run` returns, in task order.
fn priced_run_is_a_plain_run<P: PePool>(pool: &P, costs: &[u64]) -> Result<(), TestCaseError> {
    let n = costs.len();
    let want: Vec<u64> = indexed_tasks(n).into_iter().map(|t| t()).collect();
    prop_assert_eq!(&pool.run(indexed_tasks(n)), &want);
    prop_assert_eq!(&pool.run_priced(indexed_tasks(n), costs), &want);
    Ok(())
}

/// The order in which `pool` starts the tasks of a priced batch, read on a
/// pool that runs its tasks one at a time in the order `run` receives them.
fn priced_execution_order<P: PePool>(pool: &P, costs: &[u64]) -> Vec<usize> {
    let started = std::sync::Mutex::new(Vec::new());
    let tasks: Vec<_> = (0..costs.len())
        .map(|i| {
            let started = &started;
            move || started.lock().expect("order log poisoned").push(i)
        })
        .collect();
    pool.run_priced(tasks, costs);
    started.into_inner().expect("order log poisoned")
}

/// The panic message of a `run_priced` call with mismatched lengths.
fn mismatch_message<P: PePool>(pool: &P, n_tasks: usize, n_costs: usize) -> String {
    let payload = catch_unwind(AssertUnwindSafe(|| {
        pool.run_priced(indexed_tasks(n_tasks), &vec![1; n_costs])
    }))
    .expect_err("a cost-length mismatch must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_priced_returns_run_results_in_task_order_on_every_pool(
        // Small cost range: ties and zeros are common; 0 tasks included.
        costs in proptest::collection::vec(0u64..4, 0..24),
        n_pes in 1usize..5,
        speeds in proptest::collection::vec(0.25f64..4.0, 1..5),
    ) {
        priced_run_is_a_plain_run(&SequentialPool::new(n_pes), &costs)?;
        priced_run_is_a_plain_run(&CrossbeamPool::new(n_pes), &costs)?;
        priced_run_is_a_plain_run(&CrossbeamPool::work_queue(n_pes), &costs)?;
        priced_run_is_a_plain_run(&WeightedPool::new(speeds), &costs)?;
    }

    #[test]
    fn default_run_priced_starts_tasks_longest_first(
        costs in proptest::collection::vec(0u64..4, 0..24),
        n_pes in 1usize..5,
    ) {
        // The LPT makespan bound rests on this order: the default hands
        // `run` the tasks in `lpt_order`, and a sequential pool runs them
        // in exactly the order it receives them.
        let order = priced_execution_order(&SequentialPool::new(n_pes), &costs);
        prop_assert_eq!(order, lpt_order(&costs));
        // A one-worker work queue drains in submission order as well.
        let order = priced_execution_order(&CrossbeamPool::work_queue(1), &costs);
        prop_assert_eq!(order, lpt_order(&costs));
    }

    #[test]
    fn weighted_audit_describes_the_last_priced_run(
        costs in proptest::collection::vec(0u64..4, 0..24),
        speeds in proptest::collection::vec(0.25f64..4.0, 1..6),
    ) {
        let pool = WeightedPool::new(speeds.clone());
        prop_assert!(pool.last_audit().is_none(), "audit before any priced run");
        pool.run(indexed_tasks(costs.len()));
        prop_assert!(pool.last_audit().is_none(), "a plain run is not audited");
        pool.run_priced(indexed_tasks(costs.len()), &costs);
        let audit = pool.last_audit();
        let Some(a) = audit.clone() else {
            return Err(TestCaseError::Fail("priced run left no audit".into()));
        };
        prop_assert_eq!(a.total_units, costs.iter().sum::<u64>());
        prop_assert_eq!(a.n_pes, speeds.len());
        prop_assert_eq!(a.per_pe_utilization.len(), speeds.len());
        prop_assert_eq!(a.predicted_makespan_units, lpt_makespan_weighted(&costs, &speeds));
        pool.run(indexed_tasks(3));
        // A plain run leaves the audit untouched.
        prop_assert_eq!(pool.last_audit(), audit);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn run_priced_rejects_a_cost_length_mismatch_naming_both_lengths(
        n_tasks in 0usize..8,
        n_costs in 0usize..8,
    ) {
        prop_assume!(n_tasks != n_costs);
        let want = format!("{n_tasks} tasks but {n_costs} costs");
        for msg in [
            mismatch_message(&SequentialPool::new(2), n_tasks, n_costs),
            mismatch_message(&CrossbeamPool::new(2), n_tasks, n_costs),
            mismatch_message(&CrossbeamPool::work_queue(2), n_tasks, n_costs),
            mismatch_message(&WeightedPool::uniform(2), n_tasks, n_costs),
        ] {
            prop_assert!(msg.contains(&want), "panic message {msg:?} lacks {want:?}");
        }
    }
}
