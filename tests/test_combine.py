"""Unit tests for Appendix F combination (and the mixed-bias extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BiasedPRF,
    PrivacyParams,
    SketchEstimator,
    Sketcher,
    combine_from_weight_counts,
    combine_mixed_bits,
    combine_sketch_groups,
    combine_virtual_bits,
    condition_number,
    mixed_perturbation_matrix,
    perturbation_matrix,
    solve_weight_counts,
    transition_probability,
    weight_histogram,
)

KEY = b"reproduction-global-key-32bytes!"


class TestTransitionProbability:
    def test_columns_are_distributions(self):
        for k in (1, 3, 6):
            for p in (0.1, 0.3, 0.49):
                for before in range(k + 1):
                    total = sum(
                        transition_probability(k, before, after, p)
                        for after in range(k + 1)
                    )
                    assert total == pytest.approx(1.0)

    def test_single_bit_kernel(self):
        assert transition_probability(1, 1, 1, 0.2) == pytest.approx(0.8)
        assert transition_probability(1, 1, 0, 0.2) == pytest.approx(0.2)
        assert transition_probability(1, 0, 1, 0.2) == pytest.approx(0.2)

    def test_no_noise_is_identity(self):
        for before in range(4):
            for after in range(4):
                expected = 1.0 if before == after else 0.0
                assert transition_probability(3, before, after, 0.0) == pytest.approx(
                    expected
                )

    def test_symmetry_of_full_flip(self):
        # p = 1 maps weight l deterministically to k - l.
        for k in (2, 5):
            for l in range(k + 1):
                assert transition_probability(k, l, k - l, 1.0) == pytest.approx(1.0)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        k, p, before = 5, 0.3, 2
        word = np.array([1, 1, 0, 0, 0])
        flips = rng.random((200000, k)) < p
        after = (word ^ flips).sum(axis=1)
        for target in range(k + 1):
            expected = transition_probability(k, before, target, p)
            assert (after == target).mean() == pytest.approx(expected, abs=0.005)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            transition_probability(-1, 0, 0, 0.2)
        with pytest.raises(ValueError):
            transition_probability(3, 4, 0, 0.2)
        with pytest.raises(ValueError):
            transition_probability(3, 0, 0, 1.2)


class TestPerturbationMatrix:
    def test_shape_and_column_sums(self):
        matrix = perturbation_matrix(4, 0.25)
        assert matrix.shape == (5, 5)
        assert matrix.sum(axis=0) == pytest.approx(np.ones(5))

    def test_condition_grows_with_k(self):
        conditions = [condition_number(k, 0.3) for k in (1, 3, 5, 8)]
        assert conditions == sorted(conditions)

    def test_condition_grows_as_p_approaches_half(self):
        conditions = [condition_number(5, p) for p in (0.1, 0.25, 0.4, 0.45)]
        assert conditions == sorted(conditions)

    def test_memoised_kernel_is_bit_identical_and_read_only(self):
        from repro.core.combine import _kernel

        for k, p in [(1, 0.3), (3, 0.25), (6, 0.45)]:
            memo, condition = _kernel(k, p)
            fresh = perturbation_matrix(k, p)
            assert memo.tobytes() == fresh.tobytes()
            assert condition == float(np.linalg.cond(fresh))
            assert _kernel(k, p)[0] is memo
            assert not memo.flags.writeable
            with pytest.raises(ValueError):
                memo[0, 0] = 0.0
            # The public matrix stays a fresh, writable array per call.
            assert fresh.flags.writeable
            assert perturbation_matrix(k, p) is not fresh
        counts = [7, 11, 5, 2]
        combined = combine_from_weight_counts(counts, 25, 0.3)
        histogram = np.asarray(counts, dtype=np.float64) / 25
        fresh = perturbation_matrix(3, 0.3)
        assert combined.weight_distribution.tobytes() == (
            np.linalg.solve(fresh, histogram).tobytes()
        )
        assert combined.condition == float(np.linalg.cond(fresh))


class TestWeightHistogram:
    def test_counts_correctly(self):
        bits = np.array([[1, 1, 0], [0, 0, 0], [1, 1, 1], [1, 0, 0]])
        histogram = weight_histogram(bits)
        assert histogram == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            weight_histogram(np.array([1, 0, 1]))


class TestSolveAndCombine:
    def test_perfect_recovery_without_noise(self):
        x = np.array([0.1, 0.2, 0.3, 0.4])
        y = perturbation_matrix(3, 0.2) @ x
        assert solve_weight_counts(y, 0.2) == pytest.approx(x)

    def test_recovers_all_ones_fraction(self):
        rng = np.random.default_rng(1)
        truth_rows = (rng.random((60000, 3)) < 0.6).astype(int)
        flips = rng.random(truth_rows.shape) < 0.2
        observed = truth_rows ^ flips
        estimate = combine_virtual_bits(observed, 0.2)
        truth = float((truth_rows.sum(axis=1) == 3).mean())
        assert estimate.fraction == pytest.approx(truth, abs=0.02)
        assert estimate.none_fraction == pytest.approx(
            float((truth_rows.sum(axis=1) == 0).mean()), abs=0.02
        )

    def test_weight_distribution_sums_to_one(self):
        rng = np.random.default_rng(2)
        observed = (rng.random((5000, 4)) < 0.5).astype(int)
        estimate = combine_virtual_bits(observed, 0.25)
        assert estimate.weight_distribution.sum() == pytest.approx(1.0)

    def test_clamped_fraction_in_unit_interval(self):
        rng = np.random.default_rng(3)
        observed = (rng.random((50, 6)) < 0.5).astype(int)
        estimate = combine_virtual_bits(observed, 0.45)
        assert 0.0 <= estimate.clamped_fraction <= 1.0


class TestCombineSketchGroups:
    def test_matches_direct_estimate_shape(self, params, prf, estimator):
        rng = np.random.default_rng(4)
        num_users = 4000
        profiles = (rng.random((num_users, 2)) < 0.5).astype(int)
        sketcher = Sketcher(params, prf, sketch_bits=8, rng=rng)
        group0 = [
            sketcher.sketch(f"u{i}", profiles[i], (0,)) for i in range(num_users)
        ]
        group1 = [
            sketcher.sketch(f"u{i}", profiles[i], (1,)) for i in range(num_users)
        ]
        combined = combine_sketch_groups(estimator, [group0, group1], [(1,), (1,)])
        truth = float((profiles.sum(axis=1) == 2).mean())
        assert combined.fraction == pytest.approx(truth, abs=0.06)
        assert combined.num_users == num_users

    def test_rejects_mismatched_groups(self, params, prf, estimator):
        sketcher = Sketcher(params, prf, sketch_bits=6, rng=np.random.default_rng(5))
        group0 = [sketcher.sketch("a", [1, 0], (0,))]
        group1 = [sketcher.sketch("b", [1, 0], (1,))]
        with pytest.raises(ValueError):
            combine_sketch_groups(estimator, [group0, group1], [(1,), (1,)])
        with pytest.raises(ValueError):
            combine_sketch_groups(estimator, [group0], [(1,), (1,)])
        with pytest.raises(ValueError):
            combine_sketch_groups(estimator, [], [])


class TestMixedBias:
    def test_kron_structure(self):
        kernel = mixed_perturbation_matrix(2, 0.2, 1, 0.32)
        expected = np.kron(perturbation_matrix(2, 0.2), perturbation_matrix(1, 0.32))
        assert kernel == pytest.approx(expected)

    def test_recovers_joint_all_ones(self):
        rng = np.random.default_rng(6)
        num_users = 80000
        group1 = (rng.random((num_users, 2)) < 0.7).astype(int)
        group2 = (rng.random((num_users, 1)) < 0.5).astype(int)
        truth = float(
            ((group1.sum(axis=1) == 2) & (group2.sum(axis=1) == 1)).mean()
        )
        p1, p2 = 0.2, 0.32
        noisy1 = group1 ^ (rng.random(group1.shape) < p1)
        noisy2 = group2 ^ (rng.random(group2.shape) < p2)
        estimate = combine_mixed_bits(noisy1, noisy2, p1, p2)
        assert estimate == pytest.approx(truth, abs=0.02)

    def test_empty_group_degenerates_to_single_system(self):
        rng = np.random.default_rng(7)
        bits = (rng.random((20000, 2)) < 0.5).astype(int)
        noisy = bits ^ (rng.random(bits.shape) < 0.25)
        empty = np.zeros((20000, 0), dtype=int)
        single = combine_virtual_bits(noisy, 0.25).fraction
        assert combine_mixed_bits(noisy, empty, 0.25, 0.4) == pytest.approx(single)
        assert combine_mixed_bits(empty, noisy, 0.4, 0.25) == pytest.approx(single)

    def test_rejects_misaligned_rows(self):
        with pytest.raises(ValueError):
            combine_mixed_bits(np.zeros((3, 1)), np.zeros((4, 1)), 0.2, 0.2)

    def test_rejects_double_empty(self):
        with pytest.raises(ValueError):
            combine_mixed_bits(np.zeros((3, 0)), np.zeros((3, 0)), 0.2, 0.2)
