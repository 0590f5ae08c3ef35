"""Smoother matrix construction, centering, and dataset validation."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse import issparse

from nwbackfit import smoothers
from nwbackfit.kernels import (
    ConstantBandwidth,
    Kernel,
    KNearestBandwidth,
    PerPointBandwidth,
    RateBandwidth,
)
from nwbackfit.smoothers import Dataset, build_pair, build_smoother, center

from conftest import ALL_KERNELS, build_smoother_oneshot, gap_passing_constant, weight_row

COMPACT_KERNELS = [k for k in ALL_KERNELS if k.compact_support]


def assert_same_csr(s, want):
    """A CSR smoother against the dense oracle: same positive pattern,
    sorted indices, no stored zeros, and entries within 1e-14."""
    assert issparse(s) and s.format == "csr"
    assert s.has_sorted_indices
    assert (s.data > 0.0).all()
    got = s.toarray()
    assert np.array_equal(got > 0.0, want > 0.0)
    assert_allclose(got, want, rtol=1e-14, atol=0.0)


def random_dataset(rng, n):
    u = rng.normal(size=n) if rng.random() < 0.5 else rng.uniform(0.0, 1.0, n)
    v = rng.normal(size=n) if rng.random() < 0.5 else rng.uniform(-2.0, 2.0, n)
    return Dataset(y=rng.normal(size=n), u=u, v=v)


class TestDataset:
    def test_sort_permutations(self):
        d = Dataset(
            y=np.array([1.0, 2.0, 3.0]),
            u=np.array([0.3, 0.1, 0.2]),
            v=np.array([5.0, 4.0, 6.0]),
        )
        assert list(d.sort_u) == [1, 2, 0]
        assert list(d.sort_v) == [1, 0, 2]
        assert d.n == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(y=np.zeros(3), u=np.zeros(3), v=np.zeros(4))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(y=np.array([0.0, np.nan]), u=np.zeros(2), v=np.zeros(2))

    def test_too_small(self):
        with pytest.raises(ValueError):
            Dataset(y=np.array([1.0]), u=np.array([0.0]), v=np.array([0.0]))

    def test_not_one_dimensional(self):
        with pytest.raises(ValueError):
            Dataset(y=np.zeros((2, 2)), u=np.zeros((2, 2)), v=np.zeros((2, 2)))


class TestBuildSmoother:
    def test_row_stochastic_sweep(self):
        # quantified invariant: every row sums to 1 and is nonnegative
        rng = np.random.default_rng(21)
        checked = 0
        for trial in range(108):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=n) * float(rng.uniform(0.5, 3.0))
            kernel = ALL_KERNELS[trial % 4]
            bw = gap_passing_constant(x, rng) if kernel.compact_support else ConstantBandwidth(
                float(rng.uniform(0.05, 2.0))
            )
            s = build_smoother(x, kernel, bw)
            assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12
            assert s.min() >= 0.0
            checked += 1
        assert checked >= 100

    def test_triangular_hand_case(self):
        # x = [0, 0.4], h = 1: off-diagonal weight (1 - 0.4) / (1 + 0.6)
        s = build_smoother(np.array([0.0, 0.4]), Kernel.TRIANGULAR, ConstantBandwidth(1.0))
        assert_allclose(s, [[0.625, 0.375], [0.375, 0.625]], atol=1e-15)

    def test_uniform_truncation(self):
        s = build_smoother(np.array([0.0, 0.5, 2.0]), Kernel.UNIFORM, ConstantBandwidth(1.0))
        assert_allclose(s[0], [0.5, 0.5, 0.0])
        assert_allclose(s[2], [0.0, 0.0, 1.0])

    def test_scale_covariance(self):
        # scaling x and h together leaves the weight matrix unchanged
        rng = np.random.default_rng(22)
        x = rng.normal(size=20)
        for kernel in ALL_KERNELS:
            for c in (0.01, 7.3):
                s1 = build_smoother(x, kernel, ConstantBandwidth(0.8))
                s2 = build_smoother(c * x, kernel, ConstantBandwidth(0.8 * c))
                assert np.abs(s1 - s2).max() <= 1e-12

    def test_scale_covariance_knn(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=15)
        s1 = build_smoother(x, Kernel.EPANECHNIKOV, KNearestBandwidth(4))
        s2 = build_smoother(3.0 * x, Kernel.EPANECHNIKOV, KNearestBandwidth(4))
        assert np.abs(s1 - s2).max() <= 1e-12

    def test_per_point_bandwidth_rows(self):
        # each row is the normalized kernel slice at its own bandwidth
        from nwbackfit.kernels import PerPointBandwidth

        rng = np.random.default_rng(24)
        x = np.sort(rng.uniform(0.0, 1.0, 10))
        h = rng.uniform(0.5, 1.5, 10)
        s = build_smoother(x, Kernel.GAUSSIAN, PerPointBandwidth(h))
        for i in range(10):
            assert_allclose(s[i], weight_row(Kernel.GAUSSIAN, x, i, float(h[i])), atol=1e-15)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "bw",
        [ConstantBandwidth(0.3), RateBandwidth(0.2), KNearestBandwidth(30)],
        ids=["constant", "rate", "knn"],
    )
    def test_blocked_build_is_bit_identical(self, kernel, bw):
        # 600 rows: two full blocks and a partial one.  A dense build is
        # bit-identical; a CSR one (compact kernels at knn:30, 5% fill)
        # stores the same positive pattern, and only its row totals are
        # summed in another order
        x = np.random.default_rng(22).normal(size=600)
        s = build_smoother(x, kernel, bw)
        want = build_smoother_oneshot(x, kernel, bw)
        if isinstance(bw, KNearestBandwidth) and kernel.compact_support:
            assert_same_csr(s, want)
        else:
            assert np.array_equal(s, want)

    @pytest.mark.parametrize("kernel", COMPACT_KERNELS, ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "x, bw",
        [
            # grid points exactly h apart, where |t| = 1 weighs zero
            (np.arange(40) * 0.125, ConstantBandwidth(0.25)),
            (np.arange(40) * 0.1, ConstantBandwidth(0.2)),
            (np.arange(40) * 0.1 - 2.0, ConstantBandwidth(0.30000000000000004)),
            (1e6 + np.arange(40) * 0.1, ConstantBandwidth(0.3)),
            # ties and duplicates
            (np.repeat(np.arange(10) * 0.5, 4), ConstantBandwidth(0.5)),
            (np.repeat(np.arange(20) * 0.1, 2), KNearestBandwidth(3)),
            (np.round(np.random.default_rng(25).normal(size=60), 1), KNearestBandwidth(9)),
            # per-point and rate bandwidths
            (np.arange(30) * 0.1, PerPointBandwidth(np.tile([0.1, 0.2, 0.30000000000000004], 10))),
            (np.random.default_rng(26).uniform(size=50), RateBandwidth(0.6)),
        ],
        ids=[
            "grid-binary", "grid-tenths", "grid-negative", "grid-offset",
            "ties-constant", "duplicates-knn", "rounded-knn", "per-point", "rate",
        ],
    )
    def test_csr_window_edges(self, monkeypatch, kernel, x, bw):
        # every window is stored as CSR here; a point exactly h away, or
        # a few ulps inside, must be in the window exactly when the dense
        # build weighs it
        monkeypatch.setattr(smoothers, "CSR_MAX_FILL", 1.0)
        assert_same_csr(build_smoother(x, kernel, bw), build_smoother_oneshot(x, kernel, bw))

    def test_fill_rule_chooses_representation(self):
        x = np.random.default_rng(27).uniform(size=400)
        # 1/16 fill is the boundary: windows of about 2 h n points
        assert issparse(build_smoother(x, Kernel.UNIFORM, ConstantBandwidth(0.02)))
        assert not issparse(build_smoother(x, Kernel.UNIFORM, ConstantBandwidth(0.05)))
        assert not issparse(build_smoother(x, Kernel.GAUSSIAN, ConstantBandwidth(0.001)))

    def test_csr_build_memory(self):
        # a knn:30 build at n = 4000 holds about 0.75% of the n x n
        # entries; the dense build peaked at 276 MB
        x = np.random.default_rng(28).uniform(size=4000)
        bw = KNearestBandwidth(30)
        tracemalloc.start()
        try:
            s = build_smoother(x, Kernel.EPANECHNIKOV, bw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert issparse(s)
        assert peak < 16e6

    def test_storage_bounds_the_csr_arrays(self):
        x = np.random.default_rng(27).uniform(size=400)
        bw = ConstantBandwidth(0.02)
        s = build_smoother(x, Kernel.UNIFORM, bw)
        kind, size = smoothers.smoother_storage(x, Kernel.UNIFORM, bw)
        assert kind == "CSR" and s.indices.dtype == np.int32
        assert s.data.nbytes + s.indices.nbytes + s.indptr.nbytes <= size

    def test_storage_counts_int64_indices(self):
        # n = 200,000 uniform points at h = 0.03 give 2.36e9 window entries
        # at 5.9% fill: a CSR build with int64 indices, 16 bytes an entry
        # and 8 a row pointer.  Only the windows are computed.
        n = 200_000
        x = np.random.default_rng(29).uniform(size=n)
        bw = ConstantBandwidth(0.03)
        tracemalloc.start()
        try:
            kind, size = smoothers.smoother_storage(x, Kernel.UNIFORM, bw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, lo, hi = smoothers._csr_windows(x, Kernel.UNIFORM, bw.resolve(x))
        entries = int((hi - lo).sum())
        assert kind == "CSR" and entries >= 2**31
        assert size == 16 * entries + 8 * (n + 1)
        assert peak < 32e6

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_smoother(np.array([1.0]), Kernel.GAUSSIAN, ConstantBandwidth(1.0))


class TestCenter:
    def test_hand_case(self):
        s = np.array([[0.8, 0.2], [0.4, 0.6]])
        assert_allclose(center(s), [[0.2, -0.2], [-0.2, 0.2]], atol=1e-15)

    def test_annihilates_constants(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            data = random_dataset(rng, n)
            kernel = ALL_KERNELS[int(rng.integers(4))]
            bw = gap_passing_constant(data.u, rng)
            s = build_smoother(data.u, kernel, bw)
            assert np.abs(center(s) @ np.ones(n)).max() <= 1e-10

    def test_action_is_demeaned_smooth(self):
        # center(s) w = s w - mean(s w) for any vector w
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            s = rng.random((n, n))
            s /= s.sum(axis=1, keepdims=True)
            w = rng.normal(size=n)
            sw = s @ w
            assert np.abs(center(s) @ w - (sw - sw.mean())).max() <= 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            center(np.zeros((2, 3)))


class TestBuildPair:
    def test_identical_coordinates_give_identical_smoothers(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=12)
        data = Dataset(y=rng.normal(size=12), u=x, v=x.copy())
        bw = ConstantBandwidth(1.0)
        pair = build_pair(data, Kernel.EPANECHNIKOV, bw, bw)
        assert np.array_equal(pair.s1, pair.s2)
        assert np.array_equal(center(pair.s1), center(pair.s2))

    def test_huge_bandwidth_centers_to_zero(self):
        rng = np.random.default_rng(42)
        data = random_dataset(rng, 14)
        bw = ConstantBandwidth(1e6)
        pair = build_pair(data, Kernel.UNIFORM, bw, bw)
        assert np.abs(center(pair.s1)).max() <= 1e-14
        assert np.abs(center(pair.s2)).max() <= 1e-14

    def test_star_matrices_match_center(self):
        # the pair stores S1 and S2 only; its centered apply and formed
        # product agree with the explicitly centered matrices
        rng = np.random.default_rng(43)
        data = random_dataset(rng, 16)
        x = rng.normal(size=data.n)
        for kernel in ALL_KERNELS:
            for bw in (ConstantBandwidth(0.9), RateBandwidth(0.2), KNearestBandwidth(3)):
                pair = build_pair(data, kernel, bw, bw)
                assert set(vars(pair)) == {"s1", "s2"}
                assert pair.n == data.n
                assert_allclose(pair.apply_s1_star(x), center(pair.s1) @ x, rtol=0, atol=1e-14)
                assert_allclose(pair.apply_s2_star(x), center(pair.s2) @ x, rtol=0, atol=1e-14)
                assert_allclose(
                    pair.star_product(), center(pair.s2) @ center(pair.s1), rtol=0, atol=1e-14
                )

    def test_mixed_bandwidth_specs(self):
        rng = np.random.default_rng(44)
        data = random_dataset(rng, 18)
        pair = build_pair(data, Kernel.GAUSSIAN, KNearestBandwidth(3), ConstantBandwidth(0.9))
        assert np.abs(pair.s1.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(pair.s2.sum(axis=1) - 1.0).max() <= 1e-12
