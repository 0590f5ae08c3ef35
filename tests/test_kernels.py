"""Kernel shapes, scaled evaluation, weight rows, bandwidth specs."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nwbackfit.kernels import (
    ConstantBandwidth,
    Kernel,
    KNearestBandwidth,
    PerPointBandwidth,
    RateBandwidth,
    parse_bandwidth,
)

from conftest import ALL_KERNELS, eval_scaled, kernel_oracle, knn_bandwidth_fullsort, weight_row

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestKernelShapes:
    def test_uniform_values(self):
        # 1/2 strictly inside the support, 0 at and beyond the edge
        t = np.array([0.0, 0.5, 0.999, 1.0, -1.0, 1.2])
        assert_allclose(Kernel.UNIFORM.evaluate(t), [0.5, 0.5, 0.5, 0.0, 0.0, 0.0])

    def test_epanechnikov_values(self):
        t = np.array([0.0, 0.5, 1.0, -2.0])
        assert_allclose(Kernel.EPANECHNIKOV.evaluate(t), [0.75, 0.5625, 0.0, 0.0])

    def test_triangular_values(self):
        t = np.array([0.0, 0.25, -0.25, 1.0, 3.0])
        assert_allclose(Kernel.TRIANGULAR.evaluate(t), [1.0, 0.75, 0.75, 0.0, 0.0])

    def test_gaussian_values(self):
        assert_allclose(Kernel.GAUSSIAN.evaluate(np.array([0.0])), [1.0 / SQRT_2PI])
        assert_allclose(
            Kernel.GAUSSIAN.evaluate(np.array([1.0])), [math.exp(-0.5) / SQRT_2PI]
        )

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_symmetry_and_nonnegativity(self, kernel):
        t = np.random.default_rng(0).uniform(-3.0, 3.0, 200)
        vals = kernel.evaluate(t)
        assert_allclose(vals, kernel.evaluate(-t), atol=0.0)
        assert (vals >= 0.0).all()

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_compact_support_flag(self, kernel):
        beyond = kernel.evaluate(np.array([1.5, 10.0]))
        if kernel.compact_support:
            assert (beyond == 0.0).all()
        else:
            assert (beyond > 0.0).all()

    def test_gaussian_underflow_flush(self):
        # raw values below the representable floor come back as exact zero
        assert Kernel.GAUSSIAN.evaluate(np.array([38.0]))[0] == 0.0
        assert Kernel.GAUSSIAN.evaluate(np.array([37.0]))[0] > 0.0

    def test_from_name(self):
        assert Kernel.from_name("gaussian") is Kernel.GAUSSIAN
        assert Kernel.from_name("EPANECHNIKOV") is Kernel.EPANECHNIKOV
        with pytest.raises(ValueError):
            Kernel.from_name("tricube")

    def test_scalar_input_gives_array(self):
        out = Kernel.TRIANGULAR.evaluate(0.5)
        assert float(out) == 0.5

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_in_place_matches_oracle(self, kernel):
        # bit for bit, NaN and sign bits included, in a fresh result and
        # in place on the input, for a Python scalar and 0-d to 2-d arrays.
        # The oracle flushes every shape below ZERO_THRESHOLD and evaluate
        # only the Gaussian: at nextafter(+-1, 0), NaN, +-inf and random t
        # a compact shape's values come out the same without the flush
        edges = np.array([
            0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
            -np.nextafter(1.0, 0.0), 5e-324, -5e-324, 37.0, 38.0, -38.0,
            1e300, -1e300, np.inf, -np.inf, np.nan,
        ])
        grid = np.random.default_rng(1).normal(scale=3.0, size=(7, 9))
        # the Gaussian flushes only when some value underflows: it must
        # not reduce an empty array, nor let a NaN hide the underflow of
        # 38 (exp(-722) is a denormal; at 40 exp itself gives 0)
        one_tiny = np.zeros((4, 5))
        one_tiny[2, 3] = 38.0
        inputs = [
            0.5, np.float64(-0.0), np.array(38.0), edges, grid, edges.reshape(1, -1),
            np.empty(0), np.empty((3, 0)), np.array([np.nan, 40.0]), np.array([np.nan, 38.0]),
            one_tiny,
        ]
        with np.errstate(over="ignore"):  # t * t overflows at 1e300: K is 0 there
            for t in inputs:
                want = kernel_oracle(kernel, t)
                t = np.array(t, dtype=float)
                fresh = kernel.evaluate(t)
                in_place = kernel.evaluate(t, out=t)
                assert in_place is t
                for got in (fresh, in_place):
                    assert type(got) is type(want) and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


class TestEvalScaled:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_matches_unscaled(self, kernel):
        t = np.linspace(-2.0, 2.0, 17)
        h = 0.7
        assert_allclose(eval_scaled(kernel, t, h), kernel.evaluate(t / h) / h)

    @pytest.mark.parametrize("h", [0.0, -1.0, np.inf, np.nan])
    def test_invalid_bandwidth(self, h):
        with pytest.raises(ValueError):
            eval_scaled(Kernel.GAUSSIAN, np.array([0.0]), h)


class TestWeightRow:
    def test_uniform_hand_case(self):
        # point at 0 with h=1 sees itself and 0.5 but not 2
        w = weight_row(Kernel.UNIFORM, np.array([0.0, 0.5, 2.0]), 0, 1.0)
        assert_allclose(w, [0.5, 0.5, 0.0])

    def test_rows_normalized(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=25)
        for kernel in ALL_KERNELS:
            for i in (0, 7, 24):
                w = weight_row(kernel, x, i, 2.0)
                assert_allclose(w.sum(), 1.0, atol=1e-12)
                assert (w >= 0.0).all()

    def test_isolated_point_self_weight(self):
        # K(0) > 0 for every kernel, so an isolated point weights itself
        w = weight_row(Kernel.UNIFORM, np.array([0.0, 5.0, 10.0]), 0, 0.5)
        assert_allclose(w, [1.0, 0.0, 0.0])


class TestConstantBandwidth:
    def test_resolve(self):
        x = np.arange(5.0)
        assert_allclose(ConstantBandwidth(0.3).resolve(x), np.full(5, 0.3))

    @pytest.mark.parametrize("h", [0.0, -0.5, np.inf])
    def test_invalid(self, h):
        with pytest.raises(ValueError):
            ConstantBandwidth(h)


class TestPerPointBandwidth:
    def test_resolve_passthrough(self):
        h = np.array([0.1, 0.2, 0.3])
        assert_allclose(PerPointBandwidth(h).resolve(np.zeros(3)), h)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PerPointBandwidth(np.array([0.1, 0.2])).resolve(np.zeros(3))

    def test_nonpositive_entry(self):
        with pytest.raises(ValueError):
            PerPointBandwidth(np.array([0.1, 0.0, 0.3]))


class TestKNearestBandwidth:
    def test_hand_oracle(self):
        x = np.array([0.0, 1.0, 3.0, 6.0])
        assert_allclose(KNearestBandwidth(1).resolve(x), [1.0, 1.0, 2.0, 3.0])
        assert_allclose(KNearestBandwidth(2).resolve(x), [3.0, 2.0, 3.0, 5.0])

    def test_brute_force_sweep(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=30)
        for k in (1, 3, 10):
            got = KNearestBandwidth(k).resolve(x)
            want = [sorted(abs(x - xi))[k] for xi in x]  # includes the self distance 0
            assert_allclose(got, want)

    def test_window_scan_is_bit_identical(self):
        # random, gridded (ties in distance), duplicated and clustered
        # samples, k from 1 to n - 1
        rng = np.random.default_rng(10)
        samples = [
            rng.normal(size=200),
            rng.integers(0, 40, size=120) * 0.1,
            np.repeat(rng.uniform(size=30), rng.integers(1, 3, size=30)),
            np.concatenate([rng.uniform(0.0, 1e-9, 20), rng.uniform(5.0, 6.0, 20)]),
            rng.uniform(size=9),
        ]
        for x in samples:
            rng.shuffle(x)
            n = len(x)
            for k in sorted({1, 2, 3, 7, n // 2, n - 2, n - 1}):
                if k < 1 or k > n - 1:
                    continue
                want = knn_bandwidth_fullsort(x, k)
                if not (want > 0.0).all():
                    continue
                assert np.array_equal(KNearestBandwidth(k).resolve(x), want), (n, k)

    def test_off_sample_is_bit_identical(self):
        rng = np.random.default_rng(12)
        x = np.round(rng.normal(size=60), 1)  # ties at the query distance
        order = np.argsort(x, kind="stable")
        for at in (*x[:5], 0.05, -3.0, 10.0):
            for k in (1, 2, 5, 59, 60):
                want = float(np.sort(np.abs(x - at))[k - 1])
                if want > 0.0:
                    assert KNearestBandwidth(k).off_sample(x, order, at)[0] == want
        with pytest.raises(ValueError, match="exceeds the sample size"):
            KNearestBandwidth(61).off_sample(x, order, 0.0)
        with pytest.raises(ValueError, match="coincide with the query"):
            KNearestBandwidth(1).off_sample(x, order, float(x[0]))

    def test_off_sample_partitions_at_most_2k_values(self, monkeypatch):
        # a query reads only the 2k sorted positions around it, not all n
        rng = np.random.default_rng(13)
        x = rng.uniform(size=4000)
        order = np.argsort(x, kind="stable")
        sizes = []

        def recording(a, kth, partition=np.partition):
            sizes.append(len(a))
            return partition(a, kth)

        monkeypatch.setattr(np, "partition", recording)
        for k in (1, 30, 200):
            for at in (-1.0, 0.0, *rng.uniform(size=20), 1.0, 2.0):
                KNearestBandwidth(k).off_sample(x, order, at)
            assert sizes and max(sizes) <= 2 * k, (k, max(sizes))
            sizes.clear()

    def test_duplicate_points_raise(self):
        with pytest.raises(ValueError):
            KNearestBandwidth(1).resolve(np.array([0.0, 0.0, 1.0]))
        # k duplicates of one point leave it no positive k-th distance
        x = np.array([3.0, 0.5, 2.0, 0.5, 1.0, 0.5])
        with pytest.raises(ValueError, match="zero at index 1: point has >= 2 duplicates"):
            KNearestBandwidth(2).resolve(x)
        assert np.array_equal(KNearestBandwidth(3).resolve(x), knn_bandwidth_fullsort(x, 3))

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            KNearestBandwidth(5).resolve(np.array([0.0, 1.0, 2.0]))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNearestBandwidth(0)


class TestRateBandwidth:
    def test_realize_sd_scaled(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=50)
        got = RateBandwidth(0.2).realize(x).h
        assert_allclose(got, float(np.std(x)) * 50 ** -0.2, rtol=1e-14)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_delta(self, delta):
        with pytest.raises(ValueError):
            RateBandwidth(delta)

    def test_constant_coordinate_rejected(self):
        with pytest.raises(ValueError):
            RateBandwidth(0.2).realize(np.full(8, 3.0))


class TestParseBandwidth:
    def test_forms(self):
        assert parse_bandwidth("0.25") == ConstantBandwidth(0.25)
        rate = parse_bandwidth("rate:0.2")
        assert isinstance(rate, RateBandwidth) and rate.delta == 0.2
        knn = parse_bandwidth("knn:3")
        assert isinstance(knn, KNearestBandwidth) and knn.k == 3

    @pytest.mark.parametrize("text", ["abc", "rate:2", "knn:0", "-1.0"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_bandwidth(text)
