"""Smoother matrix construction, centering, and dataset validation."""

import os
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg.blas import dsymv
from scipy.sparse import csr_array, issparse

from nwbackfit import smoothers
from nwbackfit.kernels import (
    ZERO_THRESHOLD,
    ConstantBandwidth,
    Kernel,
    KNearestBandwidth,
    PerPointBandwidth,
    RateBandwidth,
)
from nwbackfit.smoothers import (
    Dataset,
    OperatorSmoother,
    PackedPair,
    PackedSmoother,
    SmootherPair,
    WindowPair,
    WindowSmoother,
    as_dense,
    build_pair,
    build_smoother,
    center,
)

from conftest import (
    ALL_KERNELS,
    build_csr_oneshot,
    build_packed_oneshot,
    build_smoother_oneshot,
    gap_passing_constant,
    weight_row,
)

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


# grid points exactly h apart, where |t| = 1 weighs zero; ties and
# duplicates; per-point and rate bandwidths
EDGE_CASES = [
    pytest.param(np.arange(40) * 0.125, ConstantBandwidth(0.25), id="grid-binary"),
    pytest.param(np.arange(40) * 0.1, ConstantBandwidth(0.2), id="grid-tenths"),
    pytest.param(
        np.arange(40) * 0.1 - 2.0, ConstantBandwidth(0.30000000000000004), id="grid-negative"
    ),
    pytest.param(1e6 + np.arange(40) * 0.1, ConstantBandwidth(0.3), id="grid-offset"),
    pytest.param(np.repeat(np.arange(10) * 0.5, 4), ConstantBandwidth(0.5), id="ties-constant"),
    pytest.param(np.repeat(np.arange(20) * 0.1, 2), KNearestBandwidth(3), id="duplicates-knn"),
    pytest.param(
        np.round(np.random.default_rng(25).normal(size=60), 1), KNearestBandwidth(9), id="rounded-knn"
    ),
    pytest.param(
        np.arange(30) * 0.1,
        PerPointBandwidth(np.tile([0.1, 0.2, 0.30000000000000004], 10)),
        id="per-point",
    ),
    pytest.param(np.random.default_rng(26).uniform(size=50), RateBandwidth(0.6), id="rate"),
]


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
    def test_blocked_build_is_bit_identical(self, monkeypatch, kernel, bw):
        # 600 rows: two full slabs and a partial one.  A dense build is
        # bit-identical, on the CPUs the process may use and on one or two
        # of them; a CSR one (compact kernels at knn:30, 5% fill) stores
        # the same positive pattern, and only its row totals are summed in
        # another order
        x = np.random.default_rng(22).normal(size=600)
        want = build_smoother_oneshot(x, kernel, bw)
        for cpus in (None, {0}, {0, 1}):
            if cpus is not None:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            s = build_smoother(x, kernel, bw)
            if isinstance(bw, KNearestBandwidth) and kernel.compact_support:
                assert_same_csr(s, want)
            else:
                assert np.array_equal(s, want)

    def test_one_slab_build_makes_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-slab build started a thread pool")

        monkeypatch.setattr(smoothers, "ThreadPoolExecutor", no_pool)
        x = np.random.default_rng(30).normal(size=smoothers.BUILD_BLOCK)
        s = build_smoother(x, Kernel.GAUSSIAN, ConstantBandwidth(0.3))
        assert np.array_equal(s, build_smoother_oneshot(x, Kernel.GAUSSIAN, ConstantBandwidth(0.3)))

    @pytest.mark.parametrize(
        "kernel, h0",
        [
            pytest.param(Kernel.GAUSSIAN, 0.5, id="gaussian"),
            pytest.param(Kernel.UNIFORM, 0.5, id="uniform"),
            # windows of about 12 points: a CSR build
            pytest.param(Kernel.UNIFORM, 0.01, id="uniform-csr"),
        ],
    )
    def test_overflowing_mass_names_the_lowest_row(self, monkeypatch, kernel, h0):
        # K(0)/h overflows at h = 1e-320, so rows 300 and 550, in the
        # second and third slabs, have an infinite total; slabs finish in
        # any order across threads, but the error names row 300
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        x = np.random.default_rng(31).uniform(size=600)
        h = np.full(600, h0)
        h[[300, 550]] = 1e-320
        assert (smoothers._csr_windows(x, kernel, h) is not None) == (h0 < 0.5)
        with pytest.raises(ValueError, match="row 300 has non-finite total kernel mass"):
            build_smoother(x, kernel, PerPointBandwidth(h))

    @pytest.mark.parametrize("kernel", COMPACT_KERNELS, ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "bw",
        [ConstantBandwidth(0.02), RateBandwidth(0.4), KNearestBandwidth(30)],
        ids=["constant", "rate", "knn"],
    )
    @pytest.mark.parametrize("block", [1, 7, 600, None], ids=["1", "7", "n", "default"])
    def test_csr_build_is_bit_identical_to_oneshot(self, monkeypatch, kernel, bw, block):
        # 600 uniform points, windows of 2-5% of the entries: every slab
        # size leaves slab edges inside windows or at their ends, and the
        # slab-by-slab build must store the one-shot build's arrays
        if block is not None:
            monkeypatch.setattr(smoothers, "BUILD_BLOCK", block)
        x = np.random.default_rng(32).uniform(size=600)
        h = bw.resolve(x)
        windows = smoothers._csr_windows(x, kernel, h)
        assert windows is not None
        s, want = build_smoother(x, kernel, bw), build_csr_oneshot(x, kernel, h, *windows)
        for name in ("indptr", "indices", "data"):
            got, expected = getattr(s, name), getattr(want, name)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("kernel", COMPACT_KERNELS, ids=lambda k: k.value)
    @pytest.mark.parametrize("x, bw", EDGE_CASES)
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

    @pytest.mark.parametrize(
        "kernel, bw",
        [(Kernel.GAUSSIAN, RateBandwidth(0.2)), (Kernel.UNIFORM, ConstantBandwidth(0.3))],
        ids=["gaussian", "uniform"],
    )
    def test_dense_build_memory(self, kernel, bw):
        # the n x n result and O(BUILD_BLOCK n) beside it: the slabs are
        # filled in place, where a build with block temporaries peaked
        # at 30.7 MB
        n = 1500
        x = np.random.default_rng(28).uniform(size=n)
        tracemalloc.start()
        try:
            s = build_smoother(x, kernel, bw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not issparse(s)
        assert peak < 8 * n * n + 4 * smoothers.BUILD_BLOCK * n

    @pytest.mark.parametrize(
        "kernel, bw",
        [(Kernel.EPANECHNIKOV, KNearestBandwidth(30)), (Kernel.UNIFORM, ConstantBandwidth(0.004))],
        ids=["epanechnikov-knn", "uniform"],
    )
    def test_csr_build_peaks_at_its_storage(self, kernel, bw):
        # the bytes _storage counts, one slab's temporaries (at most eight
        # 8-byte values per entry of BUILD_BLOCK windows) and O(n) for the
        # bandwidths and windows; a build with whole-array temporaries
        # peaked at 6.7 and 7.2 MB
        n = 4000
        x = np.random.default_rng(28).uniform(size=n)
        windows = smoothers._csr_windows(x, kernel, bw.resolve(x))
        _, size = smoothers._storage(n, windows)
        _, lo, hi = windows
        tracemalloc.start()
        try:
            s = build_smoother(x, kernel, bw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert issparse(s)
        assert peak < size + 64 * smoothers.BUILD_BLOCK * int((hi - lo).max()) + 64 * n

    def test_storage_bounds_the_csr_arrays(self):
        x = np.random.default_rng(27).uniform(size=400)
        bw = ConstantBandwidth(0.02)
        s = build_smoother(x, Kernel.UNIFORM, bw)
        kind, size = smoothers._storage(400, smoothers._csr_windows(x, Kernel.UNIFORM, bw.resolve(x)))
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
            windows = smoothers._csr_windows(x, Kernel.UNIFORM, bw.resolve(x))
            kind, size = smoothers._storage(n, windows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, lo, hi = windows
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

    def test_star_matrices_match_center(self, monkeypatch):
        # the pair stores S1 and S2 only, as two matrices, packed in one
        # array or as windows; its centered apply and formed product agree
        # with the explicitly centered matrices
        rng = np.random.default_rng(43)

        def check(pair, data):
            x = rng.normal(size=data.n)
            assert pair.n == data.n
            assert_allclose(pair.apply_s1_star(x), center(pair.s1) @ x, rtol=0, atol=1e-14)
            assert_allclose(pair.apply_s2_star(x), center(pair.s2) @ x, rtol=0, atol=1e-14)
            assert_allclose(
                pair.star_product(), center(pair.s2) @ center(pair.s1), rtol=0, atol=1e-14
            )

        data = random_dataset(rng, 16)
        windows = {f"{name}_{c}" for name in ("order", "lo", "hi", "count") for c in "uv"}
        for kernel in ALL_KERNELS:
            for bw in (ConstantBandwidth(0.9), RateBandwidth(0.2), KNearestBandwidth(3)):
                pair = build_pair(data, kernel, bw, bw)
                if kernel is Kernel.UNIFORM:
                    assert set(vars(pair)) == windows | {"s1", "s2"}
                elif isinstance(bw, KNearestBandwidth):
                    assert set(vars(pair)) == {"s1", "s2"}
                else:
                    assert set(vars(pair)) == {"weights", "total_u", "total_v", "s1", "s2"}
                check(pair, data)
        # a CSR pair (fill 0.015), and a mixed one: CSR S1, dense S2
        data = random_dataset(rng, 200)
        for bw_v, sparse in ((KNearestBandwidth(3), True), (KNearestBandwidth(150), False)):
            pair = build_pair(data, Kernel.EPANECHNIKOV, KNearestBandwidth(3), bw_v)
            assert issparse(pair.s1) and issparse(pair.s2) == sparse
            check(pair, data)
        # two CSR smoothers multiply as sparse matrices: only their product is formed
        formed, toarray = [], csr_array.toarray
        monkeypatch.setattr(csr_array, "toarray", lambda s, *a: formed.append(s) or toarray(s, *a))
        pair = build_pair(data, Kernel.EPANECHNIKOV, KNearestBandwidth(3), KNearestBandwidth(3))
        pair.star_product()
        assert len(formed) == 1 and all(formed[0] is not s for s in (pair.s1, pair.s2))

    @pytest.mark.parametrize(
        "kernel, bw",
        [(Kernel.GAUSSIAN, RateBandwidth(0.2)), (Kernel.EPANECHNIKOV, ConstantBandwidth(0.3))],
        ids=["gaussian", "epanechnikov"],
    )
    def test_packed_build_memory(self, kernel, bw):
        # both smoothers in one n x n array and O(BUILD_BLOCK n) beside
        # it; two dense smoothers took 16 n^2 bytes
        n = 1500
        rng = np.random.default_rng(28)
        data = Dataset(y=np.zeros(n), u=rng.uniform(size=n), v=rng.uniform(size=n))
        tracemalloc.start()
        try:
            pair = build_pair(data, kernel, bw, bw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(pair, PackedPair)
        assert peak < 8 * n * n + 4 * smoothers.BUILD_BLOCK * n

    def test_gaussian_packed_build_makes_no_flush_mask(self, monkeypatch):
        # no weight of these data underflows, so no Gaussian slab makes a
        # boolean mask of its rows for the zero flush: the build peaks
        # where an Epanechnikov build of the same pair does
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        n = 1500
        rng = np.random.default_rng(28)
        data = Dataset(y=np.zeros(n), u=rng.uniform(size=n), v=rng.uniform(size=n))
        bw = RateBandwidth(0.2)
        peaks = {}
        for kernel in (Kernel.EPANECHNIKOV, Kernel.GAUSSIAN):
            tracemalloc.start()
            try:
                pair = build_pair(data, kernel, bw, bw)
                peaks[kernel] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert isinstance(pair, PackedPair)
        assert peaks[Kernel.GAUSSIAN] <= peaks[Kernel.EPANECHNIKOV] + 16 * 1024

    @pytest.mark.parametrize(
        "kernel, bw_u, bw_v, v0",
        [
            pytest.param(kernel, bw_u, bw_v, None, id=f"{kernel.value}-{name}")
            for kernel in ALL_KERNELS
            for name, bw_u, bw_v in (
                ("constant", ConstantBandwidth(0.3), ConstantBandwidth(0.4)),
                ("rate", RateBandwidth(0.2), RateBandwidth(0.2)),
            )
        ]
        + [
            # v[0] 37.8 bandwidths beyond the largest other v: row 0 alone
            # holds Gaussian weights below ZERO_THRESHOLD, so only the
            # first slab flushes
            pytest.param(
                Kernel.GAUSSIAN, ConstantBandwidth(0.05), ConstantBandwidth(0.05), 1.0 + 37.8 * 0.05,
                id="gaussian-outlier",
            ),
        ],
    )
    @pytest.mark.parametrize("block", [1, 7, 600, None], ids=["1", "7", "n", "default"])
    def test_packed_build_is_bit_identical_to_oneshot(
        self, monkeypatch, kernel, bw_u, bw_v, v0, block
    ):
        # 600 uniform points per coordinate: every slab size, on one CPU
        # and on two, must store the one-shot array bit for bit, and its
        # totals must be dsymv of that array's two triangles.  build_pair
        # holds a uniform-kernel pair as windows, so the packed build of
        # that kernel is called directly
        if block is not None:
            monkeypatch.setattr(smoothers, "BUILD_BLOCK", block)
        n = 600
        rng = np.random.default_rng(33)
        u, v = rng.uniform(size=n), rng.uniform(size=n)
        if v0 is not None:
            v[0] = v0
        data = Dataset(y=np.zeros(n), u=u, v=v)
        h_u, h_v = bw_u.resolve(u)[0], bw_v.resolve(v)[0]
        want = build_packed_oneshot(u, v, kernel, h_u, h_v)
        if v0 is not None:
            t = (v[:, None] - v[None, :]) / h_v
            raw = np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
            tiny = np.triu((raw > 0.0) & (raw < ZERO_THRESHOLD), 1)
            assert np.array_equal(np.flatnonzero(tiny.any(axis=1)), [0])
        ones = np.ones(n)
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            pair = build_pair(data, kernel, bw_u, bw_v)
            if kernel is Kernel.UNIFORM:
                assert isinstance(pair, WindowPair)
                pair = smoothers._build_packed(u, v, kernel, h_u, h_v)
            assert isinstance(pair, PackedPair)
            assert pair.weights.tobytes() == want.tobytes()
            assert pair.total_u.tobytes() == dsymv(1.0, want.T, ones, lower=0).tobytes()
            assert pair.total_v.tobytes() == dsymv(1.0, want.T, ones, lower=1).tobytes()

    def test_star_product_memory(self):
        # S1 formed once and the product beside the pair's array: three
        # n x n arrays in all, as for a pair of two dense smoothers
        n = 600
        rng = np.random.default_rng(29)
        data = Dataset(y=np.zeros(n), u=rng.uniform(size=n), v=rng.uniform(size=n))
        pair = build_pair(data, Kernel.GAUSSIAN, RateBandwidth(0.2), RateBandwidth(0.2))
        tracemalloc.start()
        try:
            product = pair.star_product()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert product.flags.c_contiguous
        assert peak < 16 * n * n + 4 * smoothers.BUILD_BLOCK * n
        dense = SmootherPair(as_dense(pair.s1), as_dense(pair.s2))
        assert_allclose(product, dense.star_product(), rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "bw_u, bw_v, layout",
        [
            (RateBandwidth(0.2), ConstantBandwidth(0.4), ("packed", "packed")),
            # the decision reads the resolved bandwidths: equal per-point ones pack
            (PerPointBandwidth(np.full(50, 0.3)), ConstantBandwidth(0.4), ("packed", "packed")),
            (KNearestBandwidth(5), ConstantBandwidth(0.4), ("dense", "dense")),
            (ConstantBandwidth(0.01), ConstantBandwidth(0.4), ("CSR", "dense")),
        ],
        ids=["rate-constant", "equal-per-point", "knn", "csr"],
    )
    def test_pair_storage_matches_the_build(self, bw_u, bw_v, layout):
        rng = np.random.default_rng(30)
        data = Dataset(y=np.zeros(50), u=rng.uniform(size=50), v=rng.uniform(size=50))
        kernel = Kernel.EPANECHNIKOV
        pair = build_pair(data, kernel, bw_u, bw_v)
        kind_u, kind_v, nbytes = smoothers.pair_storage(data, kernel, bw_u, bw_v)
        assert (kind_u, kind_v) == layout
        if layout[0] == "packed":
            assert isinstance(pair, PackedPair)
            assert nbytes == sum(a.nbytes for a in (pair.weights, pair.total_u, pair.total_v))
        else:
            assert isinstance(pair, SmootherPair)
            held = [a.nbytes if isinstance(a, np.ndarray) else
                    a.data.nbytes + a.indices.nbytes + a.indptr.nbytes for a in (pair.s1, pair.s2)]
            assert sum(held) <= nbytes

    def test_overflowing_mass_in_a_packed_pair(self):
        # raw weights hold K(0) on the diagonal whatever h is; the totals
        # are checked in the units of K_h, where K(0)/h overflows
        rng = np.random.default_rng(31)
        data = Dataset(y=np.zeros(30), u=rng.uniform(size=30), v=rng.uniform(size=30))
        with pytest.raises(ValueError, match=r"row 0 has non-finite total kernel mass \(inf\)"):
            build_pair(data, Kernel.GAUSSIAN, ConstantBandwidth(1e-320), ConstantBandwidth(0.3))
        with pytest.raises(ValueError, match=r"row 0 has non-finite total kernel mass \(inf\)"):
            build_pair(data, Kernel.GAUSSIAN, ConstantBandwidth(0.3), ConstantBandwidth(1e-320))

    def test_packed_smoother_reads(self):
        # what the certificate reads of a smoother, against the formed matrix
        rng = np.random.default_rng(32)
        data = Dataset(y=np.zeros(300), u=rng.normal(size=300), v=rng.uniform(size=300))
        pair = build_pair(data, Kernel.GAUSSIAN, ConstantBandwidth(0.05), RateBandwidth(0.2))
        assert isinstance(pair, PackedPair)
        for s in (pair.s1, pair.s2):
            assert isinstance(s, PackedSmoother)
            dense = np.asarray(s)
            assert s.shape == dense.shape == (300, 300) and s.ndim == 2
            assert np.array_equal(s > 0.0, dense > 0.0)
            rows, cols = rng.integers(0, 300, 500), rng.integers(0, 300, 500)
            assert np.array_equal(s[rows, cols], dense[rows, cols])
            assert_allclose(s.sum(axis=1), dense.sum(axis=1), rtol=0, atol=1e-14)
            assert 0.0 <= s.min() <= dense.min()
            with pytest.raises(TypeError):
                s[:10, 10:]
        # min() is the pair's smallest raw weight over the smoother's
        # largest total, a positive lower bound when every weight is
        wide = build_pair(data, Kernel.GAUSSIAN, ConstantBandwidth(50.0), ConstantBandwidth(50.0))
        for s, total in ((wide.s1, wide.total_u), (wide.s2, wide.total_v)):
            assert s.min() == wide.weights.min() / total.max()
            assert 0.0 < s.min() <= np.asarray(s).min()
        weights = wide.weights.copy()
        weights[7, 3] = np.nan
        nan_pair = PackedPair(weights, wide.total_u, wide.total_v)
        assert np.isnan(nan_pair.s1.min()) and np.isnan(nan_pair.s2.min())

    def test_mixed_bandwidth_specs(self):
        rng = np.random.default_rng(44)
        data = random_dataset(rng, 18)
        pair = build_pair(data, Kernel.GAUSSIAN, KNearestBandwidth(3), ConstantBandwidth(0.9))
        assert np.abs(pair.s1.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(pair.s2.sum(axis=1) - 1.0).max() <= 1e-12


class TestWindowPair:
    @pytest.mark.parametrize("x, bw", EDGE_CASES)
    def test_window_edges(self, x, bw):
        # a point exactly h away, or a few ulps inside, is in a window
        # exactly when the dense build weighs it; u in sample order and v
        # shuffled, so rows are read through each coordinate's order
        v = np.random.default_rng(27).permutation(x)
        data = Dataset(y=np.zeros(len(x)), u=x, v=v)
        pair = build_pair(data, Kernel.UNIFORM, bw, bw)
        assert isinstance(pair, WindowPair)
        for s, coordinate in ((pair.s1, x), (pair.s2, v)):
            want = build_smoother_oneshot(coordinate, Kernel.UNIFORM, bw)
            got = as_dense(s)
            assert np.array_equal(got > 0.0, want > 0.0)
            assert np.abs(got - want).max() <= 1e-15

    def test_window_smoother_reads(self):
        # what the certificate reads of a smoother, against the formed matrix
        rng = np.random.default_rng(32)
        data = Dataset(y=np.zeros(300), u=rng.normal(size=300), v=rng.uniform(size=300))
        pair = build_pair(data, Kernel.UNIFORM, ConstantBandwidth(0.05), RateBandwidth(0.2))
        for s in (pair.s1, pair.s2):
            assert isinstance(s, WindowSmoother) and isinstance(s, OperatorSmoother)
            dense = np.asarray(s)
            assert s.shape == dense.shape == (300, 300) and s.ndim == 2
            pattern = s > 0.0
            assert issparse(pattern) and pattern.has_sorted_indices
            assert np.array_equal(pattern.toarray(), dense > 0.0)
            rows, cols = rng.integers(0, 300, 500), rng.integers(0, 300, 500)
            assert np.array_equal(s[rows, cols], dense[rows, cols])
            assert_allclose(s.sum(axis=1), dense.sum(axis=1), rtol=0, atol=1e-15)
            assert s.min() == dense.min() == 0.0
            z = rng.normal(size=300)
            assert_allclose(s @ z, dense @ z, rtol=0, atol=1e-14)
            with pytest.raises(TypeError):
                s[:10, 10:]
        # every window holds all n points: each entry is 1/n
        wide = build_pair(data, Kernel.UNIFORM, ConstantBandwidth(50.0), ConstantBandwidth(50.0))
        assert wide.s1.min() == np.asarray(wide.s1).min() == 1.0 / 300

    @pytest.mark.parametrize(
        "kernel, bw_u, bw_v, storage",
        [
            (Kernel.UNIFORM, ConstantBandwidth(0.05), RateBandwidth(0.2), WindowSmoother),
            (Kernel.GAUSSIAN, ConstantBandwidth(0.05), RateBandwidth(0.2), PackedSmoother),
            (Kernel.GAUSSIAN, KNearestBandwidth(40), KNearestBandwidth(40), np.ndarray),
            (Kernel.EPANECHNIKOV, ConstantBandwidth(0.01), ConstantBandwidth(0.01), csr_array),
        ],
        ids=["window", "packed", "dense", "csr"],
    )
    def test_block_products(self, kernel, bw_u, bw_v, storage):
        # every storage answers S @ Z for an n x m block Z, and for another
        # smoother as Z, as the formed matrices multiply; S2 @ S1 is the
        # product the pair's star_product centers
        rng = np.random.default_rng(33)
        data = Dataset(y=np.zeros(300), u=rng.normal(size=300), v=rng.uniform(size=300))
        pair = build_pair(data, kernel, bw_u, bw_v)
        csr = build_smoother(data.v, Kernel.EPANECHNIKOV, ConstantBandwidth(0.01))
        assert issparse(csr)
        for s in (pair.s1, pair.s2):
            assert isinstance(s, storage)
            dense = as_dense(s)
            for z in (rng.normal(size=(300, 4)), pair.s1, pair.s2, csr):
                got = as_dense(s @ z)
                assert got.shape == (300, z.shape[1])
                assert_allclose(got, dense @ as_dense(z), rtol=0, atol=1e-14)

    def test_star_product_matches_dense(self):
        rng = np.random.default_rng(29)
        data = Dataset(y=np.zeros(120), u=rng.uniform(size=120), v=rng.uniform(size=120))
        pair = build_pair(data, Kernel.UNIFORM, ConstantBandwidth(0.1), KNearestBandwidth(7))
        dense = SmootherPair(as_dense(pair.s1), as_dense(pair.s2))
        assert_allclose(pair.star_product(), dense.star_product(), rtol=0, atol=1e-14)

    def test_pair_storage_matches_the_build(self):
        rng = np.random.default_rng(30)
        data = Dataset(y=np.zeros(50), u=rng.uniform(size=50), v=rng.uniform(size=50))
        bw = KNearestBandwidth(5)
        pair = build_pair(data, Kernel.UNIFORM, bw, ConstantBandwidth(0.4))
        kind_u, kind_v, nbytes = smoothers.pair_storage(data, Kernel.UNIFORM, bw, ConstantBandwidth(0.4))
        assert (kind_u, kind_v) == ("window", "window")
        assert pair.order_u is data.sort_u and pair.order_v is data.sort_v
        assert nbytes == sum(a.nbytes for a in vars(pair).values() if isinstance(a, np.ndarray))

    def test_window_build_memory(self):
        # O(n) bytes: the pair holds eight arrays of n, and the build a
        # few float arrays of n beside them; a CSR build of these windows
        # (h = 0.02, 4% fill) would hold 1.9 GB
        n = 100_000
        rng = np.random.default_rng(28)
        data = Dataset(y=np.zeros(n), u=rng.uniform(size=n), v=rng.uniform(size=n))
        bw = ConstantBandwidth(0.02)
        tracemalloc.start()
        try:
            pair = build_pair(data, Kernel.UNIFORM, bw, bw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(pair, WindowPair)
        assert peak < 160 * n

    def test_overflowing_mass_names_the_lowest_row(self):
        # K(0)/h overflows at h = 1e-320, so rows 300 and 550 have an
        # infinite total; the error names the lowest in sample order,
        # whatever their sorted positions, as build_smoother's does
        rng = np.random.default_rng(31)
        data = Dataset(y=np.zeros(600), u=rng.uniform(size=600), v=rng.uniform(size=600))
        h = np.full(600, 0.01)
        h[[300, 550]] = 1e-320
        assert data.sort_u.tolist().index(550) < data.sort_u.tolist().index(300)
        message = "row 300 has non-finite total kernel mass"
        with pytest.raises(ValueError, match=message):
            build_smoother(data.u, Kernel.UNIFORM, PerPointBandwidth(h))
        with pytest.raises(ValueError, match=message):
            build_pair(data, Kernel.UNIFORM, PerPointBandwidth(h), ConstantBandwidth(0.1))
        with pytest.raises(ValueError, match=message):
            build_pair(data, Kernel.UNIFORM, ConstantBandwidth(0.1), PerPointBandwidth(h))
