"""Shared fixtures and construction helpers for the test suite."""

import numpy as np
import pytest

from nwbackfit.kernels import ConstantBandwidth, Kernel
from nwbackfit.simulate import max_gap
from nwbackfit.smoothers import Dataset

ALL_KERNELS = [Kernel.UNIFORM, Kernel.EPANECHNIKOV, Kernel.TRIANGULAR, Kernel.GAUSSIAN]


def gap_passing_constant(x, rng, lo=1.15, hi=3.0) -> ConstantBandwidth:
    """Constant bandwidth comfortably above the max adjacent gap of x."""
    h = max(max_gap(x) * float(rng.uniform(lo, hi)), 1e-6)
    return ConstantBandwidth(h)


def eval_scaled(kernel: Kernel, t, h: float) -> np.ndarray:
    """Oracle for the bandwidth-scaled kernel K_h(t) = K(t/h)/h, h > 0 finite."""
    h = float(h)
    if not h > 0.0 or not np.isfinite(h):
        raise ValueError(f"bandwidth must be a positive finite number, got {h}")
    return kernel.evaluate(np.asarray(t, dtype=float) / h) / h


def weight_row(kernel: Kernel, x: np.ndarray, i: int, h_i: float) -> np.ndarray:
    """Oracle for row i of a smoother: normalised weights K_{h_i}(x_i - x_k)."""
    x = np.asarray(x, dtype=float)
    raw = eval_scaled(kernel, x[int(i)] - x, h_i)
    total = raw.sum()
    if not total > 0.0:
        raise ValueError(f"weight row {i} has zero total kernel mass (h={h_i})")
    return raw / total


def random_stochastic(rng, n, style):
    """Row-stochastic matrices with varied positivity patterns."""
    if style == 0:
        m = rng.random((n, n)) + 1e-3
    elif style == 1:
        m = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        m[np.arange(n), rng.integers(0, n, n)] += 0.5  # keep every row nonzero
    elif style == 2:
        m = np.zeros((n, n))
        m[np.arange(n), (np.arange(n) + 1) % n] = 1.0  # pure cycle
    elif style == 3:
        m = np.zeros((n, n))
        m[np.arange(n), (np.arange(n) + 1) % n] = 0.7
        m[np.arange(n), rng.integers(0, n, n)] += 0.3  # cycle plus chords
    else:
        k = max(1, n // 2)
        m = np.zeros((n, n))
        m[:k, :k] = rng.random((k, k)) + 0.01
        m[k:, k:] = rng.random((n - k, n - k)) + 0.01  # two blocks
    return m / m.sum(axis=1, keepdims=True)


def brute_force_regular(s):
    """Reference oracle: some boolean power of the pattern is all-positive."""
    b = s > 0.0
    p = np.eye(len(s), dtype=bool)
    for _ in range(len(s) ** 2):
        p = p @ b
        if p.all():
            return True
    return False


def two_cluster_dataset(rng, spread: float, n_a: int = 6, n_b: int = 6) -> Dataset:
    """Two well-separated clusters, aligned across both coordinates.

    Cluster membership is identical for u and v, so the step vector that
    is +1/n_a on one cluster and -1/n_b on the other is fixed by both
    centered smoothers whenever the bandwidth bridges neither gap.
    ``spread`` sets the within-cluster diameter: tight clusters with a
    covering bandwidth give equal within-cluster weights (a block
    averaging projector), larger spreads give distance-varying weights.
    """
    u = np.concatenate([rng.uniform(0.0, spread, n_a), rng.uniform(10.0, 10.0 + spread, n_b)])
    v = np.concatenate([rng.uniform(0.0, spread, n_a), rng.uniform(10.0, 10.0 + spread, n_b)])
    y = rng.normal(size=n_a + n_b)
    return Dataset(y=y, u=u, v=v)


@pytest.fixture
def uniform_cluster_problem():
    """Tight aligned clusters + uniform kernel: the certificate-failure fixture."""
    rng = np.random.default_rng(7)
    data = two_cluster_dataset(rng, spread=0.5)
    return data, Kernel.UNIFORM, ConstantBandwidth(1.0)


@pytest.fixture
def triangular_cluster_problem():
    """Aligned clusters with within-cluster weight variation.

    Keeps the unit eigenvalue of the centered product but starts the
    iteration off the fixed-point manifold, so the iterative solver
    genuinely fails to converge and the direct system is singular.
    """
    rng = np.random.default_rng(11)
    data = two_cluster_dataset(rng, spread=0.8)
    return data, Kernel.TRIANGULAR, ConstantBandwidth(1.0)
