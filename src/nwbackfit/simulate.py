"""Synthetic data generation and Monte-Carlo convergence studies.

Generates samples from y = alpha + m1(u) + m2(v) + noise with the
component functions centered in-sample, measures maximum adjacent
spacings of the design coordinates, evaluates analytic upper bounds on
the probability that a uniform sample has a spacing at least h, and runs
replicated certification studies.  Also computes the grid supremum of
|f(u,v) / (f1(u) f2(v)) - 1| for a correlated normal design, the
dependence diagnostic that older convergence conditions require to be
below one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import BandwidthSpec, ConstantBandwidth, Kernel, RateBandwidth
from .smoothers import Dataset, build_pair
from .spectral import certify, check_gap_conditions

__all__ = [
    "COMPONENT_FUNCTIONS",
    "IndependentUniform",
    "BivariateNormal",
    "SimSpec",
    "GapBound",
    "ReplicateRow",
    "MonteCarloReport",
    "generate",
    "max_gap",
    "gap_exceedance_bound",
    "uniform_max_gap_exceedance",
    "run_monte_carlo",
    "density_ratio_sup",
]

# Named component functions; the generator centers them in-sample, so
# only the shape matters.
COMPONENT_FUNCTIONS = {
    "zero": lambda t: np.zeros_like(t),
    "identity": lambda t: np.asarray(t, dtype=float),
    "sin": lambda t: np.sin(2.0 * np.pi * np.asarray(t, dtype=float)),
    "cubic": lambda t: np.asarray(t, dtype=float) ** 3,
}


@dataclass(frozen=True)
class IndependentUniform:
    """Independent uniform design on [u_low, u_high] x [v_low, v_high]."""

    u_low: float = 0.0
    u_high: float = 1.0
    v_low: float = 0.0
    v_high: float = 1.0

    def __post_init__(self):
        if not (self.u_low < self.u_high and self.v_low < self.v_high):
            raise ValueError(
                f"empty design ranges: u [{self.u_low}, {self.u_high}], "
                f"v [{self.v_low}, {self.v_high}]"
            )

    def describe(self) -> str:
        return (
            f"uniform(u in [{self.u_low:g}, {self.u_high:g}], "
            f"v in [{self.v_low:g}, {self.v_high:g}])"
        )


@dataclass(frozen=True)
class BivariateNormal:
    """Jointly normal design with correlation rho, |rho| < 1."""

    mean_u: float = 0.0
    mean_v: float = 0.0
    sd_u: float = 1.0
    sd_v: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        if not (self.sd_u > 0.0 and self.sd_v > 0.0):
            raise ValueError(f"sds must be positive, got {self.sd_u}, {self.sd_v}")
        if not abs(self.rho) < 1.0:
            raise ValueError(f"|rho| must be < 1, got {self.rho}")

    def describe(self) -> str:
        return (
            f"normal(mu=({self.mean_u:g}, {self.mean_v:g}), "
            f"sd=({self.sd_u:g}, {self.sd_v:g}), rho={self.rho:g})"
        )


Design = IndependentUniform | BivariateNormal


@dataclass(frozen=True)
class SimSpec:
    """Recipe for one synthetic dataset family."""

    n: int
    m1_fn: str = "sin"
    m2_fn: str = "cubic"
    design: Design = field(default_factory=IndependentUniform)
    noise_sd: float = 0.1
    alpha: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.noise_sd < 0.0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")
        for name in (self.m1_fn, self.m2_fn):
            if name not in COMPONENT_FUNCTIONS:
                raise ValueError(
                    f"unknown component function {name!r}; "
                    f"choose from {sorted(COMPONENT_FUNCTIONS)}"
                )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m1_fn": self.m1_fn,
            "m2_fn": self.m2_fn,
            "design": self.design.describe(),
            "noise_sd": self.noise_sd,
            "alpha": self.alpha,
            "seed": self.seed,
        }


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    # Stream-splitting rule: entropy is the pair (seed, replicate index),
    # so any replicate is reproducible in isolation.
    return np.random.default_rng([seed, replicate])


def generate(spec: SimSpec, replicate: int = 0) -> Dataset:
    """Draw one dataset; identical (spec, replicate) gives identical bits.

    Draw order is fixed (u, then v, then noise).  Both component vectors
    are centered to their sample mean so the in-sample identification
    constraint holds exactly.
    """
    if replicate < 0:
        raise ValueError(f"replicate index must be >= 0, got {replicate}")
    rng = _replicate_rng(spec.seed, replicate)
    n = spec.n
    d = spec.design
    if isinstance(d, IndependentUniform):
        u = rng.uniform(d.u_low, d.u_high, n)
        v = rng.uniform(d.v_low, d.v_high, n)
    else:
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        u = d.mean_u + d.sd_u * z1
        v = d.mean_v + d.sd_v * (d.rho * z1 + math.sqrt(1.0 - d.rho**2) * z2)
    m1v = COMPONENT_FUNCTIONS[spec.m1_fn](u)
    m2v = COMPONENT_FUNCTIONS[spec.m2_fn](v)
    m1v = m1v - m1v.mean()
    m2v = m2v - m2v.mean()
    noise = spec.noise_sd * rng.standard_normal(n) if spec.noise_sd > 0.0 else 0.0
    y = spec.alpha + m1v + m2v + noise
    return Dataset(y=y, u=u, v=v)


def max_gap(x: np.ndarray) -> float:
    """Maximum adjacent difference of the sorted values."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError(f"need a 1-d array with n >= 2, got shape {x.shape}")
    return float(np.diff(np.sort(x)).max())


@dataclass(frozen=True)
class GapBound:
    """Upper bounds on P(max adjacent gap of n uniforms >= h).

    ``exact`` is n (1-h)^(n-1), zero when h > 1; ``exponential`` is the
    relaxation n exp(-(n-1) h / 2).  Both are upper bounds, not the exact
    probability; ``exact`` refers to the per-gap law being exact.
    """

    n: int
    h: float
    exact: float
    exponential: float

    def to_dict(self) -> dict:
        return {"n": self.n, "h": self.h, "exact": self.exact, "exponential": self.exponential}


def gap_exceedance_bound(n: int, h: float) -> GapBound:
    """Analytic bounds for the unit-interval uniform design."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    exact = 0.0 if h > 1.0 else n * (1.0 - h) ** (n - 1)
    exponential = n * math.exp(-(n - 1) * h / 2.0)
    return GapBound(n=n, h=h, exact=exact, exponential=exponential)


def uniform_max_gap_exceedance(
    n: int, h: float, replicates: int, seed: int = 0, chunk: int = 10_000
) -> float:
    """Empirical frequency of {max gap >= h} over uniform(0,1) samples."""
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    rng = np.random.default_rng(seed)
    count = 0
    done = 0
    while done < replicates:
        m = min(chunk, replicates - done)
        x = rng.random((m, n))
        x.sort(axis=1)
        count += int((np.diff(x, axis=1).max(axis=1) >= h).sum())
        done += m
    return count / replicates


@dataclass(frozen=True)
class ReplicateRow:
    """Per-replicate outcome of a Monte-Carlo study."""

    replicate: int
    max_gap_u: float
    max_gap_v: float
    gap_ok: bool
    certified: bool | None
    rho_product: float | None


@dataclass(frozen=True, eq=False)
class MonteCarloReport:
    """Aggregated convergence study over independent replicates.

    ``fraction_certified``, ``analytic_bound``, and per-row certificate
    fields are None when not computed (gap-only studies, non-uniform
    designs or data-dependent bandwidths respectively).  Rows serialize
    to CSV separately; the JSON report carries aggregates only.
    """

    replicates: int
    n: int
    bandwidth_rule: str
    fraction_gap_ok: float
    fraction_certified: float | None
    analytic_bound: float | None
    mean_max_gap_u: float
    mean_max_gap_v: float
    rows: list[ReplicateRow]

    def to_dict(self) -> dict:
        return {
            "replicates": self.replicates,
            "n": self.n,
            "bandwidth_rule": self.bandwidth_rule,
            "fraction_gap_ok": self.fraction_gap_ok,
            "fraction_certified": self.fraction_certified,
            "analytic_bound": self.analytic_bound,
            "mean_max_gap_u": self.mean_max_gap_u,
            "mean_max_gap_v": self.mean_max_gap_v,
        }


def _deterministic_constant(bw: BandwidthSpec, n: int) -> float | None:
    """Constant bandwidth value known before seeing data, else None."""
    if isinstance(bw, ConstantBandwidth):
        return bw.h
    if isinstance(bw, RateBandwidth) and not bw.sd_scale:
        return bw.scale * n ** (-bw.delta)
    return None


def run_monte_carlo(
    spec: SimSpec,
    kernel: Kernel,
    bw_u: BandwidthSpec,
    bw_v: BandwidthSpec,
    replicates: int,
    certify_replicates: bool = True,
    method: str = "power",
) -> MonteCarloReport:
    """Replicated gap-condition and certification study.

    Each replicate draws a fresh dataset from ``spec`` (replicate index
    mixed into the seed) and, unless ``certify_replicates`` is off, builds
    the smoother pair and runs full certification, whose adjacent-gap
    reports give the row's gap fields; a gap-only study checks the gap
    conditions directly.  ``analytic_bound`` is the
    two-coordinate union bound on P(some max gap >= h), available only
    for the uniform design with bandwidths that are deterministic
    constants (possibly above 1, in which case it is vacuous).
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    rows: list[ReplicateRow] = []
    for rep in range(replicates):
        data = generate(spec, replicate=rep)
        certified: bool | None = None
        rho: float | None = None
        if certify_replicates:
            pair = build_pair(data, kernel, bw_u, bw_v)
            cert = certify(pair, kernel, bw_u, bw_v, data, method=method)
            report_u, report_v = cert.gap_u, cert.gap_v
            certified = cert.certified
            rho = cert.spectral.rho_product
        else:
            report_u = check_gap_conditions(data.u, kernel, bw_u, coordinate="u")
            report_v = check_gap_conditions(data.v, kernel, bw_v, coordinate="v")
        gap_ok = report_u.condition_holds and report_v.condition_holds
        rows.append(
            ReplicateRow(
                replicate=rep,
                max_gap_u=report_u.max_gap,
                max_gap_v=report_v.max_gap,
                gap_ok=gap_ok,
                certified=certified,
                rho_product=rho,
            )
        )

    analytic: float | None = None
    if isinstance(spec.design, IndependentUniform):
        hu = _deterministic_constant(bw_u, spec.n)
        hv = _deterministic_constant(bw_v, spec.n)
        if hu is not None and hv is not None:
            d = spec.design
            bu = gap_exceedance_bound(spec.n, hu / (d.u_high - d.u_low))
            bv = gap_exceedance_bound(spec.n, hv / (d.v_high - d.v_low))
            analytic = bu.exact + bv.exact

    frac_gap = sum(r.gap_ok for r in rows) / replicates
    frac_cert = sum(bool(r.certified) for r in rows) / replicates if certify_replicates else None
    return MonteCarloReport(
        replicates=replicates,
        n=spec.n,
        bandwidth_rule=f"u: {bw_u.describe()}; v: {bw_v.describe()}",
        fraction_gap_ok=frac_gap,
        fraction_certified=frac_cert,
        analytic_bound=analytic,
        mean_max_gap_u=float(np.mean([r.max_gap_u for r in rows])),
        mean_max_gap_v=float(np.mean([r.max_gap_v for r in rows])),
        rows=rows,
    )


def density_ratio_sup(design: BivariateNormal, bound: float = 4.0, step: float = 0.01) -> float:
    """Grid supremum of |f(u,v) / (f1(u) f2(v)) - 1| for a normal design.

    In standardized coordinates the ratio has the closed form

        exp(-(rho^2 (z1^2 + z2^2) - 2 rho z1 z2) / (2 (1 - rho^2)))
            / sqrt(1 - rho^2)

    so the grid is taken over z-scores in [-bound, bound]^2 with the
    given step.  Independence (rho = 0) gives exactly 0; any |rho| > 0
    makes the supremum grow without bound as the grid widens, which is
    why a convergence condition built on this quantity excludes most
    correlated normal designs.
    """
    if not isinstance(design, BivariateNormal):
        raise TypeError(f"expected BivariateNormal, got {type(design).__name__}")
    if not (bound > 0.0 and step > 0.0):
        raise ValueError(f"bound and step must be positive, got {bound}, {step}")
    rho = design.rho
    if rho == 0.0:
        return 0.0
    z = np.arange(-bound, bound + step / 2.0, step)
    z1 = z[:, None]
    z2 = z[None, :]
    quad = rho * rho * (z1 * z1 + z2 * z2) - 2.0 * rho * z1 * z2
    ratio = np.exp(-quad / (2.0 * (1.0 - rho * rho))) / math.sqrt(1.0 - rho * rho)
    return float(np.abs(ratio - 1.0).max())
