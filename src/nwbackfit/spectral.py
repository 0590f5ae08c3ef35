"""Convergence certification for the backfitting iteration.

The iteration m1 <- S1*(y - m2), m2 <- S2*(y - m1) converges exactly when
the centered-smoother product S2* S1* has spectral radius below one.  Two
sufficient routes are checked and reported:

1. Adjacent-gap kernel positivity: every sorted sample point must place
   positive kernel mass on its neighbouring order statistics (both sides
   for interior points, one side at the extremes).  This makes each
   smoother matrix the transition matrix of a regular Markov chain
   (irreducible, and aperiodic thanks to the positive diagonal), so by
   Perron-Frobenius its unique unit eigenvalue pairs with the constant
   eigenvector; centering removes exactly that eigenvalue, leaving all
   moduli strictly below one.

2. The computed spectral radius of S2* S1* itself, which is the operative
   test: it also certifies datasets the gap test misses, and a margin of
   1e-8 below one guards against certifying systems that are singular to
   floating-point noise.

A verdict of NOT_CERTIFIED means "not certified by these tests", not
"diverges".

Solvers.  The full spectrum of each smoother S comes from the symmetric
eigenproblem whenever S is reversible: with pi_i = 1/S_ii the matrix
diag(sqrt(pi)) S diag(1/sqrt(pi)) is symmetric, as it is for a symmetric
kernel at one common bandwidth, where it equals D^-1/2 K D^-1/2.  Other
smoothers (k-nearest or per-point bandwidths) take a dense nonsymmetric
eigendecomposition.  The spectrum gives the top eigenvalue of S1, its
simplicity, and rho(S*) exactly: S* = S - 1 (1^T S / n) is a rank-one
(Brauer) deflation of the unit eigenvalue, so the spectrum of S* is that
of S with one eigenvalue 1 replaced by 0.  Only the product S2* S1* needs
a nonsymmetric solver: a dense eigendecomposition of the formed product,
or ARPACK on the operator x -> c(S2 c(S1 x)), c(z) = z - mean(z), which
never forms it (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998).
ARPACK falls back to the dense route when it fails or n < 3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import (
    ArpackError,
    ArpackNoConvergence,
    LinearOperator,
    aslinearoperator,
    eigs,
)

from .fitting import SingularSystemError, lu_condition
from .kernels import BandwidthSpec, Kernel
from .smoothers import Dataset, SmootherPair

__all__ = [
    "GapReport",
    "SpectralReport",
    "Verdict",
    "ConvergenceCertificate",
    "PowerIterationNonConvergence",
    "check_gap_conditions",
    "check_regularity",
    "spectral_radius",
    "certify",
]

# Verdicts require rho(S2* S1*) below 1 by at least this margin.
RHO_MARGIN = 1e-8

# A smoother's spectrum comes from the symmetric eigenproblem when its
# diagonal symmetrisation is symmetric to this Frobenius-norm defect.  By
# Bauer-Fike on the symmetric part, the defect also bounds the error of
# every eigenvalue.  Symmetric kernels at one bandwidth measure ~1e-15;
# k-nearest smoothers measure ~1.
REVERSIBILITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GapReport:
    """Adjacent-gap kernel positivity check for one coordinate.

    ``gaps[i] = x_(i+2) - x_(i+1)`` in sorted order (length n-1).
    ``failing_indices`` are positions into the sorted sequence whose
    kernel evaluation at an adjacent gap is zero.
    """

    coordinate: str
    gaps: np.ndarray
    max_gap: float
    condition_holds: bool
    failing_indices: list[int]

    def to_dict(self) -> dict:
        return {
            "coordinate": self.coordinate,
            "gaps": [float(g) for g in self.gaps],
            "max_gap": self.max_gap,
            "condition_holds": self.condition_holds,
            "failing_indices": list(self.failing_indices),
        }


@dataclass(frozen=True)
class SpectralReport:
    """Spectral quantities of a smoother pair.

    ``top_eigenvalue_s1``, its simplicity flag, ``rho_s1_star`` and
    ``rho_s2_star`` come from the full spectra of S1 and S2: symmetric
    (``eigvalsh``) for reversible smoothers, dense nonsymmetric
    (``eigvals``) otherwise, whatever ``method``.  ``method`` records how
    ``rho_product`` was obtained ("power" when ARPACK converged on the
    matrix-free product, "dense" for the dense eigendecomposition of the
    formed product, including after an ARPACK failure or for n < 3), and
    ``iterations`` counts ARPACK's applications of the product operator
    (0 for "dense").  ``perron_vector_check`` is the residual
    ||S1 theta - theta|| for the unit constant vector theta = 1/sqrt(n).
    """

    rho_s1_star: float
    rho_s2_star: float
    rho_product: float
    top_eigenvalue_s1: complex
    top_eigenvalue_simple: bool
    perron_vector_check: float
    method: str
    iterations: int

    def to_dict(self) -> dict:
        return {
            "rho_s1_star": self.rho_s1_star,
            "rho_s2_star": self.rho_s2_star,
            "rho_product": self.rho_product,
            "top_eigenvalue_s1": {
                "real": self.top_eigenvalue_s1.real,
                "imag": self.top_eigenvalue_s1.imag,
                "modulus": abs(self.top_eigenvalue_s1),
                "simple": self.top_eigenvalue_simple,
            },
            "perron_vector_check": self.perron_vector_check,
            "method": self.method,
            "iterations": self.iterations,
        }


class Verdict(enum.Enum):
    """Outcome of convergence certification."""

    CERTIFIED_BY_GAP_CONDITIONS = "certified_by_gap_conditions"
    CERTIFIED_BY_SPECTRAL_RADIUS = "certified_by_spectral_radius"
    NOT_CERTIFIED = "not_certified"


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Full certification record of one smoother pair."""

    gap_u: GapReport
    gap_v: GapReport
    regular_s1: bool
    regular_s2: bool
    spectral: SpectralReport
    verdict: Verdict
    notes: str

    @property
    def certified(self) -> bool:
        return self.verdict is not Verdict.NOT_CERTIFIED

    def to_dict(self) -> dict:
        return {
            "gap_u": self.gap_u.to_dict(),
            "gap_v": self.gap_v.to_dict(),
            "regular_s1": self.regular_s1,
            "regular_s2": self.regular_s2,
            "spectral": self.spectral.to_dict(),
            "verdict": self.verdict.value,
            "notes": self.notes,
        }


def check_gap_conditions(
    x: np.ndarray, kernel: Kernel, bw: BandwidthSpec, coordinate: str = "x"
) -> GapReport:
    """Evaluate the kernel at every adjacent order-statistic gap.

    Point i (sorted order) must have a positive kernel value, at its own
    bandwidth, at the gap to each adjacent order statistic: both sides
    for interior points, the single adjacent gap at the two extremes.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    order = np.argsort(x, kind="stable")
    xs = x[order]
    hs = bw.resolve(x)[order]
    gaps = np.diff(xs)
    # value at point i for the gap on its left / right
    left_vals = kernel.evaluate(gaps / hs[1:]) / hs[1:]
    right_vals = kernel.evaluate(gaps / hs[:-1]) / hs[:-1]
    failing = set(np.flatnonzero(left_vals <= 0.0) + 1)
    failing |= set(np.flatnonzero(right_vals <= 0.0))
    failing_indices = sorted(int(i) for i in failing)
    return GapReport(
        coordinate=coordinate,
        gaps=gaps,
        max_gap=float(gaps.max()),
        condition_holds=not failing_indices,
        failing_indices=failing_indices,
    )


def _validate_stochastic(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if s.min() < -1e-12:
        raise ValueError(f"matrix has a negative entry ({s.min():.3e}); not row-stochastic")
    row_err = np.abs(s.sum(axis=1) - 1.0).max()
    if row_err > 1e-9:
        raise ValueError(f"row sums deviate from 1 by {row_err:.3e}; not row-stochastic")
    return s


def _graph_period(adj: np.ndarray) -> int:
    """Period of a strongly connected directed graph (gcd of cycle lengths)."""
    n = adj.shape[0]
    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.flatnonzero(adj[i]):
                if level[j] < 0:
                    level[j] = level[i] + 1
                    nxt.append(int(j))
        frontier = nxt
    ii, jj = np.nonzero(adj)
    return int(np.gcd.reduce(np.abs(level[ii] + 1 - level[jj])))


def check_regularity(s: np.ndarray) -> bool:
    """True iff the positivity graph of a stochastic matrix is regular.

    Regular = irreducible (strongly connected) and aperiodic, i.e. some
    power of the matrix is entrywise positive.  Any positive diagonal
    entry of an irreducible matrix short-circuits the period computation.
    """
    s = _validate_stochastic(s)
    adj = s > 0.0
    if adj.all():  # a positive matrix is irreducible and aperiodic
        return True
    n_components, _ = connected_components(csr_matrix(adj), directed=True, connection="strong")
    if n_components != 1:
        return False
    if adj.diagonal().any():
        return True
    return _graph_period(adj) == 1


class PowerIterationNonConvergence(RuntimeError):
    """ARPACK did not converge within its restart cap."""


def _radius(op: LinearOperator, max_iter: int | None = None) -> tuple[float, int]:
    """Largest eigenvalue modulus of ``op`` and how many times ``op`` was applied.

    ARPACK (``eigs``) computes the six eigenvalues of largest modulus to
    machine precision (``tol=0``).  Its starting vector, and the vectors it
    draws after finding an invariant subspace, come from a generator
    seeded here, so reruns are bit-identical.  ``max_iter`` caps the
    implicit restarts (ARPACK's default is 10n).  Needs n >= 3, since
    ARPACK needs k <= n - 2.  Raises ``ArpackError``, and its subclass
    ``ArpackNoConvergence`` when the cap is reached.
    """
    n = op.shape[0]
    applications = 0

    def matvec(x):
        nonlocal applications
        applications += 1
        return op.matvec(x)

    counted = LinearOperator(op.shape, matvec=matvec, dtype=float)
    rng = np.random.default_rng(0)
    vals = eigs(
        counted,
        k=min(6, n - 2),
        which="LM",
        tol=0,
        v0=rng.standard_normal(n),
        maxiter=max_iter,
        return_eigenvectors=False,
        rng=rng,
    )
    return float(np.abs(vals).max()), applications


def _dense_radius(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(m)).max())


def spectral_radius(m: np.ndarray, method: str = "dense", max_iter: int | None = None) -> float:
    """Spectral radius of a square matrix.

    ``method='dense'`` takes the maximum modulus over the full eigenvalue
    set (authoritative at desk scale).  ``method='power'`` asks ARPACK for
    the eigenvalues of largest modulus, with ``max_iter`` capping its
    restarts, and raises :class:`PowerIterationNonConvergence` when the
    cap is exceeded, so callers can fall back to the dense route
    explicitly.  Matrices below 3 x 3, and operators ARPACK cannot
    iterate on (such as the zero matrix, which annihilates every starting
    vector), take the dense route under either method.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if method not in ("dense", "power"):
        raise ValueError(f"unknown method {method!r}; choose 'dense' or 'power'")
    if method == "power" and m.shape[0] >= 3:
        try:
            return _radius(aslinearoperator(m), max_iter)[0]
        except ArpackNoConvergence as exc:
            raise PowerIterationNonConvergence(
                f"ARPACK did not converge within {max_iter} restarts: {exc}"
            ) from exc
        except ArpackError:
            pass
    return _dense_radius(m)


def _asymmetry(a: np.ndarray) -> float:
    """Frobenius norm of a - a^T, summed over blocks of 512 rows of a.

    Blocking keeps the temporaries at 512 rows instead of a second n x n
    array.
    """
    total = 0.0
    for i in range(0, a.shape[0], 512):
        diff = a[i : i + 512] - a[:, i : i + 512].T
        total += float(np.einsum("ij,ij->", diff, diff))
    return float(np.sqrt(total))


def _symmetrized(s: np.ndarray) -> np.ndarray | None:
    """diag(sqrt(pi)) s diag(1/sqrt(pi)) with pi_i = 1/s_ii, if symmetric.

    The result is similar to ``s``.  Returns None when a diagonal entry is
    not positive or the asymmetry exceeds :data:`REVERSIBILITY_TOL`.
    """
    d = s.diagonal()
    if not (d > 0.0).all():
        return None
    r = 1.0 / np.sqrt(d)
    a = s * r[:, None]
    a /= r
    if not _asymmetry(a) <= REVERSIBILITY_TOL:
        return None
    return a


def _smoother_spectrum(s: np.ndarray) -> np.ndarray:
    """All eigenvalues of a smoother matrix.

    Real and ascending from ``eigvalsh`` when ``s`` is reversible (see
    :func:`_symmetrized`), complex from ``eigvals`` otherwise.
    """
    a = _symmetrized(s)
    if a is None:
        return np.linalg.eigvals(s)
    # a^T is Fortran-ordered, so LAPACK works in a's buffer, and it has
    # the spectrum of a.
    return eigvalsh(a.T, overwrite_a=True, check_finite=False)


def _centered_radius(eigs: np.ndarray) -> float:
    """rho(S*) from the spectrum of a row-stochastic S.

    S* = S - 1 (1^T S / n) deflates the eigenpair (1, 1): its spectrum is
    that of S with one eigenvalue 1 replaced by 0 (Brauer's theorem).
    """
    rest = np.delete(eigs, np.argmin(np.abs(eigs - 1.0)))
    return float(np.abs(rest).max(initial=0.0))


def _product_operator(pair: SmootherPair) -> LinearOperator:
    """S2* S1* as x -> c(S2 c(S1 x)) with c(z) = z - mean(z), never formed."""
    s1, s2 = pair.s1, pair.s2

    def matvec(x):
        z = s1 @ x
        z = s2 @ (z - z.mean())
        return z - z.mean()

    return LinearOperator((pair.n, pair.n), matvec=matvec, dtype=float)


def _spectral_report(
    pair: SmootherPair, method: str
) -> tuple[SpectralReport, np.ndarray | None]:
    """The spectral report, and the product S2* S1* if it was formed.

    The product is formed only on the dense route: for ``method="dense"``,
    for n < 3, and when ARPACK fails on the matrix-free product.
    """
    eigs_s1 = _smoother_spectrum(pair.s1)
    top = eigs_s1[np.argmax(np.abs(eigs_s1))]
    simple = int(np.sum(np.abs(eigs_s1 - top) <= 1e-8)) == 1
    theta = np.full(pair.n, 1.0 / np.sqrt(pair.n))
    perron_check = float(np.linalg.norm(pair.s1 @ theta - theta))
    rho_s1_star = _centered_radius(eigs_s1)
    rho_s2_star = _centered_radius(_smoother_spectrum(pair.s2))

    product = None
    used, iterations = "dense", 0
    if method == "power" and pair.n >= 3:
        try:
            rho_product, iterations = _radius(_product_operator(pair))
            used = "power"
        except ArpackError:  # including ArpackNoConvergence
            pass
    if used == "dense":
        product = pair.s2_star @ pair.s1_star
        rho_product = _dense_radius(product)
    report = SpectralReport(
        rho_s1_star=rho_s1_star,
        rho_s2_star=rho_s2_star,
        rho_product=rho_product,
        top_eigenvalue_s1=complex(top),
        top_eigenvalue_simple=simple,
        perron_vector_check=perron_check,
        method=used,
        iterations=iterations,
    )
    return report, product


def certify(
    pair: SmootherPair,
    kernel: Kernel,
    bw_u: BandwidthSpec,
    bw_v: BandwidthSpec,
    data: Dataset,
    method: str = "dense",
) -> ConvergenceCertificate:
    """Certify convergence of the backfitting iteration for this pair.

    The operative test is the computed spectral radius of S2* S1*: a
    verdict other than NOT_CERTIFIED requires it below 1 - 1e-8.  When the
    adjacent-gap conditions also hold on both coordinates the verdict is
    CERTIFIED_BY_GAP_CONDITIONS (the human-meaningful sufficient
    condition); otherwise CERTIFIED_BY_SPECTRAL_RADIUS.
    """
    if method not in ("dense", "power"):
        raise ValueError(f"unknown method {method!r}; choose 'dense' or 'power'")
    gap_u = check_gap_conditions(data.u, kernel, bw_u, coordinate="u")
    gap_v = check_gap_conditions(data.v, kernel, bw_v, coordinate="v")
    regular_s1 = check_regularity(pair.s1)
    regular_s2 = check_regularity(pair.s2)
    spectral, product = _spectral_report(pair, method)

    gaps_hold = gap_u.condition_holds and gap_v.condition_holds
    rho = spectral.rho_product
    if rho < 1.0 - RHO_MARGIN:
        if gaps_hold:
            verdict = Verdict.CERTIFIED_BY_GAP_CONDITIONS
            notes = (
                "adjacent-gap kernel positivity holds on both coordinates; "
                f"rho(S2* S1*) = {rho:.6e}"
            )
        else:
            verdict = Verdict.CERTIFIED_BY_SPECTRAL_RADIUS
            failed = [r.coordinate for r in (gap_u, gap_v) if not r.condition_holds]
            notes = (
                f"gap conditions fail on coordinate(s) {', '.join(failed)} "
                f"but rho(S2* S1*) = {rho:.6e} < 1 - {RHO_MARGIN:g}"
            )
    else:
        verdict = Verdict.NOT_CERTIFIED
        if product is None:
            product = pair.s2_star @ pair.s1_star
        system = np.negative(product, out=product)  # I - S2* S1*, in place
        system[np.diag_indices(pair.n)] += 1.0
        try:
            cond = lu_condition(system)[2]
        except SingularSystemError as exc:
            cond = exc.condition_estimate
        notes = (
            f"rho(S2* S1*) = {rho:.6e} >= 1 - {RHO_MARGIN:g}; "
            f"LAPACK 1-norm condition estimate of (I - S2* S1*) is {cond:.3e}; "
            "the backfitting system is not certified"
        )
    return ConvergenceCertificate(
        gap_u=gap_u,
        gap_v=gap_v,
        regular_s1=regular_s1,
        regular_s2=regular_s2,
        spectral=spectral,
        verdict=verdict,
        notes=notes,
    )
