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

Solvers.  The report needs only a few extreme eigenvalues of each
smoother S: the top eigenvalue of S1, its simplicity, and rho(S*).
S* = S - 1 (1^T S / n) is a rank-one (Brauer) deflation of the unit
eigenvalue, so the spectrum of S* is that of S with one eigenvalue 1
replaced by 0.  Every Krylov run goes through one ARPACK call
(``eigs``; Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998) on an
unformed operator.  For a smoother it is x -> c(S x), c(z) = z - mean(z),
dense or CSR alike, within a budget of n // 10 operator applications.
Below n = 410 the budget is too small to try, and when ARPACK fails or
spends the budget the smoother is made dense and the report's
``smoother_fallback`` says why.  The full spectrum then comes from
``eigvalsh`` of A = diag(sqrt(pi)) S diag(1/sqrt(pi)), pi_i = 1/S_ii,
when A is symmetric (S is reversible, as for a symmetric kernel at one
common bandwidth, where A = D^-1/2 K D^-1/2), and from ``eigvals``
otherwise (k-nearest or per-point bandwidths).
``certify(method="power")``, which the command line always uses, runs
the same ARPACK call, without a budget, on x -> c(S2 c(S1 x)), which
never forms the product; when ARPACK fails or n < 3 it forms the product
and takes the dense radius instead, and the report's ``fallback`` says
why.  ``method="dense"``, the library default, always takes the dense
radius of the formed product, as does :func:`spectral_radius` for any
square matrix; they are the reference the ARPACK route is tested
against.  The smoothers take the same route under both methods.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh
from scipy.sparse import csr_array, issparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigs

from .fitting import SingularSystemError, identity_minus, lu_condition
from .kernels import BandwidthSpec, Kernel
from .smoothers import Dataset, SmootherPair, apply_star, as_dense

__all__ = [
    "GapReport",
    "SpectralReport",
    "Verdict",
    "ConvergenceCertificate",
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
    ``rho_s2_star`` come from the extreme eigenvalues of S1 and S2,
    whatever ``method``: a budgeted ARPACK run on the centered smoother
    from n = 410 on, and the full spectrum (``eigvalsh`` for a reversible
    smoother, ``eigvals`` otherwise) below that size or when the run
    fails.  ``smoother_iterations`` counts the ARPACK operator
    applications for [S1, S2] (0 on a full-spectrum route), and
    ``smoother_fallback`` says why an ARPACK run gave way to the full
    spectrum: "s1: <exception class>: <message>", likewise "s2: ...",
    joined by "; " when both did; it is None when no run failed.
    ``method`` records how ``rho_product`` was obtained ("power" when
    ARPACK converged on the matrix-free product, "dense" for the dense
    eigendecomposition of the formed product, including after an ARPACK
    failure or for n < 3), and ``iterations`` counts ARPACK's
    applications of the product operator (0 for "dense").
    ``fallback`` says why a power run took the dense route: "n < 3", or
    "<exception class>: <message>" for the ARPACK error; it is None when
    ARPACK converged and when dense was asked for.
    ``perron_vector_check`` is the residual ||S1 theta - theta|| for the
    unit constant vector theta = 1/sqrt(n).
    """

    rho_s1_star: float
    rho_s2_star: float
    rho_product: float
    top_eigenvalue_s1: complex
    top_eigenvalue_simple: bool
    perron_vector_check: float
    method: str
    iterations: int
    fallback: str | None
    smoother_iterations: tuple[int, int]
    smoother_fallback: str | None

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
            "fallback": self.fallback,
            "smoother_iterations": list(self.smoother_iterations),
            "smoother_fallback": self.smoother_fallback,
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


def _validate_stochastic(s) -> np.ndarray | csr_array:
    """``s`` as a float array, dense or CSR, after checking it is row-stochastic.

    A sparse ``s`` is checked on its stored entries and row sums, in O(nnz).
    """
    if issparse(s):
        s = csr_array(s, dtype=float)
        entries = s.data
    else:
        s = entries = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    lowest = entries.min(initial=0.0)
    if lowest < -1e-12:
        raise ValueError(f"matrix has a negative entry ({lowest:.3e}); not row-stochastic")
    row_err = np.abs(s.sum(axis=1) - 1.0).max()
    if row_err > 1e-9:
        raise ValueError(f"row sums deviate from 1 by {row_err:.3e}; not row-stochastic")
    return s


def _positive_pattern(s: np.ndarray | csr_array) -> csr_array | None:
    """The positive entries of a square matrix, as a boolean CSR array.

    None for a dense matrix whose entries are all positive, which is
    irreducible and aperiodic, so that no n^2-entry CSR copy is made.
    """
    if not issparse(s):
        positive = s > 0.0
        return None if positive.all() else csr_array(positive)
    adj = csr_array((s.data > 0.0, s.indices, s.indptr), shape=s.shape)
    adj.eliminate_zeros()
    return adj


def _graph_period(adj: csr_array) -> int:
    """Period of a strongly connected directed graph (gcd of cycle lengths).

    ``adj`` is the graph's boolean CSR adjacency matrix, with no stored
    False; a breadth-first search walks its rows, in O(nnz).
    """
    n = adj.shape[0]
    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in adj.indices[adj.indptr[i] : adj.indptr[i + 1]]:
                if level[j] < 0:
                    level[j] = level[i] + 1
                    nxt.append(int(j))
        frontier = nxt
    ii = np.repeat(np.arange(n), np.diff(adj.indptr))
    return int(np.gcd.reduce(np.abs(level[ii] + 1 - level[adj.indices])))


def check_regularity(s: np.ndarray | csr_array) -> bool:
    """True iff the positivity graph of a stochastic matrix is regular.

    Regular = irreducible (strongly connected) and aperiodic, i.e. some
    power of the matrix is entrywise positive.  Any positive diagonal
    entry of an irreducible matrix short-circuits the period computation.
    ``s`` may be dense or sparse; a sparse one is checked in O(nnz).
    """
    adj = _positive_pattern(_validate_stochastic(s))
    if adj is None:
        return True
    n_components, _ = connected_components(adj, directed=True, connection="strong")
    if n_components != 1:
        return False
    if adj.diagonal().any():
        return True
    return _graph_period(adj) == 1


def spectral_radius(m: np.ndarray) -> float:
    """Spectral radius of a square matrix, from all its eigenvalues.

    The largest modulus over ``numpy.linalg.eigvals(m)``: the dense
    reference.  Certificates under ``method="power"`` take rho(S2* S1*)
    from ARPACK and use this only as their fallback.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return float(np.abs(np.linalg.eigvals(m)).max())


def _asymmetry(a: np.ndarray) -> float:
    """Frobenius norm of a - a^T, summed over blocks of 512 rows of a.

    Blocking keeps the temporaries at one block of 512 rows instead of a
    second n x n array.
    """
    total = 0.0
    for i in range(0, a.shape[0], 512):
        diff = a[i : i + 512] - a[:, i : i + 512].T
        total += float(np.einsum("ij,ij->", diff, diff))
        del diff  # freed before the next block is allocated, not after
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


def _spectrum_extremes(eigs: np.ndarray) -> tuple[complex, bool, float]:
    """Top eigenvalue, its simplicity and rho(S*) from the spectrum of S.

    The top eigenvalue has the largest modulus, and it is simple when no
    other eigenvalue lies within 1e-8 of it.  S* = S - 1 (1^T S / n)
    deflates the eigenpair (1, 1) of a row-stochastic S: its spectrum is
    that of S with one eigenvalue 1 replaced by 0 (Brauer's theorem).
    """
    top = eigs[np.argmax(np.abs(eigs))]
    simple = int(np.sum(np.abs(eigs - top) <= 1e-8)) == 1
    rest = np.delete(eigs, np.argmin(np.abs(eigs - 1.0)))
    return complex(top), simple, float(np.abs(rest).max(initial=0.0))


def _arpack(matvec, n: int, budget: int | None = None) -> tuple[np.ndarray, int]:
    """The eigenvalues of largest modulus of an unformed n x n operator.

    ARPACK's ``eigs`` computes the k = min(6, n - 2) eigenvalues of
    largest modulus of x -> ``matvec(x)`` to machine precision
    (``tol=0``).  Its starting vector, and the vectors it draws after
    finding an invariant subspace, come from a generator seeded here, so
    reruns are bit-identical.  The operator raises ``ArpackNoConvergence``
    instead of exceeding ``budget`` applications (no limit when None);
    every ``ArpackError`` propagates to the caller.

    Returns the eigenvalues and the number of operator applications.
    """
    applications = 0

    def counted(x):
        nonlocal applications
        if applications == budget:
            raise ArpackNoConvergence(
                f"ARPACK budget of {budget} operator applications used up",
                np.array([]),
                np.array([]),
            )
        applications += 1
        return matvec(x)

    rng = np.random.default_rng(0)
    vals = eigs(
        LinearOperator((n, n), matvec=counted, dtype=float),
        k=min(6, n - 2),
        which="LM",
        tol=0,
        v0=rng.standard_normal(n),
        return_eigenvectors=False,
        rng=rng,
    )
    return vals, applications


def _smoother_budget(n: int) -> int:
    """Operator applications ARPACK may spend on an n x n smoother; 0 skips it.

    The budget is n // 10.  The full eigendecomposition costs about n/3
    applications, so a run that spends the budget and falls back wastes
    at most about a third more.  A budget of 40 or less (n < 410) is not
    tried: a compact kernel at small bandwidth needs more applications
    than that (114 for a uniform kernel at h = 0.04, n = 200), and there
    the full eigendecomposition is cheap (1.8 ms against 3.4 ms for
    that ARPACK run, one BLAS thread).
    """
    budget = n // 10
    return budget if budget > 40 else 0


def _smoother_extremes(
    s: np.ndarray | csr_array,
) -> tuple[complex, bool, float, int, str | None]:
    """Top eigenvalue of a smoother, its simplicity, and rho(S*).

    When the budget (:func:`_smoother_budget`) is nonzero, :func:`_arpack`
    runs on x -> S x - mean(S x), whose spectrum is that of S* (see
    :func:`_spectrum_extremes`), dense or CSR alike, without copying S.
    rho(S*) is the largest returned modulus, the top eigenvalue is the
    Rayleigh quotient theta^T S theta of the unit constant vector
    theta = 1/sqrt(n), and it is simple when no returned eigenvalue lies
    within 1e-8 of it.  Otherwise, or when ARPACK raises ``ArpackError``,
    ``s`` is made dense and the full spectrum comes from ``eigvalsh`` of
    its symmetrisation when it is reversible (see :func:`_symmetrized`)
    and from ``eigvals`` when it is not.

    Returns the three quantities, the ARPACK operator applications (0 on
    the full-spectrum route) and why an ARPACK run fell back (None when
    none did).
    """
    n = s.shape[0]
    budget = _smoother_budget(n)
    fallback = None
    if budget:
        try:
            vals, applications = _arpack(lambda x: apply_star(s, x), n, budget)
        except ArpackError as exc:
            fallback = f"{type(exc).__name__}: {exc}"
        else:
            theta = np.full(n, 1.0 / np.sqrt(n))
            top = float(theta @ (s @ theta))
            simple = not bool(np.any(np.abs(vals - top) <= 1e-8))
            return complex(top), simple, float(np.abs(vals).max()), applications, None
    s = as_dense(s)
    a = _symmetrized(s)
    if a is None:
        spectrum = np.linalg.eigvals(s)
    else:
        # a^T is Fortran-ordered, so LAPACK works in a's buffer, and it
        # has the spectrum of a.
        spectrum = eigvalsh(a.T, overwrite_a=True, check_finite=False)
    return (*_spectrum_extremes(spectrum), 0, fallback)


def _product_radius(
    pair: SmootherPair,
) -> tuple[float, str, int, np.ndarray | None, str | None]:
    """rho(S2* S1*) by ARPACK on the unformed product, densely if that fails.

    :func:`_arpack` runs, without a budget, on x -> c(S2 c(S1 x)),
    c(z) = z - mean(z).  When ARPACK raises ``ArpackError`` (including
    ``ArpackNoConvergence``), or n < 3 (ARPACK needs k <= n - 2), the
    product is formed and its radius taken by :func:`spectral_radius`.

    Returns the radius, the route ("power" or "dense"), the number of
    operator applications (0 on the dense route), the product if it was
    formed, and why the dense route ran (None when ARPACK converged).
    """
    n = pair.n
    if n < 3:
        fallback = "n < 3"
    else:
        try:
            vals, applications = _arpack(
                lambda x: pair.apply_s2_star(pair.apply_s1_star(x)), n
            )
        except ArpackError as exc:
            fallback = f"{type(exc).__name__}: {exc}"
        else:
            return float(np.abs(vals).max()), "power", applications, None, None
    product = pair.star_product()
    return spectral_radius(product), "dense", 0, product, fallback


def _spectral_report(
    pair: SmootherPair, method: str
) -> tuple[SpectralReport, np.ndarray | None]:
    """The spectral report, and the product S2* S1* if it was formed.

    The product is formed only on the dense route: for ``method="dense"``,
    and when :func:`_product_radius` falls back.
    """
    top, simple, rho_s1_star, applications_s1, fallback_s1 = _smoother_extremes(pair.s1)
    _, _, rho_s2_star, applications_s2, fallback_s2 = _smoother_extremes(pair.s2)
    smoother_fallback = "; ".join(
        f"{name}: {reason}"
        for name, reason in (("s1", fallback_s1), ("s2", fallback_s2))
        if reason is not None
    )
    theta = np.full(pair.n, 1.0 / np.sqrt(pair.n))
    perron_check = float(np.linalg.norm(pair.s1 @ theta - theta))

    if method == "power":
        rho_product, used, iterations, product, fallback = _product_radius(pair)
    else:
        product = pair.star_product()
        rho_product, used, iterations, fallback = spectral_radius(product), "dense", 0, None
    report = SpectralReport(
        rho_s1_star=rho_s1_star,
        rho_s2_star=rho_s2_star,
        rho_product=rho_product,
        top_eigenvalue_s1=top,
        top_eigenvalue_simple=simple,
        perron_vector_check=perron_check,
        method=used,
        iterations=iterations,
        fallback=fallback,
        smoother_iterations=(applications_s1, applications_s2),
        smoother_fallback=smoother_fallback or None,
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
            product = pair.star_product()
        try:
            cond = lu_condition(identity_minus(product))[2]
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
