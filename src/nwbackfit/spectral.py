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

Solvers.  The verdict reads only rho(S2* S1*), the one computed radius.
A smoother's other spectral facts are read from its positivity graph
(Seneta, Non-negative Matrices and Markov Chains, 2nd ed., 1981, ch. 1;
Meyer, Matrix Analysis and Applied Linear Algebra, 2000, section 8.4).
The eigenvalues of modulus 1 of a stochastic S are 1, once per closed
class (a strong component with no edge leaving it), and the other roots
of unity of each periodic closed class; a transient block's radius is
below 1.  S* = S - 1 (1^T S / n) is a rank-one (Brauer) deflation that
swaps one eigenvalue 1 of S for 0.  So rho(S*) = 1 exactly when S has
two or more closed classes or a periodic one, and rho(S*) < 1 otherwise,
and the top eigenvalue 1 is simple exactly when S has one closed class;
a regular smoother (route 1) has one, aperiodic.  The report says
whether it is simple but does not restate it: every smoother passes a
1e-9 check of its row sums, which is S 1 = 1.  Dense, sparse, packed
and window smoothers take the same reads, a sparse one as CSR, a packed
one from its triangle of the pair's array and a window one from its
windows, neither formed.

rho(S2* S1*) comes from :func:`_product_radius`: ARPACK (``eigs``;
Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998) asks the unformed
operator x -> c(S2 c(S1 x)), c(z) = z - mean(z), for its eigenvalue of
largest modulus, and for six when that run does not converge; an
operator that sends two seeded vectors to exact zeros has eigenvalue 0
(see :func:`_arpack`).  Only when ARPACK fails, or n < 3, does
``numpy.linalg.eigvals`` of the formed S2* S1* take over, and the
report's ``fallback`` says why.
:func:`spectral_radius` of the formed product is the dense reference
that route is tested against.

A NOT_CERTIFIED note gives ||(I - S2* S1*)^-1||_2 >= 1/|1 - lambda|
(infinite when lambda = 1) from the product's eigenvalue lambda of largest
modulus, which the certificate already holds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array, issparse
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigs

from .kernels import BandwidthSpec, Kernel
from .smoothers import Dataset, OperatorSmoother, Pair

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


@dataclass(frozen=True)
class GapReport:
    """Adjacent-gap kernel positivity check for one coordinate.

    ``max_gap`` is the largest gap between adjacent order statistics.
    ``failing_indices`` are positions into the sorted sequence whose
    kernel evaluation at an adjacent gap is zero.
    """

    coordinate: str
    max_gap: float
    condition_holds: bool
    failing_indices: list[int]

    def to_dict(self) -> dict:
        return {
            "coordinate": self.coordinate,
            "max_gap": self.max_gap,
            "condition_holds": self.condition_holds,
            "failing_indices": list(self.failing_indices),
        }


@dataclass(frozen=True)
class SpectralReport:
    """Spectral quantities of a smoother pair.

    The smoothers' quantities are read from their positivity graphs (see
    the module notes), and no smoother spectrum is computed.
    ``rho_s1_star`` is 1.0 when S1 has two or more closed classes or a
    periodic one, which makes rho(S1*) = 1 exactly, and None otherwise,
    meaning rho(S1*) < 1; a regular smoother's is None.  Likewise
    ``rho_s2_star``.  ``top_eigenvalue_simple`` is True exactly when S1
    has one closed class, which makes its top eigenvalue 1 simple; that
    eigenvalue is 1 to within the 1e-9 row-sum check every smoother
    passes, and is not reported.  ``iterations`` counts ARPACK's
    applications of the product operator (0 when it did not answer),
    and ``fallback`` says why ``eigvals`` of the formed product gave
    ``rho_product`` instead: "n < 3", or "<exception class>: <message>"
    for the ARPACK error; it is None when ARPACK converged.  ``method``
    is derived from it: "power" when ARPACK answered, "dense" when the
    fallback ran.
    """

    rho_s1_star: float | None
    rho_s2_star: float | None
    rho_product: float
    top_eigenvalue_simple: bool
    iterations: int
    fallback: str | None

    @property
    def method(self) -> str:
        return "power" if self.fallback is None else "dense"

    def to_dict(self) -> dict:
        return {
            "rho_s1_star": self.rho_s1_star,
            "rho_s2_star": self.rho_s2_star,
            "rho_product": self.rho_product,
            "top_eigenvalue_simple": self.top_eigenvalue_simple,
            "method": self.method,
            "iterations": self.iterations,
            "fallback": self.fallback,
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
    x: np.ndarray,
    kernel: Kernel,
    bw: BandwidthSpec,
    coordinate: str = "x",
    *,
    order: np.ndarray | None = None,
) -> GapReport:
    """Evaluate the kernel at every adjacent order-statistic gap.

    Point i (sorted order) must have a positive kernel value, at its own
    bandwidth, at the gap to each adjacent order statistic: both sides
    for interior points, the single adjacent gap at the two extremes.
    ``order`` is the stable argsort of ``x`` (a dataset's ``sort_u`` or
    ``sort_v``), computed here when not given.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{coordinate} contains non-finite values")
    if order is None:
        order = np.argsort(x, kind="stable")
    xs = x[order]
    hs = bw.resolve(x)[order]
    gaps = np.diff(xs)
    # value at point i for the gap on its left / right; an overflowing
    # gap / h is weighed K(inf) = 0, as in the smoother builds
    with np.errstate(over="ignore"):
        left_vals = kernel.evaluate(gaps / hs[1:]) / hs[1:]
        right_vals = kernel.evaluate(gaps / hs[:-1]) / hs[:-1]
    failing_indices = np.union1d(
        np.flatnonzero(left_vals <= 0.0) + 1, np.flatnonzero(right_vals <= 0.0)
    ).tolist()
    return GapReport(
        coordinate=coordinate,
        max_gap=float(gaps.max()),
        condition_holds=not failing_indices,
        failing_indices=failing_indices,
    )


def _validate_stochastic(s) -> np.ndarray | csr_array | OperatorSmoother:
    """``s`` as a float array, dense, CSR or operator, after checking it is row-stochastic.

    A sparse ``s`` becomes a ``csr_array``, sharing a float CSR input's
    arrays; one with unsorted or duplicate entries is copied, since the
    checks and reads below put it in canonical form in place.  Its
    checks take O(nnz).  A smoother of a packed or window pair is read as
    it is (:class:`~nwbackfit.smoothers.OperatorSmoother`): a packed one's
    ``min()`` reads its triangle of the pair's array once and its row
    sums are one ``dsymv``; a window one's take O(n).
    """
    if issparse(s):
        s = csr_array(s, dtype=float, copy=not getattr(s, "has_canonical_format", True))
    elif not isinstance(s, OperatorSmoother):
        s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    lowest = s.min()
    if np.isnan(lowest):  # min propagates NaN, which passes every comparison
        raise ValueError("matrix has a NaN entry; not row-stochastic")
    if lowest < -1e-12:
        raise ValueError(f"matrix has a negative entry ({lowest:.3e}); not row-stochastic")
    row_err = np.abs(s.sum(axis=1) - 1.0).max()
    if row_err > 1e-9:
        raise ValueError(f"row sums deviate from 1 by {row_err:.3e}; not row-stochastic")
    return s


def _neighbours_and_loop(s: np.ndarray | csr_array | OperatorSmoother, order: np.ndarray) -> bool:
    """True when the sorted-neighbour entries and some diagonal entry are positive.

    Positive S[o_i, o_{i+1}] and S[o_{i+1}, o_i] for i < n - 1 put every
    node on one path walked both ways, so the positivity graph is
    strongly connected; a positive diagonal entry is a cycle of length 1
    in it, so it is aperiodic.  That makes S regular whatever the
    permutation o; False only means that this read cannot tell.
    """
    n = s.shape[0]
    a, b, diagonal = order[:-1], order[1:], np.arange(n)
    read = s[np.concatenate([a, b, diagonal]), np.concatenate([b, a, diagonal])] > 0.0
    return bool(read[: 2 * (n - 1)].all() and read[2 * (n - 1) :].any())


def _graph_period(adj: csr_array) -> int:
    """Period of a strongly connected directed graph (gcd of cycle lengths).

    ``adj`` is the graph's boolean CSR adjacency matrix, with no stored
    False.  With l_i the breadth-first level of node i from node 0 (its
    unweighted ``shortest_path`` distance), l_i + 1 - l_j over the edges
    i -> j are multiples of the period, and their gcd is the period.
    The single-source Dijkstra search takes O(nnz log n), the gcd O(nnz).
    """
    level = shortest_path(adj, method="D", unweighted=True, indices=0).astype(np.int64)
    ii = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
    return int(np.gcd.reduce(np.abs(level[ii] + 1 - level[adj.indices])))


def _closed_classes(s: np.ndarray | csr_array | OperatorSmoother) -> tuple[int, tuple[int, ...]]:
    """The strong components of a matrix's positivity graph, and its closed classes.

    The graph is a boolean CSR array with no stored False.  A closed
    class is a strong component with no edge leaving it.  Its period is 1
    when one of its nodes has a positive diagonal entry, and
    :func:`_graph_period` of the class otherwise.  Returns the number of
    strong components and the periods of the closed classes, ascending.
    """
    adj = csr_array(s > 0.0)
    n_components, labels = connected_components(adj, directed=True, connection="strong")
    tails = labels[np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))]
    heads = labels[adj.indices]
    closed = np.ones(n_components, dtype=bool)
    closed[tails[tails != heads]] = False
    looped = np.zeros(n_components, dtype=bool)
    looped[labels[adj.diagonal()]] = True
    periods = sorted(
        1 if looped[c] else _graph_period(adj[labels == c][:, labels == c])
        for c in np.flatnonzero(closed)
    )
    return n_components, tuple(periods)


def check_regularity(
    s: np.ndarray | csr_array | OperatorSmoother,
    order: np.ndarray | None = None,
    *,
    classes: list | None = None,
) -> bool:
    """True iff the positivity graph of a stochastic matrix is regular.

    Regular = irreducible (strongly connected) and aperiodic, i.e. some
    power of the matrix is entrywise positive.  The check first reads the
    2(n - 1) entries S[o_i, o_{i+1}], S[o_{i+1}, o_i] at adjacent
    positions of ``order`` (a permutation o of 0..n-1, the identity by
    default) and the diagonal (:func:`_neighbours_and_loop`); for a
    smoother whose ``order`` sorts its coordinate, that is the paper's
    adjacent-gap condition on the built weights.  When it cannot tell,
    the strong components of the graph decide (:func:`_closed_classes`),
    built in O(nnz) from a sparse ``s``.  Dense, sparse, packed and
    window ``s`` take the same reads, after :func:`_validate_stochastic`;
    a smoother of a packed or window pair is read without being formed.
    When the read cannot tell, a packed smoother's graph is a dense
    boolean n x n array, as for a dense ``s``, and a window smoother's a
    boolean CSR array of its windows.

    When ``classes`` is a list, the graph's :func:`_closed_classes` result
    is appended to it, or None when the read alone showed S regular: a
    certificate reads a non-regular smoother's eigenvalues of modulus 1
    from it, without building the graph again.
    """
    s = _validate_stochastic(s)
    n = s.shape[0]
    order = np.arange(n) if order is None else np.asarray(order)
    # integers only: the read cannot index with floats, and masks with bools
    integer = np.issubdtype(order.dtype, np.integer)
    if not integer or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}")
    graph = None if _neighbours_and_loop(s, order) else _closed_classes(s)
    if classes is not None:
        classes.append(graph)
    return graph is None or graph == (1, (1,))


def spectral_radius(m: np.ndarray) -> float:
    """Spectral radius of a square matrix, from all its eigenvalues.

    The largest modulus over ``numpy.linalg.eigvals(m)``; of
    ``pair.star_product()``, the dense reference a certificate's radius
    is tested against.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return float(np.abs(np.linalg.eigvals(m)).max())


def _arpack(matvec, n: int) -> tuple[np.ndarray, int]:
    """The eigenvalue of largest modulus of an unformed n x n operator, n >= 3.

    ARPACK's ``eigs`` computes it to machine precision (``tol=0``) on
    x -> ``matvec(x)``.  When that run raises ``ArpackNoConvergence`` it
    asks again for the min(6, n - 2) of largest modulus, whose larger
    Krylov basis converges where the smaller one stalls, as on an
    operator with several eigenvalues within 1e-13 of its top.  Each
    attempt's starting vector, and the vectors it draws after finding an
    invariant subspace, come from a generator seeded here, so reruns are
    bit-identical.

    ARPACK cannot start from a vector the operator sends to exact zeros
    (its error -9), as a zero S2* S1* may do with its rounding; the run
    is then repeated from a second seeded vector, and when that too goes
    to zeros the operator is taken as zero, eigenvalue 0: a nonzero
    operator sends a random vector to zero with probability 0.  Every
    other ``ArpackError``, and every one of the ``ArpackNoConvergence``
    retry, propagates to the caller.

    Returns the eigenvalues found (the answering run's one, or its
    retry's) and the number of operator applications over all attempts.
    """
    applications = 0
    zeros = False  # whether the last application gave exact zeros

    def counted(x):
        nonlocal applications, zeros
        applications += 1
        y = matvec(x)
        zeros = not y.any()
        return y

    def run(k: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return eigs(
            LinearOperator((n, n), matvec=counted, dtype=float),
            k=k,
            which="LM",
            tol=0,
            v0=rng.standard_normal(n),
            return_eigenvectors=False,
            rng=rng,
        )

    for seed in (0, 1):
        start = applications
        try:
            vals = run(1, seed)
        except ArpackNoConvergence:
            if n - 2 <= 1:  # the retry would repeat the run
                raise
            vals = run(min(6, n - 2), seed)
        except ArpackError:
            # error -9: the run's one application sent its start to zeros
            if not (zeros and applications == start + 1):
                raise
            continue
        return vals, applications
    return np.zeros(1), applications


def _product_radius(pair: Pair) -> tuple[complex, int, str | None]:
    """The eigenvalue of S2* S1* of largest modulus (see the module notes).

    :func:`_arpack` runs on the unformed operator; on its ``ArpackError``,
    and for n < 3 (ARPACK needs k <= n - 2), ``numpy.linalg.eigvals`` of
    ``pair.star_product()`` runs instead, and a LAPACK failure there is
    raised as a ``LinAlgError`` naming it.

    Returns that eigenvalue, the number of operator applications (0 when
    ``eigvals`` gave it) and why ``eigvals`` ran ("n < 3", or
    "<exception class>: <message>"; None when ARPACK converged).
    """
    if pair.n < 3:
        fallback = "n < 3"
    else:
        try:
            vals, applications = _arpack(
                lambda x: pair.apply_s2_star(pair.apply_s1_star(x)), pair.n
            )
        except ArpackError as exc:
            fallback = f"{type(exc).__name__}: {exc}"
        else:
            return vals[np.abs(vals).argmax()], applications, None
    try:
        vals = np.linalg.eigvals(pair.star_product())
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"LAPACK eigenvalue solver (numpy.linalg.eigvals) failed on the formed "
            f"{pair.n} x {pair.n} S2* S1*: {exc}"
        ) from exc
    return vals[np.abs(vals).argmax()], 0, fallback


def _unit_modulus(graph: tuple[int, tuple[int, ...]] | None) -> tuple[bool, float | None]:
    """Whether a smoother's top eigenvalue 1 is simple, and rho(S*): 1.0, or None for < 1.

    Read from the :func:`_closed_classes` result ``graph`` (see the module
    notes); None stands for a smoother the sorted-neighbour read showed
    regular, which has one closed class, aperiodic.
    """
    if graph is None:
        return True, None
    periods = graph[1]
    unit = len(periods) > 1 or periods[-1] > 1
    return len(periods) == 1, 1.0 if unit else None


def certify(
    pair: Pair,
    kernel: Kernel,
    bw_u: BandwidthSpec,
    bw_v: BandwidthSpec,
    data: Dataset,
    *,
    # kept only for bench/tracing.py::_observe_certify; deleted by ROADMAP item 2's last step
    method: str = "power",
) -> ConvergenceCertificate:
    """Certify convergence of the backfitting iteration for this pair.

    The operative test is rho(S2* S1*), computed as the module notes say:
    a verdict other than NOT_CERTIFIED requires it below 1 - 1e-8.  When the
    adjacent-gap conditions also hold on both coordinates the verdict is
    CERTIFIED_BY_GAP_CONDITIONS (the human-meaningful sufficient
    condition); otherwise CERTIFIED_BY_SPECTRAL_RADIUS.  A NOT_CERTIFIED
    note bounds ||(I - S2* S1*)^-1||_2 from below (see the module notes).
    """
    if data.n != pair.n:
        raise ValueError(f"pair has n={pair.n} but dataset has n={data.n}")
    if method != "power":
        raise ValueError(
            f"unknown method {method!r}; certify takes only 'power', and "
            "spectral_radius(pair.star_product()) is the dense reference"
        )
    gap_u = check_gap_conditions(data.u, kernel, bw_u, coordinate="u", order=data.sort_u)
    gap_v = check_gap_conditions(data.v, kernel, bw_v, coordinate="v", order=data.sort_v)
    # the public check, which bench/tracing.py times, hands back each graph
    graphs: list = []
    regular_s1 = check_regularity(pair.s1, data.sort_u, classes=graphs)
    regular_s2 = check_regularity(pair.s2, data.sort_v, classes=graphs)
    simple, rho_s1_star = _unit_modulus(graphs[0])
    lam, iterations, fallback = _product_radius(pair)
    spectral = SpectralReport(
        rho_s1_star=rho_s1_star,
        rho_s2_star=_unit_modulus(graphs[1])[1],
        rho_product=float(np.abs(lam)),
        top_eigenvalue_simple=simple,
        iterations=iterations,
        fallback=fallback,
    )

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
        distance = abs(1.0 - lam)
        bound = 1.0 / distance if distance > 0.0 else float("inf")
        notes = (
            f"rho(S2* S1*) = {rho:.6e} >= 1 - {RHO_MARGIN:g}; "
            f"its eigenvalue of largest modulus, lambda = {complex(lam):.6e}, gives "
            f"||(I - S2* S1*)^-1||_2 >= 1/|1 - lambda| = {bound:.3e}; "
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
