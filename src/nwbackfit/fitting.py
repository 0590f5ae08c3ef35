"""Backfitting estimators for the bivariate additive model.

Fits y = alpha + m1(u) + m2(v) + noise by solving the normal equations

    m1 = S1* (y - m2),    m2 = S2* (y - m1)

either by alternating updates (Gauss-Seidel or Jacobi sweeps) or by a
direct solve of the reduced system (I - S2* S1*) m2 = S2* (I - S1*) y
followed by back-substitution into the first equation.  The direct solve
runs restarted GMRES on the unformed system and falls back to a dense LU
factorization, with its condition estimate, only when GMRES cannot show
that the system has a unique solution.  The centered smoothers are
applied and formed by the smoother pair (:class:`~nwbackfit.smoothers.SmootherPair`,
:class:`~nwbackfit.smoothers.PackedPair` or :class:`~nwbackfit.smoothers.WindowPair`); they
annihilate constants, so the intercept separates as alpha = mean(y) and
both component fits are mean-zero by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, gmres

from .kernels import BandwidthSpec, Kernel
from .smoothers import Dataset, Pair

__all__ = [
    "FitResult",
    "BackfitNonConvergenceError",
    "SingularSystemError",
    "backfit_iterative",
    "backfit_direct",
    "normal_equation_residual",
    "predict",
]

# Direct solves refuse systems with a 1-norm condition estimate above this.
CONDITION_LIMIT = 1e12

# GMRES on the reduced system: Krylov vectors per restart cycle, restart
# cycles, and the target for the true residual relative to the right-hand
# side (2-norms, about 45 machine epsilons).
GMRES_RESTART = 100
GMRES_CYCLES = 2
GMRES_RTOL = 1e-14


class BackfitNonConvergenceError(RuntimeError):
    """Iterative backfitting exhausted max_iter before meeting tol."""

    def __init__(self, message: str, iterations: int, final_delta: float):
        super().__init__(message)
        self.iterations = iterations
        self.final_delta = final_delta


class SingularSystemError(RuntimeError):
    """The direct-solve system (I - S2* S1*) is singular or near-singular."""

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted additive decomposition.

    ``final_delta`` is the last iteration's max update norm (0.0 for the
    direct solve); ``residual_normal_eq`` is the summed infinity-norm
    residual of the two normal equations evaluated at the solution.
    """

    alpha_hat: float
    m1_hat: np.ndarray
    m2_hat: np.ndarray
    method: str
    sweep: str | None
    iterations: int
    final_delta: float
    residual_normal_eq: float

    @property
    def n(self) -> int:
        return len(self.m1_hat)

    def fitted_values(self) -> np.ndarray:
        return self.alpha_hat + self.m1_hat + self.m2_hat

    def residuals(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float) - self.fitted_values()

    def to_dict(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "m1_hat": self.m1_hat.tolist(),
            "m2_hat": self.m2_hat.tolist(),
            "method": self.method,
            "sweep": self.sweep,
            "iterations": self.iterations,
            "final_delta": self.final_delta,
            "residual_normal_eq": self.residual_normal_eq,
        }


def normal_equation_residual(
    pair: Pair, y: np.ndarray, m1: np.ndarray, m2: np.ndarray
) -> float:
    """Summed infinity-norm residual of the two normal equations."""
    y = np.asarray(y, dtype=float)
    r1 = m1 - pair.apply_s1_star(y - m2)
    r2 = m2 - pair.apply_s2_star(y - m1)
    return float(np.abs(r1).max() + np.abs(r2).max())


def _check_y(pair: Pair, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or len(y) != pair.n:
        raise ValueError(f"y must be a length-{pair.n} vector, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite values")
    return y


def default_max_iter(n: int) -> int:
    return 10 * n + 1000


def check_stop_rule(tol: float, max_iter: int | None) -> None:
    """Refuse a tol that is not positive and finite, or a max_iter (None: the default) below 1."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def backfit_iterative(
    pair: Pair,
    y: np.ndarray,
    tol: float = 1e-10,
    max_iter: int | None = None,
    sweep: str = "gauss-seidel",
) -> FitResult:
    """Alternate the two component updates until the change is below tol.

    Starting from m1 = m2 = 0, each pass recomputes m1 from a partial
    residual and then m2.  The Gauss-Seidel sweep feeds the fresh m1 into
    the m2 update; the Jacobi sweep uses the previous pass's m1 for both,
    matching the literal simultaneous recursion.  Stops when
    max(||dm1||_inf, ||dm2||_inf) <= tol, raises
    :class:`BackfitNonConvergenceError` when max_iter passes are
    exhausted first.
    """
    y = _check_y(pair, y)
    check_stop_rule(tol, max_iter)
    if sweep not in ("gauss-seidel", "jacobi"):
        raise ValueError(f"unknown sweep {sweep!r}; choose 'gauss-seidel' or 'jacobi'")
    if max_iter is None:
        max_iter = default_max_iter(pair.n)

    alpha = float(y.mean())
    m1 = np.zeros(pair.n)
    m2 = np.zeros(pair.n)
    delta = np.inf
    for it in range(1, max_iter + 1):
        m1_new = pair.apply_s1_star(y - m2)
        source = m1_new if sweep == "gauss-seidel" else m1
        m2_new = pair.apply_s2_star(y - source)
        delta = max(
            float(np.abs(m1_new - m1).max()),
            float(np.abs(m2_new - m2).max()),
        )
        m1, m2 = m1_new, m2_new
        if delta <= tol:
            return FitResult(
                alpha_hat=alpha,
                m1_hat=m1,
                m2_hat=m2,
                method="iterative",
                sweep=sweep,
                iterations=it,
                final_delta=delta,
                residual_normal_eq=normal_equation_residual(pair, y, m1, m2),
            )
    raise BackfitNonConvergenceError(
        f"backfitting did not converge in {max_iter} iterations "
        f"(last update norm {delta:.6e}, tol {tol:g}); "
        "run certification to check the spectral radius",
        iterations=max_iter,
        final_delta=float(delta),
    )


def identity_minus(product: np.ndarray) -> np.ndarray:
    """Turn ``product`` into I - product in place and return it."""
    system = np.negative(product, out=product)
    system[np.diag_indices(len(system))] += 1.0
    return system


def lu_condition(system: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """LU factors of a square system's transpose and its 1-norm condition estimate.

    Works on ``system.T``: for the C-ordered arrays the callers pass,
    that view is Fortran-ordered, so LAPACK ``lange`` takes its norm and
    ``getrf`` (``overwrite_a=True``) overwrites it in place, with no n x n
    copy.  Returns ``(lu, piv, cond)``; solve ``system @ x = b`` with
    ``lu_solve((lu, piv), b, trans=1)``.  ``cond = 1 / rcond`` comes from
    LAPACK ``gecon`` with the infinity norm on the factors of the
    transpose, which is the 1-norm estimate for ``system`` itself
    (infinite when ``rcond`` is 0), at O(n^2) beyond the factorization.
    An exactly singular system factors without the ``LinAlgWarning`` of
    ``lu_factor``, since its infinite ``cond`` already reports it.  Raises
    :class:`SingularSystemError` when ``gecon`` reports failure.
    """
    lange, gecon = get_lapack_funcs(("lange", "gecon"), (system,))
    anorm = lange("I", system.T)
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"Diagonal number \d+ is exactly zero", LinAlgWarning
        )
        lu, piv = lu_factor(system.T, overwrite_a=True)
    rcond, info = gecon(lu, anorm, norm="I")
    if info != 0:
        raise SingularSystemError(
            f"condition estimation failed (LAPACK info={info})", float("inf")
        )
    return lu, piv, 1.0 / rcond if rcond > 0.0 else float("inf")


def _reduced_system(pair: Pair) -> LinearOperator:
    """The unformed operator x -> (I - S2* S1*) x of the direct solve."""
    n = pair.n
    return LinearOperator(
        (n, n), matvec=lambda x: x - pair.apply_s2_star(pair.apply_s1_star(x)), dtype=float
    )


def _gmres(system: LinearOperator, rhs: np.ndarray) -> np.ndarray | None:
    """Solution of ``system @ x = rhs`` by restarted GMRES, or None.

    scipy's ``gmres`` reports success only after recomputing the true
    residual rhs - system @ x, so a returned x meets
    ||rhs - system @ x||_2 <= GMRES_RTOL ||rhs||_2.
    """
    x, info = gmres(
        system,
        rhs,
        rtol=GMRES_RTOL,
        atol=0.0,
        restart=min(system.shape[0], GMRES_RESTART),
        maxiter=GMRES_CYCLES,
    )
    return x if info == 0 else None


def _lu_direct(pair: Pair, rhs: np.ndarray) -> np.ndarray:
    """Solve the formed reduced system by LU, refusing near-singular ones."""
    lu, piv, cond = lu_condition(identity_minus(pair.star_product()))
    if cond > CONDITION_LIMIT:
        raise SingularSystemError(
            f"(I - S2* S1*) is singular or near-singular "
            f"(1-norm condition estimate {cond:.3e} > {CONDITION_LIMIT:g}); "
            "the dataset is likely not certified",
            cond,
        )
    return lu_solve((lu, piv), rhs, trans=1)


def backfit_direct(pair: Pair, y: np.ndarray) -> FitResult:
    """Solve the normal equations directly, by matrix-free GMRES.

    m2 solves (I - S2* S1*) m2 = S2* (I - S1*) y; m1 = S1* (y - m2) then
    satisfies the first normal equation exactly.  Restarted GMRES (Saad &
    Schultz, 1986) solves the reduced system through the centered
    smoother applications, never forming I - S2* S1*, and its answer is
    kept only when the true residual meets the GMRES_RTOL target.  A
    second GMRES solve, on a right-hand side drawn from
    ``default_rng(0)``, probes uniqueness: a singular system is
    inconsistent for almost every right-hand side, so that solve stalls,
    even when the data's own right-hand side happens to be consistent.
    When either solve misses its target, the system is formed and
    LU-factored instead; a 1-norm condition estimate above 1e12 then
    raises :class:`SingularSystemError` instead of returning noise.
    """
    y = _check_y(pair, y)
    system = _reduced_system(pair)
    rhs = pair.apply_s2_star(y - pair.apply_s1_star(y))
    m2 = _gmres(system, rhs)
    if m2 is None or _gmres(system, np.random.default_rng(0).standard_normal(pair.n)) is None:
        m2 = _lu_direct(pair, rhs)
    m1 = pair.apply_s1_star(y - m2)
    return FitResult(
        alpha_hat=float(y.mean()),
        m1_hat=m1,
        m2_hat=m2,
        method="direct",
        sweep=None,
        iterations=0,
        final_delta=0.0,
        residual_normal_eq=normal_equation_residual(pair, y, m1, m2),
    )


# (q - x) / h may overflow; K(inf) = 0 weighs such a point as it should
@np.errstate(over="ignore")
def predict(
    data: Dataset,
    fit: FitResult,
    at: tuple[float, float],
    kernel: Kernel,
    bw_u: BandwidthSpec,
    bw_v: BandwidthSpec,
) -> float:
    """Predict at a query point (u, v).

    Returns alpha_hat plus the kernel-weighted averages of the fitted
    component values at u and at v.  Each coordinate's bandwidth spec
    answers the query through ``data.sort_u`` or ``data.sort_v``
    (``off_sample``, see :mod:`nwbackfit.kernels`): the bandwidth h at the
    query and a window of sorted positions holding every point within h
    of it.  A compact kernel is evaluated only on that window, since it
    weighs every other point zero, so a query costs O(log n) plus the
    window under a constant bandwidth (a rate one adds its O(n) sample
    sd) and O(k + log n) under a k-nearest one; the Gaussian weighs all
    n points.  Raises when a compact kernel
    places zero total mass on the sample at the query, or when the total
    mass is not finite.
    """
    if fit.n != data.n:
        raise ValueError(f"fit has n={fit.n} but dataset has n={data.n}")
    u, v = float(at[0]), float(at[1])
    if not (np.isfinite(u) and np.isfinite(v)):
        raise ValueError(f"query point must be finite, got {at}")
    out = fit.alpha_hat
    for x, order, comp, q, bw, label in (
        (data.u, data.sort_u, fit.m1_hat, u, bw_u, "u"),
        (data.v, data.sort_v, fit.m2_hat, v, bw_v, "v"),
    ):
        h, lo, hi = bw.off_sample(x, order, q)
        if kernel.compact_support:
            near = order[lo:hi]
            x, comp = x[near], comp[near]
        w = kernel.evaluate((q - x) / h) / h
        total = w.sum()
        if total == 0.0:
            raise ValueError(
                f"zero total kernel mass at {label}={q} (bandwidth {h:g}); "
                "query is outside the kernel range of every sample point"
            )
        if not 0.0 < total < np.inf:  # NaN fails too
            raise ValueError(
                f"non-finite total kernel mass ({total}) at {label}={q} (bandwidth {h:g}); "
                "is the bandwidth so small that K(0)/h overflows?"
            )
        out += float(w @ comp) / float(total)
    return float(out)
