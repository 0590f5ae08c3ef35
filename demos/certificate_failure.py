"""Show the certificate catching a design where backfitting cannot converge.

Two well-separated clusters, aligned across both coordinates, with a
compact kernel whose bandwidth bridges neither gap: each smoother mixes
observations only within a cluster.  The chain on the sample points is
reducible, the centered product keeps a unit eigenvalue, and the
iterative fit genuinely stalls.  The certificate reports all of this
before any fitting happens.

Run from the repository root:

    python3 demos/certificate_failure.py
"""

import numpy as np

from nwbackfit import (
    BackfitNonConvergenceError,
    ConstantBandwidth,
    Kernel,
    SingularSystemError,
    backfit_direct,
    backfit_iterative,
    build_pair,
    center,
    certify,
    Dataset,
    spectral_radius,
)
from nwbackfit.smoothers import as_dense

# Two clusters of six points each: u and v both live in [0, 0.8] for the
# first cluster and [10, 10.8] for the second. Bandwidth 1.0 cannot
# bridge the distance-9 gap.
rng = np.random.default_rng(11)
n_a = n_b = 6
u = np.concatenate([rng.uniform(0.0, 0.8, n_a), rng.uniform(10.0, 10.8, n_b)])
v = np.concatenate([rng.uniform(0.0, 0.8, n_a), rng.uniform(10.0, 10.8, n_b)])
y = rng.normal(size=n_a + n_b)
data = Dataset(y=y, u=u, v=v)

kernel = Kernel.TRIANGULAR
bw = ConstantBandwidth(1.0)
pair = build_pair(data, kernel, bw, bw)

print("two aligned clusters, triangular kernel, bandwidth 1.0")
print(f"S1 block structure: cross-cluster weight mass = {as_dense(pair.s1)[:n_a, n_a:].sum():.1f}")
print()

# The certificate fails.
cert = certify(pair, kernel, bw, bw, data)
print(f"verdict: {cert.verdict.value}")
print(f"  gap condition on u holds: {cert.gap_u.condition_holds} "
      f"(max gap {cert.gap_u.max_gap:.2f} vs bandwidth 1.0)")
print(f"  S1 regular (irreducible + aperiodic): {cert.regular_s1}")
# the union of the two smoothers' positivity graphs has two closed classes,
# which makes 1 an eigenvalue of S2* S1* (c - 1 of them), so the certificate
# reports rho(S2* S1*) = 1 without an eigensolver; the dense spectrum of the
# formed S1* shows S1 alone keeps its second unit eigenvalue as well
print(f"  closed classes of the union graph = {cert.spectral.closed_classes} (needs 1)")
print(f"  rho(S1*), dense = {spectral_radius(center(pair.s1)):.6f}")
print(f"  rho(S2* S1*) = {cert.spectral.rho_product:.6f}  (needs < 1)")
print(f"  notes: {cert.notes}")
print()

# The cluster indicator contrast is a fixed vector of the centered
# smoother: the within-cluster averages of a cluster-wise constant are
# that constant, and its overall mean is zero.
w = np.concatenate([np.full(n_a, 1.0 / n_a), np.full(n_b, -1.0 / n_b)])
print(f"cluster contrast w: max |S1* w - w| = {np.abs(pair.apply_s1_star(w) - w).max():.2e}")
print()

# Both solvers fail as the certificate predicts.
try:
    backfit_iterative(pair, data.y, max_iter=500)
except BackfitNonConvergenceError as exc:
    print(f"iterative: {exc}")

try:
    backfit_direct(pair, data.y)
except SingularSystemError as exc:
    print(f"direct:    {exc}")
