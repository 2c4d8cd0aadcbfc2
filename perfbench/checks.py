"""Correctness checks on the program's outputs.

Each check compares an output with ``reference`` or with a property the method
must have, and raises ``CheckFailure`` naming what is wrong.
"""

from __future__ import annotations

import numpy as np

import reference as ref

# Tolerances, set from the solver stopping rules: power iteration stops at a
# step below 1e-14 (slow rings leave about 1e-10 in the eigenvectors), and the
# projection stops at a reduced-gradient norm below 1e-9.
EIG_TOL = 1e-7
DIVERGENCE_TOL = 1e-8
RAY_TOL = 1e-9
MASS_TOL = 1e-9
PYTHAGORAS_TOL = 1e-7
SECOND_DIFF_TOL = 1e-4
# two-sided band for the summed likelihood-ratio statistic, in standard-normal
# scores: a correct program leaves it with probability about 2e-9
LR_BAND_Z = 6.0


class CheckFailure(Exception):
    """An output of the program is wrong."""


def _fail_unless(ok, message):
    if not ok:
        raise CheckFailure(message)


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_perron(chain, values, root, left, right):
    """Root and both eigenvectors (each summing to 1) agree with numpy's eig."""
    ref_root, ref_left, ref_right = ref.perron(chain, values)
    _fail_unless(_close(root, ref_root, EIG_TOL), f"perron root {root!r} != eig root {ref_root!r}")
    for label, got, want in (("left", left, ref_left), ("right", right, ref_right)):
        err = float(np.max(np.abs(np.asarray(got) - want)))
        _fail_unless(err <= EIG_TOL, f"perron {label} eigenvector off by {err:.3g}")


def check_divergences(chain, f, g, fdiv, bregman, nagaoka, ray):
    """F-divergences match their definitions, KL equals Bregman through the chart,
    Nagaoka equals the relative entropy rate, all are >= 0, and 0 on a ray."""
    for name, value in fdiv.items():
        want = ref.f_divergence(name, chain, f, g)
        _fail_unless(_close(value, want, DIVERGENCE_TOL), f"{name} divergence {value!r} != {want!r}")
    _fail_unless(
        _close(fdiv["kl"], bregman, DIVERGENCE_TOL),
        f"KL divergence {fdiv['kl']!r} != Bregman divergence {bregman!r}",
    )
    values = list(fdiv.values()) + [bregman]
    if nagaoka is not None:
        want = ref.relative_entropy_rate(chain, f, g)
        _fail_unless(_close(nagaoka, want, DIVERGENCE_TOL), f"Nagaoka {nagaoka!r} != entropy rate {want!r}")
        values.append(nagaoka)
    _fail_unless(min(values) >= 0.0, f"negative divergence in {values}")
    if ray:
        _fail_unless(max(values) <= RAY_TOL, f"divergences on a ray g = a f are not 0: {values}")


def check_in_M(chain, eta):
    """Mass 1 and equal outgoing and incoming sums at every state."""
    mass = float(np.sum(eta))
    _fail_unless(abs(mass - 1.0) <= MASS_TOL, f"mass {mass!r} != 1")
    gap = float(np.max(np.abs(chain.out_sums(eta) - chain.in_sums(eta))))
    _fail_unless(gap <= MASS_TOL, f"not stationary: marginal gap {gap:.3g}")


def check_projection(chain, eta, projected, witnesses):
    """The projection lies in M and D(z, eta) = D(z, pi) + D(pi, eta) for z in M."""
    check_in_M(chain, projected)
    _fail_unless(np.all(projected > 0), "projection left the positive orthant")
    for zeta in witnesses:
        whole = ref.bregman(chain, zeta, eta)
        parts = ref.bregman(chain, zeta, projected) + ref.bregman(chain, projected, eta)
        _fail_unless(
            abs(whole - parts) <= PYTHAGORAS_TOL * max(1.0, whole),
            f"Pythagorean identity off by {whole - parts:.3g}",
        )


def check_estimate(chain, states, n_steps, empirical, mle):
    """The trajectory walks along edges; pair counts sum to n - 1; MLE rows sum to 1."""
    states = np.asarray(states)
    _fail_unless(states.shape == (n_steps,), f"trajectory has shape {states.shape}, want ({n_steps},)")
    try:
        counts = ref.pair_counts(chain, states)
    except ValueError as exc:
        raise CheckFailure(f"trajectory: {exc}") from None
    _fail_unless(int(counts.sum()) == n_steps - 1, f"pair counts sum to {counts.sum()}, want {n_steps - 1}")
    scaled = np.asarray(empirical) * (n_steps - 1)
    err = float(np.max(np.abs(scaled - counts)))
    _fail_unless(err <= 1e-6, f"empirical pair measure differs from pair counts by {err:.3g}")
    rows = chain.out_sums(np.asarray(mle))
    _fail_unless(float(np.max(np.abs(rows - 1.0))) <= 1e-12, "MLE rows do not sum to 1")
    return counts


def check_likelihood_ratio(statistic, reference_statistic):
    """The program's goodness-of-fit statistic is the classical likelihood ratio."""
    _fail_unless(
        abs(statistic - reference_statistic) <= 1e-3 * max(1.0, reference_statistic),
        f"goodness-of-fit {statistic!r} != likelihood ratio {reference_statistic!r}",
    )


def check_chi_square_band(total, dof):
    """A sum of independent likelihood-ratio statistics is chi-square with the summed dof."""
    low = ref.chi2_quantile(dof, -LR_BAND_Z)
    high = ref.chi2_quantile(dof, LR_BAND_Z)
    _fail_unless(low <= total <= high, f"summed statistic {total:.6g} outside [{low:.6g}, {high:.6g}] for {dof} dof")


def check_hessian(chain, eta, hessian, directions):
    """Symmetric, annihilates eta, and v'Hv matches second differences of phibar."""
    hessian = np.asarray(hessian)
    scale = float(np.max(np.abs(hessian)))
    _fail_unless(hessian.shape == (chain.num_edges,) * 2, f"Hessian has shape {hessian.shape}")
    asym = float(np.max(np.abs(hessian - hessian.T)))
    _fail_unless(asym <= 1e-12 * scale, f"Hessian asymmetric by {asym:.3g}")
    radial = float(np.max(np.abs(hessian @ eta)))
    _fail_unless(radial <= 1e-9 * scale * float(np.max(eta)), f"H eta != 0 (max {radial:.3g})")
    h = 1e-4
    for z in directions:
        v = eta * z
        second = (ref.phibar(chain, eta + h * v) - 2.0 * ref.phibar(chain, eta) + ref.phibar(chain, eta - h * v)) / h**2
        quad = float(v @ hessian @ v)
        _fail_unless(
            abs(quad - second) <= SECOND_DIFF_TOL * max(abs(second), 1e-6),
            f"v'Hv = {quad!r} but second difference = {second!r}",
        )


def check_restricted_hessian(chain, restricted):
    """The Hessian on the mass-one section is symmetric positive definite."""
    restricted = np.asarray(restricted)
    _fail_unless(restricted.shape == (chain.num_edges - 1,) * 2, f"restricted Hessian has shape {restricted.shape}")
    try:
        np.linalg.cholesky(0.5 * (restricted + restricted.T))
    except np.linalg.LinAlgError:
        raise CheckFailure("restricted Hessian is not positive definite") from None


def check_gram(f, gram, null_dim):
    """The Gram matrix is symmetric, annihilates f, and has null space of dimension 1."""
    gram = np.asarray(gram)
    scale = float(np.max(np.abs(gram)))
    _fail_unless(float(np.max(np.abs(gram - gram.T))) <= 1e-12 * scale, "Gram matrix asymmetric")
    along = float(np.max(np.abs(gram @ f)))
    _fail_unless(along <= 1e-9 * scale * float(np.max(f)), f"Gram f != 0 (max {along:.3g})")
    _fail_unless(null_dim == 1, f"null space dimension {null_dim}, want 1")
