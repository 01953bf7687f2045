"""Closed-form cost bounds and zero-cost certification.

Upper bounds: 1 - 1/m from the element count, H((1 - 1/sqrt(d))/2) from the
dimension, and the one-extra-direction family swept over probe vectors zeta.
Zero-cost side: the operator-inequality necessary condition for general d,
and the complete d = 2 decision: after parallel elements merge, each has
at most one orthogonal equal-weight partner, and the cost is zero exactly
when every element has one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import binary_entropy
from .povm import ZERO_NORM_SQ, Povm, merge_parallel
from .naimark import _check_zeta, _prop5_predicted

# Haar-random probe vectors tried by best_bound
_ZETA_SAMPLES = 16
# costs this close to the minimum tie with it (best_bound's candidates,
# minimize_over_e's ancilla dimensions); costs equal in exact arithmetic
# round apart by up to ~5e-15
_TIE_TOL = 1e-14


@dataclass(frozen=True)
class ZeroCostCertificate:
    decision: str  # zero | nonzero | inconclusive
    per_element_margins: np.ndarray
    pairing: list[tuple[int, int]] | None = None


@dataclass(frozen=True)
class BoundReport:
    value: float
    witness: str
    bound_element_count: float
    bound_dimension: float
    bound_zeta_best: float


def bound_element_count(P: Povm) -> float:
    """Any m-outcome POVM costs at most 1 - 1/m ebits."""
    return 1 - 1 / P.m


def bound_dimension(d: int) -> float:
    """Any POVM in dimension d costs at most H((1 - 1/sqrt(d))/2) ebits."""
    if d < 2:
        raise ValueError("dimension bound needs d >= 2")
    return binary_entropy((1 - 1 / np.sqrt(d)) / 2)


def bound_prop5(P: Povm, zeta: np.ndarray) -> float:
    """Cost of the one-extra-direction extension built on probe vector zeta.

    sum_mu (r_mu^2/d) H(1/2 - sqrt(a^2 + (1 - a^2) |<zeta|k_mu_hat>|^2)/2)
    with a = 1 - 2 r_mu^2. An upper bound on the minimal cost for any unit
    zeta; zeta parallel to an element kills that element's term.
    """
    return float(_prop5_predicted(P, _check_zeta(P, zeta)[None])[0])


def best_bound(P: Povm, seed: int = 0) -> BoundReport:
    """Smallest available upper bound with the name of its achiever.

    Probes the one-extra-direction bound at every element direction and at
    16 Haar-random unit vectors (seeded). The witness is the earliest
    candidate in evaluation order within 1e-14 of the minimum, so exact
    ties resolve by order and not by rounding; value is the minimum.
    """
    norms2 = np.einsum("ij,ij->i", P.matrix.conj(), P.matrix).real
    live = np.flatnonzero(norms2 >= ZERO_NORM_SQ)
    # sample t draws its d real parts, then its d imaginary parts
    z = np.random.default_rng(seed).standard_normal((_ZETA_SAMPLES, 2, P.d))
    samples = z[:, 0] + 1j * z[:, 1]
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    zetas = np.concatenate([P.matrix[live] / np.sqrt(norms2[live])[:, None], samples])
    names = (
        ["element_count", "dimension"]
        + [f"zeta=element_{mu + 1}" for mu in live]
        + [f"zeta=sample_{t + 1}" for t in range(_ZETA_SAMPLES)]
    )
    values = np.concatenate(
        [[bound_element_count(P), bound_dimension(P.d)], _prop5_predicted(P, zetas)]
    )
    low = values.min()
    best = int(np.flatnonzero(values <= low + _TIE_TOL)[0])
    return BoundReport(
        value=float(low),
        witness=names[best],
        bound_element_count=float(values[0]),
        bound_dimension=float(values[1]),
        bound_zeta_best=float(values[2:].min()),
    )


def _orthogonal(M: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Row norms, and orth[mu, nu]: |<k_mu|k_nu>| <= tol ||k_mu|| ||k_nu||."""
    norms = np.linalg.norm(M, axis=1)
    return norms, np.abs(M.conj() @ M.T) <= tol * np.outer(norms, norms)


def _necessary_margins(M: np.ndarray, norms: np.ndarray, orth: np.ndarray) -> np.ndarray:
    """Min eigenvalue of [|k_mu><k_mu| + sum of orthogonal partners] - r_mu^2 I."""
    partners = orth.astype(float)
    np.fill_diagonal(partners, 1.0)
    lhs = np.einsum("un,na,nb->uab", partners, M, M.conj())
    lhs -= (norms**2)[:, None, None] * np.eye(M.shape[1])
    return np.linalg.eigvalsh(lhs).min(axis=1)


def zero_cost_necessary(P: Povm, tol: float = 1e-9) -> ZeroCostCertificate:
    """Operator-inequality necessary condition for zero cost.

    A zero-cost POVM must satisfy, for every mu,
    |k_mu><k_mu| + sum_{nu orthogonal to mu} |k_nu><k_nu| >= <k_mu|k_mu> I.
    A margin below -tol proves nonzero cost; otherwise the certificate is
    inconclusive (the condition is necessary, never sufficient).
    """
    margins = _necessary_margins(P.matrix, *_orthogonal(P.matrix, tol))
    decision = "nonzero" if margins.min() < -tol else "inconclusive"
    return ZeroCostCertificate(decision=decision, per_element_margins=margins)


def zero_cost_decide_d2(P: Povm, tol: float = 1e-9) -> ZeroCostCertificate:
    """Complete zero-cost decision for qubit POVMs, for 0 <= tol < 1/2.

    After merging parallel elements, each element has at most one partner:
    an orthogonal element of equal squared norm. The POVM has zero cost
    exactly when every element has one; the pairs, lowest index first, are
    the pairing. Margins and pairing indices refer to the merged POVM.
    """
    if P.d != 2:
        raise ValueError("this decision procedure is specific to d = 2")
    if not 0 <= tol < 0.5:
        raise ValueError(f"the d = 2 decision needs 0 <= tol < 1/2, got {tol}")
    M = merge_parallel(P, tol).matrix
    norms, orth = _orthogonal(M, tol)
    margins = _necessary_margins(M, norms, orth)
    w = np.einsum("ij,ij->i", M.conj(), M).real
    # unique partners: qubit directions both orthogonal to a third overlap >= 1 - 2tol^2 > 1 - tol
    rows = (orth & (np.abs(w[:, None] - w) <= tol)).tolist()
    m = len(rows)
    # the upper triangle decides: rounding can leave the mask asymmetric
    pairs = [(i, j) for i, row in enumerate(rows) for j in range(i + 1, m) if row[j]]
    if sorted(k for pair in pairs for k in pair) == list(range(m)):
        return ZeroCostCertificate(
            decision="zero", per_element_margins=margins, pairing=pairs
        )
    return ZeroCostCertificate(decision="nonzero", per_element_margins=margins)


def asymptotic_bound_curve(P: Povm, n_max: int) -> list[tuple[int, float]]:
    """Per-copy cost bound for n parallel uses: H((1 - d^(-n/2))/2) / n.

    Strictly decreasing in n and tending to zero, which is the sense in
    which the asymptotic entanglement cost of any POVM vanishes.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    d = P.d
    return [
        (n, binary_entropy((1 - d ** (-n / 2)) / 2) / n) for n in range(1, n_max + 1)
    ]
