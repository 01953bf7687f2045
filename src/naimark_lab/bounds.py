"""Closed-form cost bounds and zero-cost certification.

Upper bounds: 1 - 1/m from the element count, H((1 - 1/sqrt(d))/2) from the
dimension, and the one-extra-direction family swept over probe vectors zeta.
Zero-cost side: the operator-inequality necessary condition for general d,
and the complete d = 2 decision (merge parallel elements, then look for a
perfect pairing into orthogonal equal-weight partners).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import binary_entropy
from .povm import ZERO_NORM_SQ, Povm, merge_parallel
from .naimark import _check_zeta, _prop5_predicted

# Haar-random probe vectors tried by best_bound
_ZETA_SAMPLES = 16
# best_bound candidates this close to the minimum tie with it; candidates
# equal in exact arithmetic round apart by up to ~5e-15
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


def _necessary_margins(P: Povm, tol: float) -> np.ndarray:
    """Min eigenvalue of [|k_mu><k_mu| + sum of orthogonal partners] - r_mu^2 I."""
    M = P.matrix
    norms = np.linalg.norm(M, axis=1)
    # partners[mu, nu]: nu is mu itself or orthogonal to it
    partners = np.abs(M.conj() @ M.T) <= tol * np.outer(norms, norms)
    np.fill_diagonal(partners, True)
    lhs = np.einsum("un,na,nb->uab", partners.astype(float), M, M.conj())
    lhs -= (norms**2)[:, None, None] * np.eye(P.d)
    return np.linalg.eigvalsh(lhs).min(axis=1)


def zero_cost_necessary(P: Povm, tol: float = 1e-9) -> ZeroCostCertificate:
    """Operator-inequality necessary condition for zero cost.

    A zero-cost POVM must satisfy, for every mu,
    |k_mu><k_mu| + sum_{nu orthogonal to mu} |k_nu><k_nu| >= <k_mu|k_mu> I.
    A margin below -tol proves nonzero cost; otherwise the certificate is
    inconclusive (the condition is necessary, never sufficient).
    """
    margins = _necessary_margins(P, tol)
    decision = "nonzero" if margins.min() < -tol else "inconclusive"
    return ZeroCostCertificate(decision=decision, per_element_margins=margins)


def _find_pairing(compat: np.ndarray) -> list[tuple[int, int]] | None:
    """Exact perfect matching by backtracking, lowest indices first."""
    m = compat.shape[0]
    if m % 2:
        return None
    used = [False] * m
    pairs: list[tuple[int, int]] = []

    def rec() -> bool:
        try:
            i = used.index(False)
        except ValueError:
            return True
        used[i] = True
        for j in range(i + 1, m):
            if not used[j] and compat[i, j]:
                used[j] = True
                pairs.append((i, j))
                if rec():
                    return True
                pairs.pop()
                used[j] = False
        used[i] = False
        return False

    return pairs if rec() else None


def zero_cost_decide_d2(P: Povm, tol: float = 1e-9) -> ZeroCostCertificate:
    """Complete zero-cost decision for qubit POVMs.

    After merging parallel elements, the POVM has zero cost exactly when
    its elements admit a perfect pairing into orthogonal partners of equal
    squared norm. Margins and pairing indices refer to the merged POVM.
    """
    if P.d != 2:
        raise ValueError("this decision procedure is specific to d = 2")
    merged = merge_parallel(P, tol)
    if merged.m > 20:
        raise ValueError("brute-force pairing is capped at 20 merged elements")
    margins = _necessary_margins(merged, tol)
    M = merged.matrix
    norms2 = np.einsum("ij,ij->i", M.conj(), M).real
    orth = np.abs(M.conj() @ M.T) / np.sqrt(np.outer(norms2, norms2)) <= tol
    compat = orth & (np.abs(norms2[:, None] - norms2) <= tol)
    np.fill_diagonal(compat, False)
    pairing = _find_pairing(compat)
    if pairing is not None:
        return ZeroCostCertificate(
            decision="zero", per_element_margins=margins, pairing=pairing
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
