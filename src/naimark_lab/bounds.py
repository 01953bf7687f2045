"""Closed-form cost bounds and zero-cost certification.

Upper bounds: 1 - 1/m from the element count, H((1 - 1/sqrt(d))/2) from the
dimension, and the one-extra-direction family swept over probe vectors zeta.
Zero-cost side: the operator-inequality necessary condition for general d,
and the complete d = 2 decision: after parallel elements merge, each has
at most one orthogonal equal-weight partner, and the cost is zero exactly
when every element has one.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import binary_entropy
from .povm import ZERO_NORM_SQ, Povm, merge_parallel
from .naimark import _check_zeta, _prop5_predicted

# Haar-random probe vectors tried by best_bound
_ZETA_SAMPLES = 16
# entries kept by the per-(seed, d) probe cache and the per-d dimension bound;
# random-scan passes a new seed on every row, so the caches must stay bounded
_CACHE_SIZE = 32
# costs this close to the minimum tie with it (best_bound's candidates,
# minimize_over_e's ancilla dimensions); costs equal in exact arithmetic
# round apart by up to ~5e-15
_TIE_TOL = 1e-14
# smallest tolerance of the zero-cost procedures: below it, float64 rounding in
# the orthogonality and weight tests decides zero-cost POVMs "nonzero"
_ZERO_TOL_FLOOR = 1e-12


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


@functools.lru_cache(maxsize=_CACHE_SIZE)
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
    16 Haar-random unit vectors, drawn from seed (a non-negative integer,
    numpy integers included) once per (seed, d) and kept in a bounded
    cache. The witness is the earliest candidate in evaluation order within
    1e-14 of the minimum, so exact ties resolve by order and not by
    rounding; value is the minimum.
    """
    seed = operator.index(seed)  # None or a float raises TypeError
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    norms2 = np.einsum("ij,ij->i", P.matrix.conj(), P.matrix).real
    live = np.flatnonzero(norms2 >= ZERO_NORM_SQ)
    zetas = np.concatenate(
        [P.matrix[live] / np.sqrt(norms2[live])[:, None], _probe_samples(seed, P.d)]
    )
    values = np.concatenate(
        [[bound_element_count(P), bound_dimension(P.d)], _prop5_predicted(P, zetas)]
    )
    low = values.min()
    best = int(np.flatnonzero(values <= low + _TIE_TOL)[0])
    return BoundReport(
        value=float(low),
        witness=_witness_name(best, live),
        bound_element_count=float(values[0]),
        bound_dimension=float(values[1]),
        bound_zeta_best=float(values[2:].min()),
    )


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _probe_samples(seed: int, d: int) -> np.ndarray:
    """best_bound's seeded Haar-random unit probe vectors, (16, d), read-only."""
    # sample t draws its d real parts, then its d imaginary parts
    z = np.random.default_rng(seed).standard_normal((_ZETA_SAMPLES, 2, d))
    samples = z[:, 0] + 1j * z[:, 1]
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    samples.flags.writeable = False
    return samples


def _witness_name(index: int, live: np.ndarray) -> str:
    """Name of best_bound's candidate at index, in its evaluation order."""
    if index < 2:
        return ("element_count", "dimension")[index]
    if index < 2 + live.size:
        return f"zeta=element_{live[index - 2] + 1}"
    return f"zeta=sample_{index - 1 - live.size}"


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


def _check_zero_tol(tol: float) -> None:
    if not tol >= _ZERO_TOL_FLOOR:  # NaN fails too
        raise ValueError(
            f"tol must be >= {_ZERO_TOL_FLOOR:g}, below which float64 rounding decides; got {tol}"
        )


def zero_cost_necessary(P: Povm, tol: float = 1e-9) -> ZeroCostCertificate:
    """Operator-inequality necessary condition for zero cost.

    A zero-cost POVM must satisfy, for every mu,
    |k_mu><k_mu| + sum_{nu orthogonal to mu} |k_nu><k_nu| >= <k_mu|k_mu> I.
    A margin below -tol proves nonzero cost; otherwise the certificate is
    inconclusive (the condition is necessary, never sufficient). tol must
    be at least 1e-12, above float64 rounding.
    """
    _check_zero_tol(tol)
    margins = _necessary_margins(P.matrix, *_orthogonal(P.matrix, tol))
    decision = "nonzero" if margins.min() < -tol else "inconclusive"
    return ZeroCostCertificate(decision=decision, per_element_margins=margins)


def zero_cost_decide_d2(P: Povm, tol: float = 1e-9) -> ZeroCostCertificate:
    """Complete zero-cost decision for qubit POVMs, for 1e-12 <= tol < 1/2.

    After merging parallel elements, each element has at most one partner:
    an orthogonal element of equal squared norm. The POVM has zero cost
    exactly when every element has one; the pairs, lowest index first, are
    the pairing. Margins and pairing indices refer to the merged POVM.
    """
    if P.d != 2:
        raise ValueError("this decision procedure is specific to d = 2")
    _check_zero_tol(tol)
    if not tol < 0.5:
        raise ValueError(f"the d = 2 decision needs {_ZERO_TOL_FLOOR:g} <= tol < 1/2, got {tol}")
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
