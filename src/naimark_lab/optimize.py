"""Minimization of extension cost over the completion freedom.

Only the m firing rows [M | X] carry cost, and their completion part is
X = B Q, where B B^dag = I - M M^dag has rank r = m - d and Q is an
r x d(e-1) matrix with orthonormal rows: a point on a Stiefel manifold.
The search runs over an unconstrained complex Z with Q = polar(Z), by
L-BFGS-B on the weighted row entropies and their analytic gradient, chained
through the polar map. Restart 0 starts at the default completion, later
restarts at seeded complex Gaussian points, so more restarts are never
worse. Results are upper estimates of the true minimum; the problem is not
convex and no global certificate is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .naimark import (
    ExtensionCostBreakdown,
    NaimarkExtension,
    _complete_rows,
    _default_block_basis,
    _row_entropies,
    extension_cost,
)
from .povm import Povm, canonical_distribution

# L-BFGS-B stops once every gradient component is below this,
_GRAD_TOL = 1e-9
# or once an iteration lowers the cost by less than this relative amount.
_OBJECTIVE_TOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20
    max_iters: int = 2000  # L-BFGS-B iterations per restart
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("counts must be positive")


@dataclass(frozen=True)
class CostReport:
    e_used: int
    best_cost: float
    best_extension: NaimarkExtension
    breakdown: ExtensionCostBreakdown
    restarts_run: int
    converged: bool
    history: list = field(default_factory=list)  # per-restart final values


def _search_space(P: Povm, e: int) -> tuple[np.ndarray, np.ndarray]:
    """B (m x r) and the default completion's Q0 (r x n), with X0 = B Q0."""
    L0 = _default_block_basis(P, e)  # raises on capacity d*e < m
    U, s, Vh = np.linalg.svd(L0[: P.m, P.d :], full_matrices=False)
    r = P.m - P.d
    return U[:, :r] * s[:r], Vh[:r]


def _polar(x: np.ndarray, r: int, n: int):
    """Q = polar(Z) for Z packed as [Re Z, Im Z]; also U and sigma of Z = U sigma W^dag."""
    Z = (x[: r * n] + 1j * x[r * n :]).reshape(r, n)
    U, sigma, Wh = np.linalg.svd(Z, full_matrices=False)
    return U @ Wh, U, sigma


def _cost_and_grad(x, M, B, weights, d, e):
    """Weighted row entropy at Q = polar(Z) and its gradient in [Re Z, Im Z]."""
    r, n = B.shape[1], M.shape[1] * (e - 1)
    Q, U, sigma = _polar(x, r, n)
    S, Gamma = _row_entropies(np.concatenate([M, B @ Q], axis=1), d, e, grad=True)
    GQ = B.conj().T @ (weights[:, None] * Gamma[:, d:])
    # adjoint of the polar map with H = U sigma U^dag:
    # Gamma_Z = K Q + H^-1 GQ (I - Q^dag Q), where H K + K H = R - R^dag
    R = GQ @ Q.conj().T
    C = U.conj().T @ (R - R.conj().T) @ U
    K = U @ (C / (sigma[:, None] + sigma[None, :])) @ U.conj().T
    GZ = K @ Q + ((U / sigma) @ U.conj().T) @ (GQ - R @ Q)
    return float(weights @ S), 2 * np.concatenate([GZ.real.ravel(), GZ.imag.ravel()])


def minimize(P: Povm, e: int, cfg: OptimizerConfig = OptimizerConfig()) -> CostReport:
    """Multi-restart minimization of extension cost at fixed ancilla dimension.

    Restart k >= 1 draws its complex Gaussian start from a generator seeded
    with cfg.seed + k; ties between restarts resolve to the lowest index.
    A von Neumann measurement (m = d, so r = 0) leaves the firing rows no
    completion freedom: its single completion is evaluated once.
    """
    weights = canonical_distribution(P)
    d, m = P.d, P.m
    B, Q = _search_space(P, e)
    r, n = Q.shape  # n >= r by the capacity d*e >= m
    history, converged = [], True
    if r:
        args = (P.matrix, B, weights, d, e)
        best_f, best_x = np.inf, None
        for k in range(cfg.restarts):
            if k == 0:
                Z0 = Q
            else:
                rng = np.random.default_rng(cfg.seed + k)
                Z0 = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            x, f, info = scipy.optimize.fmin_l_bfgs_b(
                _cost_and_grad,
                np.concatenate([Z0.real.ravel(), Z0.imag.ravel()]),
                args=args,
                factr=_OBJECTIVE_TOL / np.finfo(float).eps,
                pgtol=_GRAD_TOL,
                maxiter=cfg.max_iters,
            )
            history.append(float(f))
            if f < best_f:
                best_f, best_x, converged = f, x, info["warnflag"] == 0
        Q = _polar(best_x, r, n)[0]

    basis = _complete_rows(np.concatenate([P.matrix, B @ Q], axis=1))
    ext = NaimarkExtension(d=d, e=e, m=m, basis=basis)
    breakdown = extension_cost(ext, weights)
    if not history:  # no completion freedom: one evaluation
        history = [breakdown.total]
    return CostReport(
        e_used=e,
        best_cost=breakdown.total,
        best_extension=ext,
        breakdown=breakdown,
        restarts_run=len(history),
        converged=converged,
        history=history,
    )


def minimize_over_e(
    P: Povm,
    e_min: int | None = None,
    e_max: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CostReport:
    """Sweep the ancilla dimension and keep the cheapest report.

    Defaults cover ceil(m/d) (smallest capacity) through m + 1 (where a
    one-extra-direction extension always exists); e_max may be raised to
    m*d, beyond which larger ancillas provably cannot help.
    """
    d, m = P.d, P.m
    lo = int(np.ceil(m / d))
    if e_min is None:
        e_min = lo
    if e_max is None:
        e_max = m + 1
    if e_min < lo:
        raise ValueError(f"e_min must be >= ceil(m/d) = {lo}")
    if e_max > m * d:
        raise ValueError(f"e_max must be <= m*d = {m * d}")
    if e_min > e_max:
        raise ValueError("empty ancilla range")
    best = None
    for e in range(e_min, e_max + 1):
        rep = minimize(P, e, cfg)
        if best is None or rep.best_cost < best.best_cost:
            best = rep
    return best


def normalized_cost(report: CostReport, d: int) -> float:
    """Cost per qubit of system space: best_cost / log2(d)."""
    if d < 2:
        raise ValueError("normalized cost needs d >= 2")
    return report.best_cost / np.log2(d)
