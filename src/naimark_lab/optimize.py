"""Minimization of extension cost over the completion freedom.

Only the m firing rows [M | X] carry cost, and their completion part is
X = B Q, where B B^dag = I - M M^dag has rank r = m - d and Q is an
r x d(e-1) matrix with orthonormal rows: a point on a Stiefel manifold.
The search runs over an unconstrained complex Z with Q = polar(Z), by
L-BFGS on the weighted row entropies and their analytic gradient, chained
through the polar map. All restarts run in lockstep: each is a generator
that yields its next trial point, and one batched evaluation serves every
restart still running. Restart 0 starts at the default completion, later
restarts at seeded complex Gaussian points, so more restarts are never
worse. Results are upper estimates of the true minimum; the problem is not
convex and no global certificate is claimed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .naimark import (
    ExtensionCostBreakdown,
    NaimarkExtension,
    _complete_rows,
    _default_block_basis,
    _row_entropies,
    extension_cost,
)
from .povm import Povm, canonical_distribution

# A restart stops once every gradient component is below this,
_GRAD_TOL = 1e-9
# or once an iteration lowers the cost by less than this relative amount.
_OBJECTIVE_TOL = 1e-10
_CONVERGED = ("grad_tol", "objective_tol")
# curvature pairs kept by L-BFGS
_MEMORY = 10
# strong Wolfe constants of the line search, and its trial steps before it gives up
_C1, _C2 = 1e-4, 0.9
_LINE_SEARCH_TRIALS = 20


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20
    max_iters: int = 2000  # L-BFGS iterations per restart
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("counts must be positive")


@dataclass(frozen=True, slots=True)
class RestartRecord:
    """How one restart of the search ran; scalars only."""

    start: str  # "default" for restart 0, "seed+k" for restart k >= 1
    value: float  # cost at the final point
    grad_norm: float  # largest gradient component there
    iterations: int
    evaluations: int
    stop: str  # "grad_tol", "objective_tol", "max_iters" or "line_search"


@dataclass(frozen=True)
class CostReport:
    e_used: int
    best_cost: float
    best_extension: NaimarkExtension
    breakdown: ExtensionCostBreakdown
    restarts_run: int
    converged: bool
    history: list = field(default_factory=list)  # per-restart final values
    restarts: tuple = ()  # one RestartRecord per restart; none without completion freedom


def _search_space(P: Povm, e: int) -> tuple[np.ndarray, np.ndarray]:
    """B (m x r) and the default completion's Q0 (r x n), with X0 = B Q0."""
    L0 = _default_block_basis(P, e)  # raises on capacity d*e < m
    U, s, Vh = np.linalg.svd(L0[: P.m, P.d :], full_matrices=False)
    r = P.m - P.d
    return U[:, :r] * s[:r], Vh[:r]


def _start_points(Q0: np.ndarray, cfg: OptimizerConfig) -> list[np.ndarray]:
    """Q0, then for restart k >= 1 a complex Gaussian Z drawn with seed cfg.seed + k."""
    starts = [Q0]
    for k in range(1, cfg.restarts):
        rng = np.random.default_rng(cfg.seed + k)
        starts.append(rng.standard_normal(Q0.shape) + 1j * rng.standard_normal(Q0.shape))
    return starts


def _polar(Z: np.ndarray):
    """Q = polar(Z) for a stack Z (R, r, n); also U and sigma of Z = U sigma W^dag."""
    U, sigma, Wh = np.linalg.svd(Z, full_matrices=False)
    return U @ Wh, U, sigma


def _cost_and_grad(Z, M, B, weights, d, e):
    """Weighted row entropy at Q = polar(Z) for each Z of the stack (R, r, n), and its gradient.

    The gradient G (R, r, n) gives df = Re sum(conj(G) dZ): Re G and Im G
    are the derivatives in Re Z and Im Z. Every start of the stack is
    computed by the same operations whatever the stack size, so a start's
    values do not depend on which other starts share its stack.
    """
    Q, U, sigma = _polar(Z)
    rows = np.concatenate([np.broadcast_to(M, (len(Z), *M.shape)), B @ Q], axis=2)
    S, Gamma = _row_entropies(rows, d, e, grad=True)
    GQ = B.conj().T @ (weights[:, None] * Gamma[..., d:])
    # adjoint of the polar map with H = U sigma U^dag:
    # Gamma_Z = K Q + H^-1 GQ (I - Q^dag Q), where H K + K H = R - R^dag
    Uh = U.conj().mT
    R = GQ @ Q.conj().mT
    C = Uh @ (R - R.conj().mT) @ U
    K = U @ (C / (sigma[:, :, None] + sigma[:, None, :])) @ Uh
    GZ = K @ Q + ((U / sigma[:, None, :]) @ Uh) @ (GQ - R @ Q)
    # a per-row reduction: a matrix-vector product rounds differently with the stack size
    return (S.reshape(len(Z), -1) * weights).sum(axis=1), 2 * GZ


def _direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g by the two-loop recursion (Nocedal & Wright alg. 7.4), H0 = (s.y / y.y) I."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * (y @ y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return -q


def _cubic_min(a0, f0, g0, a1, f1, g1) -> float:
    """Minimizer of the cubic through (a0, f0) and (a1, f1) with slopes g0 and g1.

    Nocedal & Wright eq. 3.59, kept to the middle 80% of the interval;
    the midpoint where the cubic has no such minimizer.
    """
    d1 = g0 + g1 - 3 * (f0 - f1) / (a0 - a1)
    rad = d1 * d1 - g0 * g1
    if rad >= 0:
        d2 = math.copysign(math.sqrt(rad), a1 - a0)
        den = g1 - g0 + 2 * d2
        if den:
            a = a1 - (a1 - a0) * (g1 + d2 - d1) / den
            margin = 0.1 * abs(a1 - a0)
            if min(a0, a1) + margin <= a <= max(a0, a1) - margin:
                return a
    return 0.5 * (a0 + a1)


def _wolfe(x, f0, slope0, d, step):
    """Strong-Wolfe line search along the descent direction d (Nocedal & Wright alg. 3.5, 3.6).

    Yields each trial point x + step d and receives (f, g) there. lo is the
    best step so far that meets the sufficient-decrease condition, hi the
    other end of the bracket once there is one: until then the step doubles,
    after it a safeguarded cubic step zooms in. Returns the number of trials
    and the accepted (x, f, g), or None after _LINE_SEARCH_TRIALS trials.
    """
    lo, hi = (0.0, f0, slope0), None
    for trial in range(1, _LINE_SEARCH_TRIALS + 1):
        xa = x + step * d
        f, g = yield xa
        slope = float(g @ d)
        if f > f0 + _C1 * step * slope0 or f >= lo[1]:
            hi = (step, f, slope)
        elif abs(slope) <= -_C2 * slope0:
            return trial, (xa, f, g)
        else:
            if slope * (hi[0] - lo[0] if hi else 1.0) >= 0:
                hi = lo
            lo = (step, f, slope)
        step = 2 * step if hi is None else _cubic_min(*lo, *hi)
    return _LINE_SEARCH_TRIALS, None


def _lbfgs(x: np.ndarray, max_iters: int):
    """L-BFGS from x as a generator: yields each trial point and receives (f, g) there.

    The first step after an empty memory is tried at 1/||d||, later ones
    at 1. The stopping tests are those of L-BFGS-B. A failed line search
    empties the memory and tries steepest descent once before the restart
    stops. Returns (x, f, grad_norm, iterations, evaluations, stop) at the
    last accepted point.
    """
    f, g = yield x
    evaluations, iterations = 1, 0
    pairs = deque(maxlen=_MEMORY)  # (s, y, 1 / s.y)
    grad_norm = float(np.abs(g).max())
    stop = "grad_tol" if grad_norm <= _GRAD_TOL else None
    while stop is None:
        d = _direction(g, pairs)
        slope = float(g @ d)
        step = 1.0 if pairs else 1.0 / math.sqrt(d @ d)
        trials, point = (yield from _wolfe(x, f, slope, d, step)) if slope < 0 else (0, None)
        evaluations += trials
        if point is None:
            if pairs:
                pairs.clear()
                continue
            stop = "line_search"
            break
        iterations += 1
        x_new, f_new, g_new = point
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > np.finfo(float).eps * (y @ y):
            pairs.append((s, y, 1.0 / sy))
        x, f, g, f_old = x_new, f_new, g_new, f
        grad_norm = float(np.abs(g).max())
        if grad_norm <= _GRAD_TOL:
            stop = "grad_tol"
        elif f_old - f <= _OBJECTIVE_TOL * max(abs(f_old), abs(f), 1.0):
            stop = "objective_tol"
        elif iterations >= max_iters:
            stop = "max_iters"
    return x, f, grad_norm, iterations, evaluations, stop


def _search(M, B, weights, d, e, starts, max_iters: int) -> list[tuple]:
    """One L-BFGS per complex start Z (r, n), all run in lockstep.

    A point is Z packed as a real vector, real and imaginary parts
    interleaved. Each round stacks the pending point of every start still
    running and evaluates the stack in one call of _cost_and_grad; a
    finished start leaves the stack. Returns each start's _lbfgs result,
    in the order of starts.
    """
    r, n = starts[0].shape
    runs = [_lbfgs(x, max_iters) for x in np.stack(starts).view(float).reshape(len(starts), -1)]
    pending = {k: next(run) for k, run in enumerate(runs)}
    results = [None] * len(runs)
    while pending:
        live = list(pending)
        X = np.stack([pending[k] for k in live])
        F, G = _cost_and_grad(X.view(complex).reshape(len(X), r, n), M, B, weights, d, e)
        for k, f, g in zip(live, F, G.view(float).reshape(len(X), -1)):
            try:
                pending[k] = runs[k].send((float(f), g))
            except StopIteration as done:
                results[k] = done.value
                del pending[k]
    return results


def minimize(P: Povm, e: int, cfg: OptimizerConfig = OptimizerConfig()) -> CostReport:
    """Multi-restart minimization of extension cost at fixed ancilla dimension.

    Restart k >= 1 draws its complex Gaussian start from a generator seeded
    with cfg.seed + k; ties between restarts resolve to the lowest index.
    The report keeps a RestartRecord of how each restart ran.
    A von Neumann measurement (m = d, so r = 0) leaves the firing rows no
    completion freedom: its single completion is evaluated once.
    """
    weights = canonical_distribution(P)
    d, m = P.d, P.m
    B, Q = _search_space(P, e)
    r, n = Q.shape  # n >= r by the capacity d*e >= m
    history, converged, records = [], True, ()
    if r:
        runs = _search(P.matrix, B, weights, d, e, _start_points(Q, cfg), cfg.max_iters)
        records = tuple(
            RestartRecord("default" if k == 0 else f"seed+{k}", *run[1:])
            for k, run in enumerate(runs)
        )
        history = [rec.value for rec in records]
        best = history.index(min(history))
        converged = records[best].stop in _CONVERGED
        Q = _polar(runs[best][0].view(complex).reshape(1, r, n))[0][0]

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
        restarts=records,
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
