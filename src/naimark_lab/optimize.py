"""Minimization of extension cost over the completion freedom.

Only the m firing rows [M | X] carry cost, and their completion part is
X = B Q, where B B^dag = I - M M^dag has rank r = m - d and Q is an
r x d(e-1) matrix with orthonormal rows: a point on a Stiefel manifold.
The search runs over an unconstrained complex Z with Q = polar(Z), by
L-BFGS on the weighted row entropies and their analytic gradient, chained
through the polar map. A row's reduced state is its element block's share
M_nu^T M_nu^*, fixed for the whole search and formed once per stack, plus
its completion blocks' share X_nu^T X_nu^*; an evaluation forms only the
latter, and differentiates only in X. Each L-BFGS run keeps its curvature
pairs in the compact form of Byrd, Nocedal & Schnabel, in a window that
slides along buffers twice the memory long, so an iteration costs the same
number of array operations at any memory size. All restarts run in
lockstep: each is one generator, its line search included, that yields its
next trial point, and one batched evaluation serves every restart still
running. Each start carries its own chart (M, B, weights), so one stack
also holds the restarts of many POVMs of one shape (minimize_many), or of
every ancilla dimension of a sweep, zero-padded to the largest
(minimize_over_e). Restart 0 starts at the default completion, later
restarts at seeded complex Gaussian points, so more restarts are never
worse. Results are upper estimates of the true minimum; the problem is not
convex and no global certificate is claimed.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import _TIE_TOL
from .naimark import (
    ExtensionCostBreakdown,
    NaimarkExtension,
    _chart,
    _extension,
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
# L-BFGS keeps a pair (s, y) only when s.y > _EPS y.y
_EPS = np.finfo(float).eps
# seeded start points kept, one per (seed, shape): a scan's POVMs of one shape share them
_START_CACHE = 256
# POVMs per lockstep stack of minimize_many. Every start of a stack holds its
# L-BFGS state until it stops, so one stack for a whole scan grew the peak RSS
# with the number of POVMs (151 MB against 38 MB at 3000 POVMs, d = 2, m = 3);
# the time per POVM stops falling at about this size.
_MANY_STACK = 128


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20
    max_iters: int = 2000  # L-BFGS iterations per restart
    seed: int = 0

    def __post_init__(self):
        # here, not in the middle of a search: a float raises TypeError, numpy integers pass
        for name in ("restarts", "max_iters", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("counts must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


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
    """The best extension, its cost breakdown and how each restart ran; the rest derives."""

    best_extension: NaimarkExtension
    breakdown: ExtensionCostBreakdown
    restarts: tuple  # one RestartRecord per restart

    @property
    def e_used(self) -> int:
        return self.best_extension.e

    @property
    def best_cost(self) -> float:
        return self.breakdown.total

    @property
    def history(self) -> list[float]:
        return [rec.value for rec in self.restarts]

    @property
    def restarts_run(self) -> int:
        return len(self.restarts)

    @property
    def converged(self) -> bool:
        """Whether the first restart of least value met a tolerance.

        A local statement: that restart stopped at a stationary point of its
        own path, which need not be the global minimum. Of criterion 14's
        250 four-restart searches of 3-outcome qubit POVMs at e = 2, 9 stop
        more than 1e-6 above the exact minimum, and all 9 report converged.
        """
        return min(self.restarts, key=operator.attrgetter("value")).stop in _CONVERGED


def _start_points(Q0: np.ndarray, cfg: OptimizerConfig) -> list[np.ndarray]:
    """Q0, then for restart k >= 1 a complex Gaussian Z drawn with seed cfg.seed + k."""
    return [Q0, *(_seeded_start(cfg.seed + k, Q0.shape) for k in range(1, cfg.restarts))]


@functools.lru_cache(maxsize=_START_CACHE)
def _seeded_start(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """The complex Gaussian start of seed: real parts drawn first, then imaginary; read-only."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Z.flags.writeable = False
    return Z


def _polar(Z: np.ndarray):
    """Q = polar(Z) for a stack Z (R, r, n); also U, sigma and W^dag of Z = U sigma W^dag."""
    U, sigma, Wh = np.linalg.svd(Z, full_matrices=False)
    return U @ Wh, U, sigma, Wh


class _Charts(NamedTuple):
    """The charts of a stack of starts, one per start.

    Start k searches the completion X = B[k] Q beside the element rows
    M_k, its row entropies weighted by weights[k]. M_k enters only through
    two constants of the search: rho0[k], each row's element-block share
    of its reduced state, and pull[k], which carries the gradient in X
    back to Q. Every Z of the stack has the stack's width n; where pad is
    given, it marks the columns of each start past its own d(e - 1), which
    stay zero.
    """

    B: np.ndarray  # (R, m, r)
    weights: np.ndarray  # (R, m)
    rho0: np.ndarray  # (R, m, d, d): M_nu^T M_nu^* of each row nu
    pull: np.ndarray  # (R, r, m): -2 B^dag with column nu scaled by weights[nu]
    pad: np.ndarray | None  # (R, 1, n) bool; None when no start is padded

    def take(self, idx: list[int]) -> _Charts:
        """The charts of the starts idx, listed in ascending order: all R of them is the stack itself."""
        if len(idx) == len(self.B):
            return self
        return _Charts(*(None if a is None else a[idx] for a in self))


def _cost_and_grad(Z, charts: _Charts, d, e):
    """Weighted row entropy at Q = polar(Z) for each Z of the stack (R, r, n), and its gradient.

    Start k is evaluated on charts[k], with rows [M | X] of d*e entries
    and X = B Q. The reduced state of row nu is rho0_nu + X_nu^T X_nu^*,
    X_nu its (e - 1, d) reshape; the element block is never formed. The
    gradient G (R, r, n) gives df = Re sum(conj(G) dZ): Re G and Im G are
    the derivatives in Re Z and Im Z; it is zero on padded columns, so a
    padded start never leaves its own ancilla dimension. Every start of the
    stack is computed by the same per-row and per-matrix operations whatever
    the stack holds, so a start's values do not depend on the other starts.
    """
    B, weights, rho0, pull, pad = charts
    Q, U, sigma, Wh = _polar(Z)
    R, m = weights.shape
    n = Z.shape[2]
    X = (B @ Q).reshape(R * m, e - 1, d)
    S, V, g = _row_entropies(rho0.reshape(R * m, d, d) + X.mT @ X.conj(), grad=True)
    # dS_nu = -Tr(V diag(g) V^dag drho) with drho = dX^T X^* + X^T dX^*: the gradient
    # in X_nu is -X_nu V^* diag(g) V^T; pull holds the sign, the weights and the factor 2
    # that makes Re G and Im G the derivatives in Re Z and Im Z
    GQ = pull @ ((X @ V.conj() * g[:, None, :]) @ V.mT).reshape(R, m, n)
    # adjoint of the polar map, in the frame of Z = U sigma W^dag: with
    # Gt = U^dag GQ and Rt = Gt W, row i of the bracket divided by sigma_i,
    # G_Z = U [(Rt - Rt^dag) / (sigma_i + sigma_j) W^dag + (Gt - Rt W^dag) / sigma]
    Gt = U.conj().mT @ GQ
    Rt = Gt @ Wh.conj().mT
    si = sigma[:, :, None]
    K = (Rt - Rt.conj().mT) / (si + sigma[:, None, :])
    GZ = U @ (K @ Wh + (Gt - Rt @ Wh) / si)
    if pad is not None:
        # zero already, up to rounding: an empty ancilla level enters the entropy at second order
        np.copyto(GZ, 0, where=pad)
    # a per-row reduction: a matrix-vector product rounds differently with the stack size
    return (S.reshape(R, m) * weights).sum(axis=1), GZ


class _Memory:
    """The last _MEMORY curvature pairs (s, y) of one L-BFGS run, in compact form.

    With S and Y the pairs as rows, oldest first, R = triu(S Y^T) and
    D = diag(s.y), the inverse Hessian estimate is (Byrd, Nocedal &
    Schnabel, Math. Programming 63, 1994)
        H = gamma I + [S^T  gamma Y^T] N [S; gamma Y],
        N = [[R^-T (D + gamma Y Y^T) R^-1, -R^-T], [-R^-1, 0]],
    with gamma = s.y / y.y of the newest pair. The memory keeps R^-1, Y Y^T
    and D up to date pair by pair, so a direction costs a fixed number of
    array operations at any number of pairs. The pairs are rows o .. o + k - 1
    of buffers 2 _MEMORY long: dropping the oldest moves o, and the window is
    copied to the front only at the buffers' end. R^-1 stays zero below the diagonal.
    """

    __slots__ = ("SY", "Rinv", "YY", "D", "o", "k", "gamma")

    def __init__(self, n: int):
        self.SY = np.empty((2, 2 * _MEMORY, n))  # S, then Y
        self.Rinv = np.zeros((2 * _MEMORY, 2 * _MEMORY))  # upper triangular
        self.YY = np.empty((2 * _MEMORY, 2 * _MEMORY))
        self.D = np.empty(2 * _MEMORY)
        self.o = self.k = 0  # pairs held, in rows o .. o + k - 1; gamma is set by append

    def clear(self) -> None:
        self.o = self.k = 0

    def append(self, s: np.ndarray, y: np.ndarray, sy: float, yy: float) -> None:
        """Add the pair (s, y) with s.y = sy > 0 and y.y = yy, dropping the oldest when full."""
        o, k = self.o, self.k
        if k == _MEMORY:
            # drop the oldest pair: the trailing block of a triangular
            # matrix's inverse is the inverse of its trailing block
            o, k = o + 1, k - 1
            if o + k == 2 * _MEMORY:
                w = slice(o, o + k)
                self.SY[:, :k] = self.SY[:, w]
                self.Rinv[:k, :k] = self.Rinv[w, w]
                self.YY[:k, :k] = self.YY[w, w]
                self.D[:k] = self.D[w]
                o = 0
        w, j = slice(o, o + k), o + k
        S, Y = self.SY[:, w]
        # R gains the column S y and the corner sy; R^-1 the column -R^-1 (S y) / sy
        self.Rinv[w, j] = self.Rinv[w, w].dot(S.dot(y)) / -sy
        self.Rinv[j, j] = 1.0 / sy
        self.YY[w, j] = self.YY[j, w] = Y.dot(y)
        self.YY[j, j] = yy
        self.D[j] = sy
        self.SY[0, j], self.SY[1, j] = s, y
        self.o, self.k, self.gamma = o, k + 1, sy / yy

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g = gamma (Y^T u - g) - S^T v, or -g with no pairs.

        Here u = R^-1 S g and v = R^-T ((D + gamma Y Y^T) u - gamma Y g).
        """
        if not self.k:
            return -g
        w = slice(self.o, self.o + self.k)
        S, Y = self.SY[:, w]
        Rinv = self.Rinv[w, w]
        gamma = self.gamma
        u = Rinv.dot(S.dot(g))
        v = (self.D[w] * u + gamma * (self.YY[w, w].dot(u) - Y.dot(g))).dot(Rinv)
        return gamma * (u.dot(Y) - g) - v.dot(S)


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


def _lbfgs(x: np.ndarray, max_iters: int):
    """L-BFGS from x as a generator: yields each trial point and receives (f, g) there.

    Each iteration's strong-Wolfe line search (Nocedal & Wright alg. 3.5,
    3.6) runs inline: lo is the best step so far that meets the sufficient-
    decrease condition, hi the other end of the bracket once there is one;
    until then the step doubles, after it a safeguarded cubic step zooms in.
    The first step after an empty memory is tried at 1/||d||, later ones at
    1. A search that fails (no descent, or _LINE_SEARCH_TRIALS trials)
    empties the memory and tries steepest descent once before the restart
    stops. The stopping tests are those of L-BFGS-B. Returns (x, f,
    grad_norm, iterations, evaluations, stop) at the last accepted point.
    """
    f, g = yield x
    evaluations, iterations = 1, 0
    memory = _Memory(len(x))
    grad_norm = float(np.abs(g).max(initial=0.0))
    stop = "grad_tol" if grad_norm <= _GRAD_TOL else None
    while stop is None:
        d = memory.direction(g)
        slope0 = float(g.dot(d))
        step = 1.0 if memory.k else 1.0 / math.sqrt(d.dot(d))
        lo, hi = (0.0, f, slope0), None
        for _ in range(_LINE_SEARCH_TRIALS if slope0 < 0 else 0):
            x_new = x + step * d
            f_new, g_new = yield x_new
            evaluations += 1
            slope = float(g_new.dot(d))
            if f_new > f + _C1 * step * slope0 or f_new >= lo[1]:
                hi = (step, f_new, slope)
            elif abs(slope) <= -_C2 * slope0:
                break
            else:
                if slope * (hi[0] - lo[0] if hi else 1.0) >= 0:
                    hi = lo
                lo = (step, f_new, slope)
            step = 2 * step if hi is None else _cubic_min(*lo, *hi)
        else:  # no step met the strong Wolfe conditions
            if memory.k:
                memory.clear()
                continue
            stop = "line_search"
            break
        iterations += 1
        s, y = x_new - x, g_new - g
        sy, yy = float(s.dot(y)), float(y.dot(y))
        if sy > _EPS * yy:
            memory.append(s, y, sy, yy)
        x, f, g, f_old = x_new, f_new, g_new, f
        grad_norm = float(np.abs(g).max(initial=0.0))
        if grad_norm <= _GRAD_TOL:
            stop = "grad_tol"
        elif f_old - f <= _OBJECTIVE_TOL * max(abs(f_old), abs(f), 1.0):
            stop = "objective_tol"
        elif iterations >= max_iters:
            stop = "max_iters"
    return x, f, grad_norm, iterations, evaluations, stop


def _search(charts: _Charts, starts, d, e, max_iters: int) -> list[tuple]:
    """One L-BFGS per complex start Z (r, n), each on its own chart, all run in lockstep.

    A point is Z packed as a real vector, real and imaginary parts
    interleaved. Each round stacks the pending point of every start still
    running and evaluates the stack in one call of _cost_and_grad; a
    finished start leaves the stack. Returns each start's _lbfgs result,
    in the order of starts, with its final point as the complex Z (r, n).
    """
    starts = np.stack(starts)
    R, r, n = starts.shape
    runs = [_lbfgs(x, max_iters) for x in starts.view(float).reshape(R, 2 * r * n)]
    live, pending = list(range(R)), [next(run) for run in runs]
    results = [None] * R
    stack = charts
    while live:
        F, G = _cost_and_grad(np.array(pending).view(complex).reshape(len(live), r, n), stack, d, e)
        running, pending = [], []
        for k, f, g in zip(live, F.tolist(), G.view(float).reshape(len(live), 2 * r * n)):
            try:
                pending.append(runs[k].send((f, g)))
                running.append(k)
            except StopIteration as done:
                results[k] = (done.value[0].view(complex).reshape(r, n), *done.value[1:])
        if len(running) != len(live):  # a start finished: take the charts of the rest
            stack = charts.take(running)
        live = running
    return results


def _report(P: Povm, e: int, B, runs) -> CostReport:
    """The CostReport of P at e from the _search results of its restarts.

    B is P's chart at e; a run's Z may be zero-padded past P's own
    d(e - 1) columns, and only those are kept.
    """
    Z = min(runs, key=operator.itemgetter(1))[0]  # the first restart of least value
    ext = _extension(P, e, B @ _polar(Z[None, :, : P.d * (e - 1)])[0][0])
    records = tuple(
        RestartRecord("default" if k == 0 else f"seed+{k}", *run[1:]) for k, run in enumerate(runs)
    )
    return CostReport(ext, extension_cost(ext, canonical_distribution(P)), records)


def _stack(problems: list[tuple[Povm, int]], spaces, cfg: OptimizerConfig):
    """Charts and start points of every restart of every (P, e), all of one (d, m).

    spaces holds each problem's (B, Q0). Problem i's restarts are starts
    i*R .. i*R + R - 1, each on its problem's chart, with its own default
    start and seeds. The stack is in the frame of the largest e, e_top: a
    problem at a smaller e has its Z zero-padded to e_top's width. Each
    chart's constants are formed once per problem, before the repeat.
    Returns (charts, starts (len(problems)*R, r, n), e_top).
    """
    d, R = problems[0][0].d, cfg.restarts
    e_top = max(e for _, e in problems)
    n = d * (e_top - 1)
    starts = np.zeros((len(problems) * R, problems[0][0].m - d, n), dtype=complex)
    for i, (_, Q) in enumerate(spaces):
        starts[i * R : (i + 1) * R, :, : Q.shape[1]] = _start_points(Q, cfg)

    M = np.stack([P.matrix for P, _ in problems])
    B = np.stack([space[0] for space in spaces])
    weights = np.stack([canonical_distribution(P) for P, _ in problems])
    widths = [Q.shape[1] for _, Q in spaces]
    per_problem = _Charts(
        B,
        weights,
        M[..., :, None] * M[..., None, :].conj(),
        B.conj().mT * (-2 * weights[:, None, :]),
        None if min(widths) == n else np.stack([np.arange(n) >= w for w in widths])[:, None],
    )
    # each problem's chart repeated for its R restarts
    charts = _Charts(*(None if a is None else a.repeat(R, axis=0) for a in per_problem))
    return charts, starts, e_top


def _minimize_stack(problems: list[tuple[Povm, int]], cfg: OptimizerConfig) -> list[CostReport]:
    """One report per (P, e) of problems, in order; all of one (d, m), searched as one stack."""
    spaces = [_chart(P, e)[1:] for P, e in problems]
    charts, starts, e_top = _stack(problems, spaces, cfg)
    runs = _search(charts, starts, problems[0][0].d, e_top, cfg.max_iters)
    R = cfg.restarts
    return [
        _report(P, e, spaces[i][0], runs[i * R : (i + 1) * R]) for i, (P, e) in enumerate(problems)
    ]


def minimize(P: Povm, e: int, cfg: OptimizerConfig = OptimizerConfig()) -> CostReport:
    """Multi-restart minimization of extension cost at fixed ancilla dimension.

    Restart k >= 1 draws its complex Gaussian start from a generator seeded
    with cfg.seed + k; ties between restarts resolve to the lowest index.
    The report keeps a RestartRecord of how each restart ran.
    A von Neumann measurement (m = d, so r = 0) leaves the firing rows no
    completion freedom: each restart stops at grad_tol after one evaluation.
    """
    return _minimize_stack([(P, e)], cfg)[0]


def minimize_many(povms, e: int, cfg: OptimizerConfig = OptimizerConfig()) -> list[CostReport]:
    """minimize(P, e, cfg) for each P of povms, bit for bit, in lockstep stacks per (d, m).

    A start's path does not depend on its stack, so each report equals the
    one minimize returns; the stack only shares the per-round overhead
    among all restarts of the POVMs of a shape, at most _MANY_STACK POVMs
    to a stack. Reports keep input order.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, P in enumerate(povms):
        groups.setdefault((P.d, P.m), []).append(i)
    reports = [None] * len(povms)
    for idx in groups.values():
        for lo in range(0, len(idx), _MANY_STACK):
            chunk = idx[lo : lo + _MANY_STACK]
            for i, rep in zip(chunk, _minimize_stack([(povms[i], e) for i in chunk], cfg)):
                reports[i] = rep
    return reports


def minimize_over_e(
    P: Povm,
    e_min: int | None = None,
    e_max: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CostReport:
    """Sweep the ancilla dimension and keep the cheapest report.

    All restarts of every e run in one lockstep stack, in the frame of
    e_max: each e keeps its own default start and seeds, and its Z is
    zero-padded to e_max's width. A one-point sweep is minimize(P, e, cfg)
    bit for bit. Below e_max the padding rounds differently: each e's cost
    stays within 1e-12 of a standalone minimize (4.5e-15 at worst over 360
    measured). Costs within _TIE_TOL (1e-14) of the sweep's minimum tie,
    since they round apart; the smallest e among them is kept.

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
    reports = _minimize_stack([(P, e) for e in range(e_min, e_max + 1)], cfg)
    low = min(rep.best_cost for rep in reports)
    return next(rep for rep in reports if rep.best_cost <= low + _TIE_TOL)


def normalized_cost(report: CostReport) -> float:
    """Cost per qubit of system space: best_cost / log2(d), d of the report's extension."""
    d = report.best_extension.d
    if d < 2:
        raise ValueError("normalized cost needs d >= 2")
    return report.best_cost / np.log2(d)
