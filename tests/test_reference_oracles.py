"""Vectorized routines against per-element loop references.

Each reference is the straightforward loop the library computes in one
array step; they must agree to a tolerance set by the float64 rounding of
the changed summation order. The d = 2 zero-cost decision is checked
against a backtracking perfect-matching search, which it must equal, the
compact L-BFGS memory against the two-loop recursion, the completion
chart, bit for bit, against the de x de Gram-Schmidt basis it replaced, and
the search's cost and gradient against the whole-row form that forms every
block of every row. The lockstep search must equal, bit for bit, the one it
replaced: a memory that shifts its arrays to drop a pair, a line search in
a generator of its own, and a dict of pending points.
"""

import math
from collections import deque

import numpy as np
import pytest

from naimark_lab import (
    NaimarkExtension,
    OptimizerConfig,
    Povm,
    best_bound,
    bound_dimension,
    bound_element_count,
    bound_prop5,
    gram_schmidt_complete,
    construct_default,
    merge_parallel,
    prop5_extension,
    random_haar,
    trine,
    validate_extension,
    zero_cost_decide_d2,
)
from naimark_lab.bounds import _necessary_margins, _orthogonal
from naimark_lab.naimark import _chart, _complete_rows
from naimark_lab.optimize import (
    _C1,
    _C2,
    _EPS,
    _GRAD_TOL,
    _LINE_SEARCH_TRIALS,
    _MEMORY,
    _OBJECTIVE_TOL,
    _Memory,
    _cost_and_grad,
    _cubic_min,
    _polar,
    _search,
    _stack,
)
from naimark_lab.povm import ZERO_NORM_SQ
from conftest import haar_unitary, kpom, n_d3, pairing_is_valid, qubit_sic, two_basis_mixture
from test_optimize import STACKS, stack


def mgs_complete(cols):
    """Modified Gram-Schmidt completion against the standard basis in index order."""
    n, k = cols.shape
    basis = list(cols.T)
    for j in range(n):
        if len(basis) == n:
            break
        c = np.zeros(n, dtype=complex)
        c[j] = 1.0
        for b in basis:
            c = c - b * (b.conj() @ c)
        nrm = np.linalg.norm(c)
        if nrm < 1e-8:
            continue
        c = c / nrm
        for b in basis:
            c = c - b * (b.conj() @ c)
        basis.append(c / np.linalg.norm(c))
    out = np.array(basis).T
    out[:, :k] = cols
    return out


def padded(P, e):
    cols = np.zeros((P.d * e, P.d), dtype=complex)
    cols[: P.m] = P.matrix
    return cols


def gs_povms():
    """(POVM, name, e) for the completion inputs: every e in (2, 3, 6) with capacity."""
    rng = np.random.default_rng(8)
    named = [(Povm(np.eye(2, dtype=complex)), "von Neumann d=2"), (Povm(np.eye(3, dtype=complex)), "von Neumann d=3")]
    named += [(Povm(haar_unitary(3, rng)), "Haar basis d=3"), (trine(), "trine"), (kpom(), "kpom")]
    named += [(random_haar(d, m, s), f"haar d={d} m={m}") for d, m, s in [(2, 3, 1), (2, 4, 2), (3, 5, 3)]]
    return [(P, name, e) for P, name in named for e in (2, 3, 6) if P.d * e >= P.m]


def gs_inputs():
    return [pytest.param(padded(P, e), id=f"{name} e={e}".replace(" ", "_")) for P, name, e in gs_povms()]


@pytest.mark.parametrize("cols", gs_inputs())
def test_gram_schmidt_complete_matches_modified_gram_schmidt(cols):
    out = gram_schmidt_complete(cols)
    assert out.shape == (cols.shape[0],) * 2
    assert np.array_equal(out[:, : cols.shape[1]], cols)
    assert np.abs(out - mgs_complete(cols)).max() <= 1e-14


def test_gram_schmidt_skip_path_is_exact_on_von_neumann():
    # e_0 and e_1 lie in the span of the input and are skipped; the
    # completion is then e_2, e_3, ... in index order, exactly
    cols = padded(Povm(np.eye(2, dtype=complex)), 3)
    assert np.array_equal(gram_schmidt_complete(cols), np.eye(6))
    assert np.array_equal(mgs_complete(cols), np.eye(6))


@pytest.mark.parametrize("cols", gs_inputs())
def test_complete_rows_keeps_the_rows_and_is_unitary(cols):
    W = cols.conj().T
    U = _complete_rows(W)
    assert np.array_equal(U[: W.shape[0]], W)
    assert np.abs(U @ U.conj().T - np.eye(U.shape[0])).max() <= 1e-12


def test_complete_rows_of_a_full_unitary_is_that_unitary():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 6):
        W = haar_unitary(n, rng)
        assert np.array_equal(_complete_rows(W), W)


def default_block_basis(P, e):
    """The de x de default basis: the zero-padded element block completed in index order."""
    return gram_schmidt_complete(padded(P, e))


def chart_grid():
    """(P, e): 20 Haar POVMs at each d = 2..4, m = d+1..3d+1, e = ceil(m/d)..m+1; the trine at e = 2..4."""
    for d in (2, 3, 4):
        for m in range(d + 1, 3 * d + 2):
            for e in range(-(-m // d), m + 2):
                for seed in range(20):
                    yield random_haar(d, m, seed), e
    for e in (2, 3, 4):
        yield trine(), e


def test_chart_matches_the_default_block_basis():
    # X0 is the basis's completion block on the firing rows, B and Q0 its thin
    # SVD, and the default extension keeps the basis's firing rows
    count = 0
    for P, e in chart_grid():
        L = default_block_basis(P, e)
        U, s, Vh = np.linalg.svd(L[: P.m, P.d :], full_matrices=False)
        r = P.m - P.d
        X0, B, Q0 = _chart(P, e)
        assert np.array_equal(X0, L[: P.m, P.d :]), (P.d, P.m, e)
        assert np.array_equal(B, U[:, :r] * s[:r]), (P.d, P.m, e)
        assert np.array_equal(Q0, Vh[:r]), (P.d, P.m, e)
        assert np.array_equal(construct_default(P, e).basis[: P.m], L[: P.m]), (P.d, P.m, e)
        count += 1
    assert count == 2803


def validate_extension_loop(N, P):
    """validate_extension's (ok, unitarity, form) residuals, one row at a time."""
    B = N.basis
    de = N.d * N.e
    unit = float(np.abs(B @ B.conj().T - np.eye(de)).max())
    form = 0.0
    for nu in range(de):
        v0 = B[nu, : N.d]
        if nu < N.m:
            k = P.matrix[nu]
            ip = np.vdot(k, v0)
            phase = ip / abs(ip) if abs(ip) > ZERO_NORM_SQ else 1.0
            form = max(form, float(np.linalg.norm(v0 - phase * k)))
        else:
            form = max(form, float(np.linalg.norm(v0)))
    return unit <= 1e-9 and form <= 1e-9, unit, form


def extension_cases():
    """Default and prop5 extensions of the completion POVMs, each also rephased,
    with two rows swapped and with one row stretched."""
    rng = np.random.default_rng(12)
    cases = []
    for P, _, e in gs_povms():
        exts = [construct_default(P, e)]
        exts += [prop5_extension(P, k / np.linalg.norm(k))[0] for k in P.matrix[:2]]
        for N in exts:
            de = N.d * N.e
            swapped = N.basis.copy()
            swapped[[0, de - 1]] = swapped[[de - 1, 0]]
            stretched = N.basis.copy()
            stretched[1] *= 1 + 1e-6
            phases = np.exp(2j * np.pi * rng.uniform(size=de))[:, None]
            for basis in (N.basis, phases * N.basis, swapped, stretched):
                cases.append((NaimarkExtension(d=N.d, e=N.e, m=N.m, basis=basis), P))
    return cases


def test_validate_extension_matches_per_row_loop():
    flags = set()
    for N, P in extension_cases():
        rep = validate_extension(N, P)
        ok, unit, form = validate_extension_loop(N, P)
        assert rep.ok == ok
        assert rep.unitarity_residual == unit
        assert abs(rep.form_residual - form) <= 1e-15
        flags.add(ok)
    assert flags == {True, False}


# best_bound's tie rule: the witness is the earliest candidate within this of the minimum
TIE_TOL = 1e-14


def bound_candidates(P, seed=0):
    """best_bound's (name, value) candidates, one bound_prop5 call each, with the per-sample draws."""
    candidates = [("element_count", bound_element_count(P)), ("dimension", bound_dimension(P.d))]
    norms2 = np.einsum("ij,ij->i", P.matrix.conj(), P.matrix).real
    for mu in range(P.m):
        if norms2[mu] >= ZERO_NORM_SQ:
            zeta = P.matrix[mu] / np.sqrt(norms2[mu])
            candidates.append((f"zeta=element_{mu + 1}", bound_prop5(P, zeta)))
    rng = np.random.default_rng(seed)
    for t in range(16):
        z = rng.standard_normal(P.d) + 1j * rng.standard_normal(P.d)
        candidates.append((f"zeta=sample_{t + 1}", bound_prop5(P, z / np.linalg.norm(z))))
    return candidates


def best_bound_loop(P, seed=0):
    """Witness, value and best zeta bound of best_bound, from the candidate loop."""
    candidates = bound_candidates(P, seed)
    value = min(v for _, v in candidates)
    witness = next(name for name, v in candidates if v <= value + TIE_TOL)
    return witness, value, min(v for name, v in candidates if name.startswith("zeta="))


def bound_inputs():
    rng = np.random.default_rng(1)
    out = [trine(), kpom(), qubit_sic(), n_d3(), Povm(np.eye(3, dtype=complex))]
    for d, m in ((2, 3), (2, 4), (3, 4), (3, 5)):
        out += [random_haar(d, m, int(rng.integers(2**32))) for _ in range(10)]
    return out


def test_best_bound_matches_per_candidate_loop():
    for i, P in enumerate(bound_inputs()):
        for seed in (0, 5):
            rep = best_bound(P, seed=seed)
            witness, value, zeta_best = best_bound_loop(P, seed=seed)
            assert rep.witness == witness, i
            assert abs(rep.value - value) <= 1e-15, i
            assert abs(rep.bound_zeta_best - zeta_best) <= 1e-15, i


def test_best_bound_witness_is_earliest_tied_candidate():
    # two elements of one basis give bounds equal in exact arithmetic that
    # round apart; the witness must be the earlier one, whatever the rounding
    tied = 0
    for seed in range(400):
        P = two_basis_mixture(seed)
        rep = best_bound(P)
        names, values = zip(*bound_candidates(P))
        values = np.array(values)
        low = values.min()
        k = names.index(rep.witness)
        assert not (values[:k] <= low + TIE_TOL).any(), seed
        assert values[k] <= low + TIE_TOL, seed
        assert abs(rep.value - low) <= 1e-15, seed
        tied += int((values <= low + TIE_TOL).sum() > 1)
    assert tied >= 350, tied  # 379 of these seeds carry a tie


def margins_loop(P, tol=1e-9):
    """Min eigenvalue of |k_mu><k_mu| + sum of orthogonal partners - r_mu^2 I, one mu at a time."""
    M = P.matrix
    norms = np.linalg.norm(M, axis=1)
    margins = np.empty(P.m)
    for mu in range(P.m):
        lhs = np.outer(M[mu], M[mu].conj())
        for nu in range(P.m):
            if nu != mu and abs(np.vdot(M[mu], M[nu])) <= tol * norms[mu] * norms[nu]:
                lhs = lhs + np.outer(M[nu], M[nu].conj())
        margins[mu] = np.linalg.eigvalsh(lhs - norms[mu] ** 2 * np.eye(P.d)).min()
    return margins


def test_necessary_margins_match_per_element_loop():
    povms = [trine(), kpom(), n_d3()] + [random_haar(3, m, s) for m, s in [(3, 1), (4, 2), (5, 3), (7, 4), (9, 5)]]
    for P in povms:
        got = _necessary_margins(P.matrix, *_orthogonal(P.matrix, 1e-9))
        assert got.shape == (P.m,)
        assert np.abs(got - margins_loop(P)).max() <= 1e-14


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


def decide_d2_matching(P, tol):
    """Zero-cost decision of the merged POVM by a perfect-matching search over compatible pairs."""
    M = merge_parallel(P, tol).matrix
    norms = np.linalg.norm(M, axis=1)
    w = np.einsum("ij,ij->i", M.conj(), M).real
    compat = (np.abs(M.conj() @ M.T) <= tol * np.outer(norms, norms)) & (np.abs(w[:, None] - w) <= tol)
    np.fill_diagonal(compat, False)
    pairing = _find_pairing(compat)
    return ("nonzero" if pairing is None else "zero"), pairing


def basis_union(rng):
    """Union of 1-8 Haar qubit bases, some repeated up to a phase, with rows shuffled.

    Weights are equal, unequal per basis (a valid POVM), or unequal per
    element (equal-weight partners only by chance).
    """
    k = int(rng.integers(1, 9))
    bases = [haar_unitary(2, rng) for _ in range(k)]
    bases += [bases[int(rng.integers(k))] * np.exp(2j * np.pi * rng.random()) for _ in range(int(rng.integers(3)))]
    n = len(bases)
    kind = int(rng.integers(3))
    if kind == 0:
        w = np.full((n, 2), 1 / n)
    elif kind == 1:
        w = np.repeat(rng.dirichlet(np.ones(n))[:, None], 2, axis=1)
    else:
        w = rng.dirichlet(np.ones(n))[:, None] * rng.uniform(0.5, 1.5, (n, 2))
    rows = np.vstack([np.sqrt(p)[:, None] * U for p, U in zip(w, bases)])
    return Povm(rows[rng.permutation(2 * n)])


@pytest.mark.parametrize("tol", [1e-16, 1e-12, 1e-9, 1e-3])
def test_decide_d2_matches_matching_search(tol):
    rng = np.random.default_rng(20)
    if tol < 1e-12:  # below float64 rounding almost no pair passed the partner test: now rejected
        with pytest.raises(ValueError, match="tol must be >= 1e-12"):
            zero_cost_decide_d2(basis_union(rng), tol)
        return
    decisions, checked = [], 0
    for i in range(300):
        P = basis_union(rng)
        cert = zero_cost_decide_d2(P, tol)
        decision, pairing = decide_d2_matching(P, tol)
        assert (cert.decision, cert.pairing) == (decision, pairing), i
        decisions.append(decision)
        # pairing_is_valid checks against the POVM merged at its own 1e-9
        if pairing is not None and np.array_equal(merge_parallel(P, tol).matrix, merge_parallel(P).matrix):
            assert pairing_is_valid(P, cert), i
            checked += 1
    assert decisions.count("nonzero") >= 100, decisions.count("nonzero")
    assert checked >= 150, checked


def two_loop(g, pairs):
    """-H g by the two-loop recursion (Nocedal & Wright alg. 7.4), H0 = (s.y / y.y) I.

    pairs holds (s, y, 1 / s.y), oldest first; H0 takes the newest pair.
    """
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


class ShiftingMemory:
    """The compact memory with its pairs in rows 0 .. k - 1, shifted up one row to drop the oldest."""

    def __init__(self, n):
        self.SY = np.empty((2, _MEMORY, n))  # S, then Y
        self.Rinv = np.zeros((_MEMORY, _MEMORY))  # upper triangular
        self.YY = np.empty((_MEMORY, _MEMORY))
        self.D = np.empty(_MEMORY)
        self.k = 0

    def __len__(self):
        return self.k

    def clear(self):
        self.k = 0

    def append(self, s, y, sy, yy):
        k = self.k
        if k == _MEMORY:
            self.SY[:, :-1] = self.SY[:, 1:]
            self.Rinv[:-1, :-1] = self.Rinv[1:, 1:]
            self.YY[:-1, :-1] = self.YY[1:, 1:]
            self.D[:-1] = self.D[1:]
            k -= 1
        Sy, Yy = self.SY[:, :k] @ y
        self.Rinv[:k, k] = self.Rinv[:k, :k] @ Sy / -sy
        self.Rinv[k, k] = 1.0 / sy
        self.YY[:k, k] = self.YY[k, :k] = Yy
        self.YY[k, k] = yy
        self.D[k] = sy
        self.SY[0, k], self.SY[1, k] = s, y
        self.k = k + 1

    def direction(self, g):
        k = self.k
        if not k:
            return -g
        SY = self.SY[:, :k]
        Rinv = self.Rinv[:k, :k]
        gamma = self.D[k - 1] / self.YY[k - 1, k - 1]
        Sg, Yg = SY @ g
        u = Rinv @ Sg
        v = (self.D[:k] * u + gamma * (self.YY[:k, :k] @ u - Yg)) @ Rinv
        return gamma * (u @ SY[1] - g) - v @ SY[0]


def wolfe_generator(x, f0, slope0, d, step):
    """The strong-Wolfe search as a generator of its own: returns (trials, (x, f, g) or None)."""
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


def lbfgs_shifting(x, max_iters):
    """L-BFGS on a ShiftingMemory, one wolfe_generator per iteration."""
    f, g = yield x
    evaluations, iterations = 1, 0
    memory = ShiftingMemory(len(x))
    grad_norm = float(np.abs(g).max(initial=0.0))
    stop = "grad_tol" if grad_norm <= _GRAD_TOL else None
    while stop is None:
        d = memory.direction(g)
        slope = float(g @ d)
        step = 1.0 if memory else 1.0 / math.sqrt(d @ d)
        trials, point = (yield from wolfe_generator(x, f, slope, d, step)) if slope < 0 else (0, None)
        evaluations += trials
        if point is None:
            if memory:
                memory.clear()
                continue
            stop = "line_search"
            break
        iterations += 1
        x_new, f_new, g_new = point
        s, y = x_new - x, g_new - g
        sy, yy = float(s @ y), float(y @ y)
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


def search_shifting(charts, starts, d, e, max_iters):
    """The lockstep search over lbfgs_shifting runs, pending points kept in a dict by start."""
    starts = np.stack(starts)
    R, r, n = starts.shape
    runs = [lbfgs_shifting(x, max_iters) for x in starts.view(float).reshape(R, 2 * r * n)]
    pending = {k: next(run) for k, run in enumerate(runs)}
    results = [None] * R
    live = []
    while pending:
        if len(live) != len(pending):
            live = list(pending)
            stack = charts.take(live)
        X = np.stack(list(pending.values()))
        F, G = _cost_and_grad(X.view(complex).reshape(len(X), r, n), stack, d, e)
        for k, f, g in zip(live, F, G.view(float).reshape(len(X), 2 * r * n)):
            try:
                pending[k] = runs[k].send((float(f), g))
            except StopIteration as done:
                results[k] = (done.value[0].view(complex).reshape(r, n), *done.value[1:])
                del pending[k]
    return results


def assert_same_search(problems, cfg):
    """_search equals search_shifting bit for bit on the stack of problems; returns its runs."""
    charts, starts, e = stack(problems, cfg)
    d = problems[0][0].d
    runs = _search(charts, starts, d, e, cfg.max_iters)
    refs = search_shifting(charts, starts, d, e, cfg.max_iters)
    assert len(runs) == len(refs) == len(starts)
    for k, (run, ref) in enumerate(zip(runs, refs)):
        assert np.array_equal(run[0], ref[0]), k
        assert run[1:] == ref[1:], k
    return runs


@pytest.mark.parametrize("name", list(STACKS))
def test_search_matches_the_shifting_memory_search(name):
    assert_same_search(STACKS[name](), OptimizerConfig(restarts=8, seed=3))


def test_search_matches_the_oracle_past_window_copy_backs(monkeypatch):
    # 153 appends among the four restarts: the window reaches the end of its buffers 9 times
    copy_backs = []
    append = _Memory.append

    def counting_append(self, *pair):
        o = self.o
        append(self, *pair)
        copy_backs.append(self.o < o)

    monkeypatch.setattr(_Memory, "append", counting_append)
    runs = assert_same_search([(random_haar(3, 5, 7), 3)], OptimizerConfig(restarts=4))
    assert [run[3] for run in runs] == [24, 54, 31, 44]
    assert (len(copy_backs), sum(copy_backs)) == (153, 9)


def test_compact_memory_matches_two_loop():
    # after each of 0 .. 45 appends, past several window copy-backs, and again after clear()
    rng = np.random.default_rng(13)
    n = 24
    A = rng.standard_normal((n, n))
    A = A @ A.T + 0.1 * np.eye(n)  # y = A s + noise keeps s.y > 0
    memory, shifting, pairs = _Memory(n), ShiftingMemory(n), deque(maxlen=_MEMORY)
    for rnd in range(2):
        for k in range(46):
            assert memory.k == len(shifting) == len(pairs) == min(k, _MEMORY)
            for _ in range(3):
                g = rng.standard_normal(n)
                ref = two_loop(g, pairs)
                got = memory.direction(g)
                err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                assert err <= 1e-12, (rnd, k, err)
                assert np.array_equal(got, shifting.direction(g)), (rnd, k)
            s = rng.standard_normal(n)
            y = A @ s + 0.01 * rng.standard_normal(n)
            sy = float(s @ y)
            assert sy > 0
            for mem in (memory, shifting):
                mem.append(s, y, sy, float(y @ y))
            pairs.append((s, y, 1.0 / sy))
        memory.clear()
        shifting.clear()
        pairs.clear()
        g = rng.standard_normal(n)
        assert np.array_equal(memory.direction(g), -g)


def cost_and_grad_full_rows(Z, M, B, weights, d, e):
    """Cost and Z-gradient of each start from its whole rows [M | B Q], Q = polar(Z).

    Every row's reduced state is formed from all e of its blocks, and the
    entropy gradient Gamma = A conj(G) on all of them, block 0 included,
    before the completion blocks are pulled back to Q and through the polar map.
    """
    Q, U, sigma, Wh = _polar(Z)
    rows = np.empty((len(Z), M.shape[1], d * e), dtype=complex)
    rows[..., :d] = M
    np.matmul(B, Q, out=rows[..., d:])
    A = rows.reshape(-1, e, d)
    lam, V = np.linalg.eigh(np.einsum("kia,kib->kab", A, A.conj()))
    lam = np.clip(lam, 0.0, 1.0)
    log_lam = np.log2(np.maximum(lam, 1e-300))
    S = -(lam * log_lam).sum(axis=1)
    G = -(V * (log_lam + 1 / np.log(2))[:, None, :]) @ V.conj().mT
    Gamma = (A @ G.conj()).reshape(rows.shape)
    GQ = B.conj().mT @ (weights[..., None] * Gamma[..., d:])
    Gt = U.conj().mT @ GQ
    Rt = Gt @ Wh.conj().mT
    si = sigma[:, :, None]
    K = (Rt - Rt.conj().mT) / (si + sigma[:, None, :])
    GZ = U @ (K @ Wh + (Gt - Rt @ Wh) / si)
    return (S.reshape(len(Z), -1) * weights).sum(axis=1), 2 * GZ


KERNEL_STACKS = {
    "trine e=2": [(trine(), 2)],
    "kpom e=2": [(kpom(), 2)],
    "haar d=2 m=3, three POVMs": [(random_haar(2, 3, s), 2) for s in (1, 2, 3)],
    "haar d=3 m=4": [(random_haar(3, 4, 4), 2)],
    "haar d=3 m=5 e=3": [(random_haar(3, 5, 7), 3)],
    "haar d=2 m=5 e=4": [(random_haar(2, 5, 5), 4)],
    "haar d=4 m=9 e=3": [(random_haar(4, 9, 6), 3)],
    "SIC sweep e=2..5": [(qubit_sic(), e) for e in (2, 3, 4, 5)],
    "haar d=3 m=5 sweep e=2..3": [(random_haar(3, 5, 9), e) for e in (2, 3)],
    "von Neumann d=3": [(Povm(haar_unitary(3, np.random.default_rng(2))), 2)],
}


@pytest.mark.parametrize("name", list(KERNEL_STACKS))
def test_cost_and_grad_matches_whole_rows(name):
    problems = KERNEL_STACKS[name]
    cfg = OptimizerConfig(restarts=4, seed=5)
    charts, starts, e = _stack(problems, [_chart(P, e)[1:] for P, e in problems], cfg)
    d = problems[0][0].d
    M = np.stack([P.matrix for P, _ in problems]).repeat(cfg.restarts, axis=0)
    rng = np.random.default_rng(11)
    # the start points (the default completions among them), then random points of the stack
    points = [starts]
    for _ in range(5):
        Z = rng.standard_normal(starts.shape) + 1j * rng.standard_normal(starts.shape)
        if charts.pad is not None:
            Z[np.broadcast_to(charts.pad, Z.shape)] = 0
        points.append(Z)
    for Z in points:
        f, G = _cost_and_grad(Z, charts, d, e)
        f_ref, G_ref = cost_and_grad_full_rows(Z, M, charts.B, charts.weights, d, e)
        if charts.pad is not None:
            G_ref[np.broadcast_to(charts.pad, G_ref.shape)] = 0
        assert np.abs(f - f_ref).max() <= 1e-13
        assert np.abs(G - G_ref).max(initial=0.0) <= 1e-10 * np.abs(G_ref).max(initial=0.0)
