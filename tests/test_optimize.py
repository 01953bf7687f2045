import numpy as np
import pytest

from naimark_lab import (
    OptimizerConfig,
    Povm,
    canonical_distribution,
    construct_completion,
    construct_default,
    extension_cost,
    minimize,
    minimize_over_e,
    normalized_cost,
    random_haar,
    trine,
    validate_extension,
)
from naimark_lab.optimize import _cost_and_grad, _search_space
from conftest import TRINE_EXACT, haar_unitary, kpom, qubit_sic, split_one, two_basis_mixture


FAST = OptimizerConfig(restarts=4, max_iters=2000, seed=0)


def test_objective_at_zero_matches_default_completion():
    T = trine()
    c0 = extension_cost(construct_default(T, 2), canonical_distribution(T)).total
    rep = minimize(T, 2, OptimizerConfig(restarts=1, max_iters=1))
    # restart 0 starts at the default completion, so even a one-iteration run cannot exceed c0
    assert rep.history[0] <= c0 + 1e-12


def test_objective_zero_for_von_neumann_any_params():
    P = Povm(haar_unitary(2, np.random.default_rng(3)))
    rng = np.random.default_rng(9)
    for _ in range(5):
        N = construct_completion(P, 2, haar_unitary(2, rng))
        assert extension_cost(N, canonical_distribution(P)).total < 1e-10
    # m = d leaves no completion freedom in the firing rows: one evaluation
    rep = minimize(P, 2, FAST)
    assert rep.best_cost < 1e-10
    assert rep.restarts_run == 1 and len(rep.history) == 1


def test_cost_and_grad_matches_central_differences():
    P = random_haar(3, 5, seed=7)
    e = 3
    B, Q0 = _search_space(P, e)
    args = (P.matrix, B, canonical_distribution(P), P.d, e)
    x = np.random.default_rng(1).standard_normal(2 * Q0.size)
    g = _cost_and_grad(x, *args)[1]
    assert g.shape == x.shape
    h = 1e-6
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        fd = (_cost_and_grad(x + step, *args)[0] - _cost_and_grad(x - step, *args)[0]) / (2 * h)
        assert abs(fd - g[i]) < 1e-7, (i, fd, g[i])


def test_minimize_reaches_zero_on_split_mixtures():
    # zero-cost splits whose product realization needs e = 4
    for s in range(500, 504):
        Q = split_one(two_basis_mixture(s), s)
        rep = minimize(Q, 4, OptimizerConfig(restarts=4))
        assert rep.best_cost <= 1e-3, (s, rep.best_cost)


def test_minimize_cost_does_not_rise_with_e():
    # a larger ancilla embeds every smaller extension
    cases = [(qubit_sic(), range(2, 6), 2), (random_haar(2, 4, seed=2050), (3, 4), 4)]
    for P, es, restarts in cases:
        costs = [minimize(P, e, OptimizerConfig(restarts=restarts)).best_cost for e in es]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:])), costs


def test_minimize_trine_reaches_exact_cost():
    rep = minimize(trine(), 2, FAST)
    assert rep.e_used == 2
    assert rep.best_cost <= TRINE_EXACT + 1e-6
    assert rep.best_cost >= TRINE_EXACT - 1e-9  # proven minimum, cannot go below
    assert validate_extension(rep.best_extension, trine()).ok
    assert rep.restarts_run == 4 and len(rep.history) == 4
    assert abs(rep.best_cost - rep.breakdown.total) < 1e-15


def test_minimize_is_deterministic():
    a = minimize(trine(), 2, FAST)
    b = minimize(trine(), 2, FAST)
    assert a.best_cost == b.best_cost
    assert np.array_equal(a.best_extension.basis, b.best_extension.basis)
    assert a.history == b.history


def test_more_restarts_never_worse():
    P = kpom()
    few = minimize(P, 2, OptimizerConfig(restarts=2, max_iters=1500, seed=1))
    many = minimize(P, 2, OptimizerConfig(restarts=6, max_iters=1500, seed=1))
    assert many.best_cost <= few.best_cost + 1e-15
    assert many.history[:2] == few.history[:2]


def test_minimize_kpom_finds_zero():
    rep = minimize(kpom(), 2, FAST)
    assert rep.best_cost <= 1e-3


def test_minimize_capacity_error():
    with pytest.raises(ValueError):
        minimize(random_haar(2, 5, 0), 2, FAST)  # d*e = 4 < m = 5


def test_minimize_over_e_trine_sweep():
    cfg = OptimizerConfig(restarts=3, max_iters=1500)
    rep = minimize_over_e(trine(), 2, 3, cfg)
    assert TRINE_EXACT - 1e-9 <= rep.best_cost <= TRINE_EXACT + 1e-4
    # the sweep keeps the cheapest of the per-e runs, bit for bit
    per_e = {e: minimize(trine(), e, cfg) for e in (2, 3)}
    assert rep.best_cost == min(r.best_cost for r in per_e.values())
    assert rep.e_used == min(per_e, key=lambda e: per_e[e].best_cost)


def test_minimize_over_e_von_neumann_trivial():
    P = Povm(haar_unitary(3, np.random.default_rng(7)))
    # e = 1 leaves no completion freedom: a single deterministic evaluation
    one = minimize(P, 1, OptimizerConfig(restarts=5, max_iters=10))
    assert one.restarts_run == 1 and len(one.history) == 1
    assert one.converged
    assert one.best_cost < 1e-12
    rep = minimize_over_e(P, cfg=OptimizerConfig(restarts=1, max_iters=10))
    assert rep.best_cost < 1e-12  # every e admits a zero-cost completion here


def test_minimize_over_e_range_validation():
    T = trine()
    with pytest.raises(ValueError):
        minimize_over_e(T, 1, 3)  # below ceil(m/d) = 2
    with pytest.raises(ValueError):
        minimize_over_e(T, 2, 7)  # above m*d = 6
    with pytest.raises(ValueError):
        minimize_over_e(T, 3, 2)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)


def test_normalized_cost():
    rep = minimize(trine(), 2, OptimizerConfig(restarts=1, max_iters=200))
    assert normalized_cost(rep, 2) == rep.best_cost
    assert abs(normalized_cost(rep, 4) - rep.best_cost / 2) < 1e-15
    with pytest.raises(ValueError):
        normalized_cost(rep, 1)
