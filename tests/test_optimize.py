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
from naimark_lab import optimize
from naimark_lab.optimize import CostReport, _cost_and_grad, _lbfgs, _search, _search_space, _start_points
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
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((3, *Q0.shape)) + 1j * rng.standard_normal((3, *Q0.shape))
    f, G = _cost_and_grad(Z, *args)
    assert f.shape == (3,) and G.shape == Z.shape
    h = 1e-6
    for k in range(len(Z)):
        for idx in np.ndindex(Q0.shape):
            for unit, part in ((1, G.real), (1j, G.imag)):
                step = np.zeros_like(Z)
                step[k][idx] = h * unit
                up, down = _cost_and_grad(Z + step, *args)[0], _cost_and_grad(Z - step, *args)[0]
                fd = (up[k] - down[k]) / (2 * h)
                assert abs(fd - part[k][idx]) < 1e-7, (k, idx, unit, fd, part[k][idx])


@pytest.mark.parametrize("name", ["trine", "kpom", "haar357"])
def test_start_path_does_not_depend_on_its_stack(name):
    P, e = {"trine": (trine(), 2), "kpom": (kpom(), 2), "haar357": (random_haar(3, 5, 7), 3)}[name]
    B, Q0 = _search_space(P, e)
    args = (P.matrix, B, canonical_distribution(P), P.d, e)
    starts = _start_points(Q0, OptimizerConfig(restarts=8, seed=3))
    stacked = _search(*args, starts, 2000)
    for Z, together in zip(starts, stacked):
        (alone,) = _search(*args, [Z], 2000)
        assert np.array_equal(alone[0], together[0])
        assert alone[1:] == together[1:]


def test_restart_records_and_stop_reasons():
    rep = minimize(trine(), 2, OptimizerConfig(restarts=3, max_iters=1))
    assert not rep.converged
    assert [rec.start for rec in rep.restarts] == ["default", "seed+1", "seed+2"]
    assert rep.history == [rec.value for rec in rep.restarts]
    assert rep.restarts[0].stop == "grad_tol"  # the trine's default completion is stationary
    for rec in rep.restarts[1:]:
        assert rec.stop == "max_iters" and rec.iterations == 1 and rec.evaluations >= 2
    rep = minimize(trine(), 2, FAST)
    assert rep.converged
    assert all(rec.stop in ("grad_tol", "objective_tol") for rec in rep.restarts)
    best = rep.restarts[rep.history.index(min(rep.history))]
    assert best.grad_norm < 1e-5 and 0 < best.iterations < best.evaluations
    # no completion freedom: no search ran, so there are no records
    assert minimize(Povm(haar_unitary(2, np.random.default_rng(3))), 2, FAST).restarts == ()


def drive_lbfgs(fun, x, max_iters=100):
    """Run one _lbfgs generator on fun(x) -> (f, g) and return its result."""
    run = _lbfgs(np.asarray(x, dtype=float), max_iters)
    x = next(run)
    try:
        while True:
            x = run.send(fun(x))
    except StopIteration as done:
        return done.value


def test_lbfgs_minimizes_an_ill_conditioned_quadratic():
    scales = np.logspace(0, 3, 8)
    x, f, grad_norm, iterations, evaluations, stop = drive_lbfgs(
        lambda x: (float(scales @ x**2), 2 * scales * x), np.ones(8)
    )
    assert stop in ("grad_tol", "objective_tol") and f < 1e-9
    assert iterations < evaluations <= 3 * iterations


def test_lbfgs_stops_when_the_line_search_fails():
    # a gradient of the wrong sign: no step along -g lowers f = |x|^2
    x, f, grad_norm, iterations, evaluations, stop = drive_lbfgs(
        lambda x: (float(x @ x), -2 * x), [1.0, -2.0]
    )
    assert stop == "line_search" and iterations == 0 and evaluations == 21
    assert np.array_equal(x, [1.0, -2.0]) and f == 5.0 and grad_norm == 4.0


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


def test_minimize_over_e_ties_go_to_the_smallest_e(monkeypatch):
    # the qubit SIC's one-restart costs at e = 2..5 agree to ~1e-15; only the
    # rounding decides which is lowest, so the sweep keeps the smallest e
    def fake_minimize(P, e, cfg):
        return CostReport(e, costs[e], None, None, 1, True)

    monkeypatch.setattr(optimize, "minimize", fake_minimize)
    costs = {2: 0.37200377562484305, 3: 0.372003775624843, 4: 0.37200377562484443, 5: 0.3720037756248432}
    rep = minimize_over_e(qubit_sic(), 2, 5)
    assert (rep.e_used, rep.best_cost) == (2, costs[2])
    costs[4] -= 1e-12  # a real improvement still wins
    assert minimize_over_e(qubit_sic(), 2, 5).e_used == 4


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
