from types import SimpleNamespace

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
    minimize_many,
    minimize_over_e,
    normalized_cost,
    random_haar,
    trine,
    validate_extension,
)
from naimark_lab import optimize
from naimark_lab.naimark import _chart
from naimark_lab.optimize import CostReport, _cost_and_grad, _lbfgs, _search, _stack
from conftest import TRINE_EXACT, haar_unitary, kpom, qubit_sic, split_one, two_basis_mixture


FAST = OptimizerConfig(restarts=4, max_iters=2000, seed=0)


def stack(problems, cfg):
    """(charts, starts, e_top) of the lockstep stack of every restart of every (P, e)."""
    return _stack(problems, [_chart(P, e)[1:] for P, e in problems], cfg)


def same_report(a, b):
    """True when two reports agree bit for bit: costs, extension and every restart record."""
    return (
        (a.e_used, a.best_cost, a.history, a.restarts, a.converged)
        == (b.e_used, b.best_cost, b.history, b.restarts, b.converged)
        and np.array_equal(a.best_extension.basis, b.best_extension.basis)
    )


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
        N = construct_completion(P, 2, haar_unitary(2, rng)[:0])  # r = m - d = 0 rows
        assert extension_cost(N, canonical_distribution(P)).total < 1e-10
    # m = d leaves no completion freedom in the firing rows: every restart searches
    # zero parameters and stops at its first evaluation
    rep = minimize(P, 2, FAST)
    assert rep.best_cost < 1e-10
    assert rep.restarts_run == len(rep.restarts) == len(rep.history) == FAST.restarts
    for rec in rep.restarts:
        assert (rec.stop, rec.iterations, rec.evaluations, rec.grad_norm) == ("grad_tol", 0, 1, 0.0)


def test_cost_and_grad_matches_central_differences():
    # one chart over three points, then a stack of two charts whose first is padded from e = 2 to 3
    P = random_haar(3, 5, seed=7)
    rng = np.random.default_rng(1)
    for problems, restarts in (([(P, 3)], 3), ([(P, 2), (random_haar(3, 5, seed=8), 3)], 1)):
        charts, starts, e = stack(problems, OptimizerConfig(restarts=restarts))
        Z = rng.standard_normal(starts.shape) + 1j * rng.standard_normal(starts.shape)
        if charts.pad is not None:
            Z[np.broadcast_to(charts.pad, Z.shape)] = 0
        f, G = _cost_and_grad(Z, charts, P.d, e)
        assert f.shape == (len(Z),) and G.shape == Z.shape
        h = 1e-6
        for k in range(len(Z)):
            # on a padded column the gradient is zero, and so is the central difference,
            # since flipping the sign of an empty ancilla level leaves every entropy alone
            for idx in np.ndindex(Z.shape[1:]):
                for unit, part in ((1, G.real), (1j, G.imag)):
                    step = np.zeros_like(Z)
                    step[k][idx] = h * unit
                    up = _cost_and_grad(Z + step, charts, P.d, e)[0]
                    down = _cost_and_grad(Z - step, charts, P.d, e)[0]
                    fd = (up[k] - down[k]) / (2 * h)
                    assert abs(fd - part[k][idx]) < 1e-7, (k, idx, unit, fd, part[k][idx])


STACKS = {
    "trine": lambda: [(trine(), 2)],
    "kpom": lambda: [(kpom(), 2)],
    "haar357": lambda: [(random_haar(3, 5, 7), 3)],
    # three POVMs in one stack
    "three-haar24": lambda: [(random_haar(2, 4, s), 2) for s in (1, 2, 3)],
    # sweep stacks: the smaller e are zero-padded to e_max, and so is each of their starts alone
    "trine-sweep": lambda: [(trine(), e) for e in (2, 3, 4)],
    "haar35-sweep": lambda: [(random_haar(3, 5, 9), e) for e in (2, 3)],
}


@pytest.mark.parametrize("name", list(STACKS))
def test_start_path_does_not_depend_on_its_stack(name):
    problems = STACKS[name]()
    charts, starts, e = stack(problems, OptimizerConfig(restarts=8, seed=3))
    d = problems[0][0].d
    stacked = _search(charts, starts, d, e, 2000)
    for k, together in enumerate(stacked):
        (alone,) = _search(charts.take([k]), starts[k : k + 1], d, e, 2000)
        assert np.array_equal(alone[0], together[0]), k
        assert alone[1:] == together[1:], k


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
    # no completion freedom: every restart stops at its start
    vn = minimize(Povm(haar_unitary(2, np.random.default_rng(3))), 2, FAST)
    assert [rec.stop for rec in vn.restarts] == ["grad_tol"] * FAST.restarts


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


@pytest.mark.parametrize("scale", [1e-8, 3e-8])
def test_minimize_near_valid_trine(scale):
    # columns orthonormal within 1e-7: the chart is that of the trine, and so is the cost
    rep = minimize(Povm(trine().matrix * (1 + scale)), 2, FAST)
    assert abs(rep.best_cost - TRINE_EXACT) <= 1e-7


def test_minimize_rejects_an_invalid_povm_before_the_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(optimize, "_search", no_search)
    with pytest.raises(ValueError, match="input columns are not orthonormal"):
        minimize(Povm(trine().matrix * 1.01), 2, FAST)


def test_minimize_over_e_trine_sweep():
    cfg = OptimizerConfig(restarts=3, max_iters=1500)
    rep = minimize_over_e(trine(), 2, 3, cfg)
    assert TRINE_EXACT - 1e-9 <= rep.best_cost <= TRINE_EXACT + 1e-4
    # the sweep keeps the cheapest of its own per-e reports, bit for bit
    per_e = dict(zip((2, 3), optimize._minimize_stack([(trine(), 2), (trine(), 3)], cfg)))
    assert rep.best_cost == min(r.best_cost for r in per_e.values())
    assert rep.e_used == min(per_e, key=lambda e: per_e[e].best_cost)
    # below e_max the padding rounds differently: within 1e-12 of standalone minimize
    for e, r in per_e.items():
        assert abs(r.best_cost - minimize(trine(), e, cfg).best_cost) <= 1e-12, e


def test_minimize_over_e_ties_go_to_the_smallest_e(monkeypatch):
    # the qubit SIC's one-restart costs at e = 2..5 agree to ~1e-15; only the
    # rounding decides which is lowest, so the sweep keeps the smallest e
    def fake_stack(problems, cfg):
        return [
            CostReport(SimpleNamespace(e=e), SimpleNamespace(total=costs[e]), ()) for _, e in problems
        ]

    monkeypatch.setattr(optimize, "_minimize_stack", fake_stack)
    costs = {2: 0.37200377562484305, 3: 0.372003775624843, 4: 0.37200377562484443, 5: 0.3720037756248432}
    rep = minimize_over_e(qubit_sic(), 2, 5)
    assert (rep.e_used, rep.best_cost) == (2, costs[2])
    costs[4] -= 1e-12  # a real improvement still wins
    assert minimize_over_e(qubit_sic(), 2, 5).e_used == 4


def test_one_point_sweep_is_minimize_bit_for_bit():
    cases = [(trine(), 2), (kpom(), 3), (random_haar(3, 5, 7), 3), (qubit_sic(), 4)]
    for P, e in cases:
        assert same_report(minimize_over_e(P, e, e, FAST), minimize(P, e, FAST)), e


def test_sweep_costs_match_standalone_minimize():
    # padding rounds differently, so a sweep's per-e cost is close to, not equal to, minimize's
    cfg = OptimizerConfig(restarts=2)
    shapes = [(2, 3, (2, 3, 4)), (2, 4, (2, 3)), (3, 5, (2, 3))]
    for i in range(30):
        d, m, es = shapes[i % 3]
        P = random_haar(d, m, 5000 + i)
        reports = optimize._minimize_stack([(P, e) for e in es], cfg)
        for e, rep in zip(es, reports):
            assert rep.e_used == e and validate_extension(rep.best_extension, P).ok
            assert abs(rep.best_cost - minimize(P, e, cfg).best_cost) <= 1e-12, (i, e)


def test_minimize_many_is_minimize_bit_for_bit():
    # criterion 7's shapes, interleaved: one stack per (d, m), reports in input order
    shapes = [(2, 3), (2, 4), (3, 4)]
    povms = [random_haar(*shapes[i % 3], seed=1000 + i) for i in range(40)]
    reports = minimize_many(povms, 2, FAST)
    assert len(reports) == 40
    for P, rep in zip(povms, reports):
        assert same_report(rep, minimize(P, 2, FAST))
    assert minimize_many([], 2, FAST) == []
    vn = Povm(haar_unitary(2, np.random.default_rng(3)))  # no completion freedom beside a search
    for P, rep in zip([vn, trine()], minimize_many([vn, trine()], 2, FAST)):
        assert same_report(rep, minimize(P, 2, FAST))


def test_minimize_many_stacks_at_most_the_cap(monkeypatch):
    # more POVMs of one shape than the cap: stacks of 3 + 3 + 1 (2, 3) and 3 + 1 (2, 4)
    monkeypatch.setattr(optimize, "_MANY_STACK", 3)
    sizes = []
    stack_of = optimize._minimize_stack

    def recorded(problems, cfg):
        sizes.append(len(problems))
        return stack_of(problems, cfg)

    monkeypatch.setattr(optimize, "_minimize_stack", recorded)
    shapes = [(2, 3), (2, 4), (2, 3)] * 3 + [(2, 4), (2, 3)]
    povms = [random_haar(d, m, seed=2000 + i) for i, (d, m) in enumerate(shapes)]
    reports = minimize_many(povms, 2, FAST)
    assert sizes == [3, 3, 1, 3, 1]
    for P, rep in zip(povms, reports):
        assert same_report(rep, minimize(P, 2, FAST))


def test_minimize_over_e_von_neumann_trivial():
    P = Povm(haar_unitary(3, np.random.default_rng(7)))
    # e = 1 leaves no completion freedom: each restart is one evaluation
    one = minimize(P, 1, OptimizerConfig(restarts=5, max_iters=10))
    assert one.restarts_run == len(one.history) == 5
    for rec in one.restarts:
        assert (rec.stop, rec.iterations, rec.evaluations) == ("grad_tol", 0, 1)
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


@pytest.mark.parametrize(
    "kwargs, error, match",
    [
        ({"restarts": 0}, ValueError, "counts must be positive"),
        ({"max_iters": 0}, ValueError, "counts must be positive"),
        ({"seed": -5, "restarts": 3}, ValueError, "seed must be a non-negative integer, got -5"),
        ({"restarts": 2.5}, TypeError, "'float' object cannot be interpreted as an integer"),
        ({"max_iters": 10.0}, TypeError, "'float' object cannot be interpreted as an integer"),
        ({"seed": 1.5}, TypeError, "'float' object cannot be interpreted as an integer"),
        ({"seed": None}, TypeError, "'NoneType' object cannot be interpreted as an integer"),
    ],
    ids=["restarts=0", "max_iters=0", "seed=-5", "restarts=2.5", "max_iters=10.0", "seed=1.5", "seed=None"],
)
def test_config_validation(kwargs, error, match):
    with pytest.raises(error, match=match):
        OptimizerConfig(**kwargs)


def test_config_takes_numpy_integers():
    cfg = OptimizerConfig(restarts=np.int64(3), max_iters=np.int32(50), seed=np.uint8(7))
    assert (cfg.restarts, cfg.max_iters, cfg.seed) == (3, 50, 7)
    assert all(type(v) is int for v in (cfg.restarts, cfg.max_iters, cfg.seed))


def test_normalized_cost():
    rep = minimize(trine(), 2, OptimizerConfig(restarts=1, max_iters=200))
    assert normalized_cost(rep) == rep.best_cost  # log2(2) = 1
    rep = minimize(random_haar(4, 5, 3), 2, OptimizerConfig(restarts=1, max_iters=200))
    assert abs(normalized_cost(rep) - rep.best_cost / 2) < 1e-15
    with pytest.raises(ValueError):
        normalized_cost(minimize(Povm(np.ones((1, 1), dtype=complex)), 1, FAST))
