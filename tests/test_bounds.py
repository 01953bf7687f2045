import numpy as np
import pytest

from naimark_lab import (
    Povm,
    asymptotic_bound_curve,
    best_bound,
    binary_entropy,
    bound_dimension,
    bound_element_count,
    bound_prop5,
    merge_parallel,
    post_process,
    random_haar,
    trine,
    trine_E_theta,
    zero_cost_decide_d2,
    zero_cost_necessary,
)
from naimark_lab.bounds import _CACHE_SIZE, _probe_samples
from conftest import TRINE_EXACT, haar_unitary, kpom, n_d3, pairing_is_valid, two_basis_mixture


def test_bound_element_count():
    assert bound_element_count(trine()) == 1 - 1 / 3
    assert bound_element_count(random_haar(2, 8, 0)) == 1 - 1 / 8


def test_bound_dimension_reference_values():
    # printed to six decimals in the source analysis of these bounds
    assert abs(bound_dimension(2) - 0.600876) < 1e-6
    assert abs(bound_dimension(3) - 0.744008) < 1e-6
    assert abs(bound_dimension(4) - 0.811278) < 1e-6
    assert bound_dimension(2) == binary_entropy((1 - 1 / np.sqrt(2)) / 2)
    with pytest.raises(ValueError):
        bound_dimension(1)


def test_dimension_bound_per_log2_d_stays_below_the_trine_for_d_at_least_3():
    # the d >= 3 half of the trine's maximality: every POVM in dimension d
    # costs at most bound_dimension(d), which lies below T log2(d)
    for d in range(3, 65):
        assert bound_dimension(d) / np.log2(d) < TRINE_EXACT, d


def test_bound_prop5_trine_matches_placement_curve():
    # probing along an element direction reproduces the theta = 0 placement
    T = trine()
    zeta = T.matrix[0] / np.linalg.norm(T.matrix[0])
    assert abs(bound_prop5(T, zeta) - trine_E_theta(0.0)) < 1e-12


def test_bound_prop5_rejects_unnormalized():
    with pytest.raises(ValueError):
        bound_prop5(trine(), np.array([0.5, 0.5]))


def test_best_bound_structure():
    rep = best_bound(trine(), seed=3)
    assert rep.bound_element_count == 1 - 1 / 3
    assert abs(rep.bound_dimension - 0.600876) < 1e-6
    assert rep.value == min(rep.bound_element_count, rep.bound_dimension, rep.bound_zeta_best)
    assert rep.witness.startswith("zeta=")  # trine's best is the zeta family
    assert abs(rep.bound_zeta_best - trine_E_theta(0.0)) < 1e-9


def test_best_bound_repeats_across_the_probe_cache():
    _probe_samples.cache_clear()
    P = random_haar(3, 5, 8)
    for seed in range(100):
        first = best_bound(P, seed=seed)
        assert best_bound(P, seed=seed) == first, seed
    info = _probe_samples.cache_info()
    assert info.currsize == info.maxsize == _CACHE_SIZE
    assert info.hits == 100 and info.misses == 100
    assert not _probe_samples(0, 3).flags.writeable


def test_best_bound_takes_only_a_non_negative_integer_seed():
    P = random_haar(2, 4, 5)
    assert best_bound(P, seed=np.int64(7)) == best_bound(P, seed=7)
    for bad in (None, 2.0, "3"):  # None once drew fresh probes in every process
        with pytest.raises(TypeError):
            best_bound(P, seed=bad)
    with pytest.raises(ValueError, match="non-negative integer, got -1"):
        best_bound(P, seed=-1)


def test_best_bound_von_neumann_hits_zero():
    rep = best_bound(Povm(np.eye(2, dtype=complex)))
    # zeta along either element zeroes both terms: r^2 = 1 makes alpha = -1
    assert rep.value < 1e-12
    assert rep.witness == "zeta=element_1"


def test_best_bound_deterministic():
    a = best_bound(random_haar(2, 4, 5), seed=11)
    b = best_bound(random_haar(2, 4, 5), seed=11)
    assert a.value == b.value and a.witness == b.witness


def test_zero_cost_necessary_trine():
    cert = zero_cost_necessary(trine())
    assert cert.decision == "nonzero"
    assert cert.pairing is None
    # no element has an orthogonal partner, so each margin is -r^2 on the
    # orthogonal complement: -2/3 exactly
    assert np.abs(cert.per_element_margins + 2 / 3).max() < 1e-12


def test_zero_cost_necessary_inconclusive_cases():
    assert zero_cost_necessary(kpom()).decision == "inconclusive"
    assert zero_cost_necessary(n_d3()).decision == "inconclusive"


def test_decide_d2_kpom_zero():
    cert = zero_cost_decide_d2(kpom())
    assert cert.decision == "zero"
    assert cert.pairing == [(0, 1), (2, 3)]


def test_decide_d2_trine_nonzero():
    cert = zero_cost_decide_d2(trine())
    assert cert.decision == "nonzero"
    assert cert.pairing is None


def test_decide_d2_mixture_zero_with_valid_pairing():
    for seed in range(12):
        P = two_basis_mixture(seed)
        cert = zero_cost_decide_d2(P)
        assert cert.decision == "zero", seed
        # the pairing certificate really pairs orthogonal equal-weight partners
        M = merge_parallel(P).matrix
        seen = sorted(i for pair in cert.pairing for i in pair)
        assert seen == list(range(M.shape[0]))
        for i, j in cert.pairing:
            assert abs(np.vdot(M[i], M[j])) < 1e-9
            assert abs(np.vdot(M[i], M[i]) - np.vdot(M[j], M[j])) < 1e-9


def test_decide_d2_rejects_other_dimensions():
    with pytest.raises(ValueError):
        zero_cost_decide_d2(n_d3())


def test_decide_d2_large_haar_nonzero():
    assert zero_cost_decide_d2(random_haar(2, 22, 0)).decision == "nonzero"


def test_decide_d2_thirty_element_mixture_zero():
    rng = np.random.default_rng(15)
    P = Povm(np.vstack([haar_unitary(2, rng) for _ in range(15)]) / np.sqrt(15))
    cert = zero_cost_decide_d2(P)
    assert P.m == 30 and cert.decision == "zero" and pairing_is_valid(P, cert)


def test_decide_d2_rejects_tolerance_outside_zero_to_half():
    for tol in (0.5, 0.6, -1e-3, 0.0, 1e-16):
        with pytest.raises(ValueError):
            zero_cost_decide_d2(kpom(), tol=tol)


def test_zero_cost_necessary_rejects_tolerance_below_rounding():
    for tol in (1e-13, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be >= 1e-12"):
            zero_cost_necessary(kpom(), tol=tol)


def test_zero_cost_necessary_at_the_floor_never_refutes_a_basis_mixture():
    # p U0 + (1 - p) U1 costs zero; below the floor, rounding called it nonzero
    # (200 of 200 d = 3 mixtures at 1e-16, up to 37 of 100 at d = 16 and 1e-15)
    rng = np.random.default_rng(12)
    for d in (3, 8, 16):
        for _ in range(20):
            p = rng.uniform(0.15, 0.85)
            U0, U1 = haar_unitary(d, rng), haar_unitary(d, rng)
            P = Povm(np.vstack([np.sqrt(p) * U0, np.sqrt(1 - p) * U1]))
            assert zero_cost_necessary(P, tol=1e-12).decision == "inconclusive", d


def test_decide_d2_margins_refer_to_merged_povm():
    P = post_process(kpom(), [[0.5, 0.5], [1.0], [1.0], [1.0]])  # split one element
    cert = zero_cost_decide_d2(P)
    assert cert.decision == "zero"
    assert cert.per_element_margins.size == merge_parallel(P).m == 4


def test_asymptotic_bound_curve():
    curve = asymptotic_bound_curve(trine(), 10)
    assert [n for n, _ in curve] == list(range(1, 11))
    vals = np.array([v for _, v in curve])
    assert (np.diff(vals) < 0).all()  # strictly decreasing per copy
    assert abs(vals[0] - bound_dimension(2)) < 1e-15  # n = 1 is the plain bound
    assert vals[-1] < 0.1
    with pytest.raises(ValueError):
        asymptotic_bound_curve(trine(), 0)
