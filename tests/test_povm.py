import numpy as np
import pytest

from naimark_lab import (
    Ensemble,
    Povm,
    canonical_distribution,
    convex_combine,
    merge_parallel,
    mutual_information,
    post_process,
    random_haar,
    refine_to_rank1,
    tensor,
    trine,
    trine_source,
    validate,
)
from conftest import LOG2_3_MINUS_1, kpom, n_d3, n_d3_unmerged


def test_validate_accepts_trine_and_rejects_scaled():
    T = trine()
    rep = validate(T)
    assert rep.ok and rep.max_residual < 1e-12
    bad = validate(Povm(T.matrix * 0.9))
    assert not bad.ok
    assert abs(bad.max_residual - 0.19) < 1e-12  # |0.81 - 1|


def test_validate_flags_zero_norm_rows():
    M = np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)
    rep = validate(Povm(M))
    assert rep.ok  # completeness unaffected by a null element
    assert rep.zero_norm_indices == (2,)


def test_povm_constructor_checks():
    with pytest.raises(ValueError):
        Povm(np.ones((1, 3), dtype=complex))  # m < d
    with pytest.raises(ValueError):
        Povm(np.array([np.inf, 0.0, 0.0, 1.0]).reshape(2, 2))


def test_trine_geometry():
    T = trine()
    g = T.matrix @ T.matrix.conj().T
    assert np.allclose(np.diagonal(g).real, 2 / 3, atol=1e-15)
    off = g[~np.eye(3, dtype=bool)]
    assert np.allclose(np.abs(off), 1 / 3, atol=1e-15)


def test_canonical_distribution_trine_uniform():
    q = canonical_distribution(trine())
    assert np.allclose(q, 1 / 3, atol=1e-15)
    assert abs(q.sum() - 1) < 1e-12


def test_mutual_information_trine_oracle():
    # orthogonal-source value log2(3) - 1; own-direction source gives 1/3 bit
    T = trine()
    assert abs(mutual_information(T, trine_source()) - LOG2_3_MINUS_1) < 1e-12
    own = Ensemble(
        states=T.matrix / np.linalg.norm(T.matrix, axis=1)[:, None],
        probs=np.full(3, 1 / 3),
    )
    assert abs(mutual_information(T, own) - 1 / 3) < 1e-12


def test_trine_source_states_orthogonal_to_trine():
    T = trine()
    S = trine_source()
    overlaps = np.abs(S.states @ T.matrix.conj().T)
    assert np.abs(np.diagonal(overlaps)).max() < 1e-12


def test_random_haar_validates_and_is_deterministic():
    for d, m in [(2, 2), (2, 5), (3, 4), (4, 9)]:
        P = random_haar(d, m, seed=42)
        assert validate(P).ok
    assert np.array_equal(random_haar(3, 5, 7).matrix, random_haar(3, 5, 7).matrix)
    assert not np.array_equal(random_haar(3, 5, 7).matrix, random_haar(3, 5, 8).matrix)


def test_convex_combine_validates_and_stacks():
    P0 = random_haar(2, 3, 0)
    P1 = random_haar(2, 4, 1)
    C = convex_combine(P0, P1, 0.25)
    assert C.m == 7
    assert validate(C).ok
    with pytest.raises(ValueError):
        convex_combine(P0, P1, 1.5)


def test_post_process_validates_and_checks_distributions():
    P = random_haar(2, 3, 5)
    Q = post_process(P, [[0.5, 0.5], [1.0], [0.2, 0.3, 0.5]])
    assert Q.m == 6
    assert validate(Q).ok
    with pytest.raises(ValueError):
        post_process(P, [[0.5, 0.4], [1.0], [1.0]])  # does not sum to 1


def test_merge_parallel_reunites_split_elements():
    P = random_haar(2, 3, 9)
    Q = post_process(P, [[0.7, 0.3], [1.0], [1.0]])
    M = merge_parallel(Q)
    assert M.m == P.m
    # merged POVM equals the original up to per-element phases
    gm = np.abs(M.matrix @ M.matrix.conj().T)
    gp = np.abs(P.matrix @ P.matrix.conj().T)
    assert np.abs(np.sort(gm.ravel()) - np.sort(gp.ravel())).max() < 1e-9


def test_merge_parallel_two_basis_mixture_d3():
    # the six-element two-basis mixture in d=3 merges to the five-element POVM
    merged = merge_parallel(n_d3_unmerged())
    target = n_d3()
    assert merged.m == target.m
    assert validate(merged).ok
    gram_m = np.abs(merged.matrix @ merged.matrix.conj().T)
    gram_t = np.abs(target.matrix @ target.matrix.conj().T)
    assert np.abs(np.sort(gram_m, axis=None) - np.sort(gram_t, axis=None)).max() < 1e-12


def test_merge_parallel_drops_null_rows():
    # a zero-norm element has no direction to merge on, wherever it stands
    for M in ([[1, 0], [0, 1], [0, 0]], [[0, 0], [1, 0], [0, 1]]):
        assert np.array_equal(merge_parallel(Povm(np.array(M, dtype=complex))).matrix, np.eye(2))


def test_merge_parallel_rejects_a_negative_tol():
    with pytest.raises(ValueError, match="tol must be >= 0"):
        merge_parallel(trine(), -1e-9)
    assert merge_parallel(trine(), 0.0).m == 3


def test_tensor_product_validates():
    T = trine()
    TT = tensor(T, T)
    assert (TT.d, TT.m) == (4, 9)
    assert validate(TT).ok
    K = tensor(kpom(), trine())
    assert (K.d, K.m) == (4, 12)
    assert validate(K).ok


def test_refine_to_rank1_recovers_trine_directions():
    T = trine()
    effects = [np.outer(row, row.conj()) for row in T.matrix]
    R = refine_to_rank1(effects)
    assert R.m == 3 and validate(R).ok
    overlap = np.abs(R.matrix @ T.matrix.conj().T)
    assert np.allclose(np.sort(overlap, axis=None), np.sort(np.abs(T.matrix @ T.matrix.conj().T), axis=None), atol=1e-12)


def test_refine_to_rank1_splits_higher_rank_effects():
    # identity split into two rank-2 halves refines to four rank-1 elements
    effects = [np.eye(2, dtype=complex) * 0.5, np.eye(2, dtype=complex) * 0.5]
    R = refine_to_rank1(effects)
    assert R.m == 4
    assert validate(R).ok


def test_refine_to_rank1_rejects_incomplete_sets():
    with pytest.raises(ValueError):
        refine_to_rank1([np.eye(2, dtype=complex) * 0.5])


def test_refine_to_rank1_rejects_non_hermitian_effects():
    def effects(skew):
        bump = np.array([[0, skew], [0, 0]], dtype=complex)
        return [np.eye(2) * 0.5 + bump, np.eye(2) * 0.5 - bump]

    assert refine_to_rank1(effects(5e-11)).m == 4  # within the 1e-10 check
    with pytest.raises(ValueError, match="not Hermitian"):
        refine_to_rank1(effects(0.1))
