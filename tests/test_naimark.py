import numpy as np
import pytest

from naimark_lab import (
    NaimarkExtension,
    Povm,
    bound_prop5,
    canonical_distribution,
    compress_ancilla,
    construct_completion,
    construct_default,
    extension_cost,
    marginal_povms,
    prop5_extension,
    random_haar,
    rotate_ancilla,
    trine,
    validate,
    validate_extension,
)
from naimark_lab import (
    Ensemble,
    binary_entropy,
    convex_combine,
    f_curve,
    gram_schmidt_complete,
    merge_parallel,
    mutual_information,
    post_process,
    refine_to_rank1,
)
from naimark_lab.naimark import _chart, _complete_rows
from conftest import haar_unitary, kpom, partial_trace, von_neumann_entropy


def chart_point(P, e, rng):
    """A random chart point Q: the first m - d rows of a Haar unitary of size d(e - 1)."""
    return haar_unitary(P.d * (e - 1), rng)[: P.m - P.d]


def random_extension(d, m, e, seed):
    P = random_haar(d, m, seed)
    return P, construct_completion(P, e, chart_point(P, e, np.random.default_rng(seed + 10_000)))


def test_construct_default_validates():
    for d, m, e in [(2, 3, 2), (2, 4, 2), (3, 5, 2), (2, 3, 4)]:
        P = random_haar(d, m, seed=d * 100 + m)
        N = construct_default(P, e)
        rep = validate_extension(N, P)
        assert rep.ok, (d, m, e, rep)
        assert rep.unitarity_residual < 1e-10
        assert rep.form_residual < 1e-10


def test_construct_default_capacity_error():
    with pytest.raises(ValueError):
        construct_default(random_haar(2, 5, 0), 2)  # de = 4 < m = 5


def test_construct_completion_preserves_canonical_form():
    rng = np.random.default_rng(1)
    P = random_haar(2, 4, 3)
    for e in [2, 3]:
        N = construct_completion(P, e, chart_point(P, e, rng))
        rep = validate_extension(N, P)
        assert rep.ok
        # first d columns of the measured rows stay pinned to the POVM rows
        assert np.abs(N.basis[: P.m, : P.d] - P.matrix).max() < 1e-12


def test_construct_completion_rejects_a_bad_chart_point():
    P = random_haar(2, 3, 0)  # r = 1, d(e - 1) = 2
    with pytest.raises(ValueError, match="orthonormal rows"):
        construct_completion(P, 2, np.ones((1, 2), dtype=complex))
    with pytest.raises(ValueError, match="Q must be 1 x 2"):
        construct_completion(P, 2, np.eye(2, dtype=complex))  # the old V shape
    with pytest.raises(ValueError, match="capacity"):
        construct_completion(random_haar(2, 5, 0), 2, np.eye(3, 2, dtype=complex))


def test_construct_completion_deterministic():
    P = random_haar(2, 3, 2)
    Q = chart_point(P, 2, np.random.default_rng(4))
    A = construct_completion(P, 2, Q).basis
    B = construct_completion(P, 2, Q).basis
    assert np.array_equal(A, B)


def test_construct_completion_at_the_default_point_is_the_default_extension():
    # B Q0 = X0 up to rounding, and the firing rows carry the whole cost
    for d, m, e in [(2, 3, 2), (2, 4, 3), (3, 5, 2)]:
        P = random_haar(d, m, seed=d * 100 + m)
        X0, B, Q0 = _chart(P, e)
        assert np.abs(B @ Q0 - X0).max() < 1e-14
        default = construct_default(P, e).basis
        at_Q0 = construct_completion(P, e, Q0).basis
        assert np.abs(at_Q0[:m] - default[:m]).max() < 1e-14


def test_chart_point_of_an_extension_is_unique():
    # Q = B^+ X recovers the chart point from the firing rows
    rng = np.random.default_rng(2)
    for d, m, e in [(2, 3, 2), (2, 4, 3), (3, 5, 3)]:
        P = random_haar(d, m, seed=m)
        Q = chart_point(P, e, rng)
        X = construct_completion(P, e, Q).basis[:m, d:]
        _, B, _ = _chart(P, e)
        assert np.abs(np.linalg.pinv(B) @ X - Q).max() < 1e-12


@pytest.mark.parametrize("scale", [1e-8, 2e-8, 3e-8])
def test_default_completion_of_a_near_valid_povm_is_unitary(scale):
    # columns orthonormal within 1e-7 but not within the 1e-8 span test: the
    # completion still adds exactly m - d columns, none of them noise
    P = Povm(trine().matrix * (1 + scale))
    U = construct_default(P, 2).basis
    assert np.abs(U @ U.conj().T - np.eye(4)).max() < 1e-7
    for i in range(200):
        d, m = [(2, 3), (2, 4), (3, 4), (3, 5)][i % 4]
        P = Povm(random_haar(d, m, seed=i).matrix * (1 + scale))
        e = -(-m // d) + i % 2
        U = construct_default(P, e).basis
        assert np.abs(U @ U.conj().T - np.eye(d * e)).max() < 1e-7, i


def test_default_completion_rejects_an_invalid_povm():
    with pytest.raises(ValueError, match="not orthonormal") as exc:
        construct_default(Povm(trine().matrix * 1.01), 2)
    # the message names the gate and the residual, 1.01^2 - 1
    assert "within 1e-07 (residual 2.010e-02)" in str(exc.value)


def test_validate_extension_detects_corruption():
    P, N = random_extension(2, 3, 2, seed=8)
    bad_rows = N.basis.copy()
    bad_rows[0, 0] += 0.05
    bad = NaimarkExtension(d=N.d, e=N.e, m=N.m, basis=bad_rows)
    rep = validate_extension(bad, P)
    assert not rep.ok
    with pytest.raises(ValueError):
        validate_extension(N, kpom())  # m mismatch


def test_validate_extension_accepts_rephased_rows():
    # global phases on measured rows are physically irrelevant
    P, N = random_extension(2, 3, 2, seed=12)
    phased = N.basis.copy()
    phased[1] *= np.exp(1.2j)
    rep = validate_extension(NaimarkExtension(d=2, e=2, m=3, basis=phased), P)
    assert rep.ok and rep.form_residual < 1e-10


def test_extension_cost_breakdown_consistency():
    P, N = random_extension(2, 4, 3, seed=21)
    w = canonical_distribution(P)
    br = extension_cost(N, w)
    assert br.total >= -1e-12
    assert abs(br.total - float(br.per_outcome_entanglement @ br.weights)) < 1e-15
    with pytest.raises(ValueError):
        extension_cost(N, w[:-1])
    # weights are a distribution: non-negative, summing to 1 within 1e-6
    for bad in (np.r_[-w[0], w[1:]], 1.1 * w, np.r_[np.inf, w[1:]]):
        with pytest.raises(ValueError, match="weights must be non-negative"):
            extension_cost(N, bad)
    assert extension_cost(N, w * (1 + 5e-7)).total > 0


def test_extension_cost_zero_for_von_neumann():
    for e in [1, 2, 3]:
        P = Povm(haar_unitary(3, np.random.default_rng(5)).conj())
        N = construct_default(P, e)
        assert extension_cost(N, canonical_distribution(P)).total < 1e-12


def oracle_entanglements(N):
    """Entropy of each firing row's reduced system state, one row at a time."""
    return np.array(
        [von_neumann_entropy(partial_trace(row, N.d, N.e, "system")) for row in N.basis[: N.m]]
    )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("e", [2, 3, 4])
def test_extension_cost_matches_partial_trace_oracle(d, e):
    P, N = random_extension(d, d * e - 1, e, seed=10 * d + e)
    ent = extension_cost(N, canonical_distribution(P)).per_outcome_entanglement
    assert np.abs(ent - oracle_entanglements(N)).max() <= 1e-12


def test_extension_cost_matches_partial_trace_oracle_trine():
    T = trine()
    N = construct_completion(T, 2, chart_point(T, 2, np.random.default_rng(12)))
    ent = extension_cost(N, canonical_distribution(T)).per_outcome_entanglement
    assert np.abs(ent - oracle_entanglements(N)).max() <= 1e-12


def test_marginal_povms_all_validate():
    for seed in range(6):
        d = 2 if seed % 2 == 0 else 3
        m = d + 1 + seed % 3
        e = max(2, -(-m // d))
        P, N = random_extension(d, m, e, seed=seed + 40)
        slices = marginal_povms(N)
        assert len(slices) == e
        for Q in slices:
            assert validate(Q, tol=1e-9).ok


def test_prop5_extension_validates_and_matches_prediction():
    rng = np.random.default_rng(6)
    for d, m in [(2, 3), (2, 4), (3, 5)]:
        P = random_haar(d, m, seed=m * 31)
        zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        zeta /= np.linalg.norm(zeta)
        ext, predicted = prop5_extension(P, zeta)
        assert ext.e == m + 1
        rep = validate_extension(ext, P)
        assert rep.ok, rep
        measured = extension_cost(ext, canonical_distribution(P)).total
        assert abs(measured - predicted) < 1e-9


@pytest.mark.parametrize("d, m", [(2, 3), (2, 4), (3, 4), (3, 5)])
def test_prop5_extension_validates_at_every_element_direction(d, m):
    for seed in range(5):
        P = random_haar(d, m, seed=100 * m + seed)
        w = canonical_distribution(P)
        for k in P.matrix:
            ext, predicted = prop5_extension(P, k / np.linalg.norm(k))
            assert validate_extension(ext, P).ok
            assert abs(extension_cost(ext, w).total - predicted) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_prop5_family_is_a_curve_in_the_chart(d):
    # at e = m + 1 the chart point Q = I_(r x m) (x) zeta^T makes row nu of B Q the
    # product xi_nu (x) zeta, xi_nu = B[nu] on ancilla levels 1..r: the row is
    # |k_nu>|a_0> + |zeta>|xi_nu>, the one-extra-direction extension at zeta
    # (a random zeta and two element directions)
    rng = np.random.default_rng(d)
    for m in range(d + 1, 3 * d + 2):
        P = random_haar(d, m, seed=10 * d + m)
        w = canonical_distribution(P)
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        for zeta in (z / np.linalg.norm(z), *(k / np.linalg.norm(k) for k in P.matrix[:2])):
            N = construct_completion(P, m + 1, np.kron(np.eye(m - d, m), zeta[None]))
            assert validate_extension(N, P).ok
            cost = extension_cost(N, w).total
            assert abs(cost - bound_prop5(P, zeta)) < 1e-13, (m, zeta)
            assert abs(cost - extension_cost(prop5_extension(P, zeta)[0], w).total) < 1e-13


def test_prop5_family_is_the_whole_chart_at_d2_m3_e2():
    # r = 1 and Q is one unit row of C^2: every chart point is Q = zeta^T, and
    # it costs bound_prop5(P, zeta), so E_min at e = 2 is the minimum of that bound
    rng = np.random.default_rng(23)
    for seed in range(10):
        P = random_haar(2, 3, seed=seed)
        w = canonical_distribution(P)
        for _ in range(5):
            zeta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            zeta /= np.linalg.norm(zeta)
            cost = extension_cost(construct_completion(P, 2, zeta[None]), w).total
            assert abs(cost - bound_prop5(P, zeta)) < 1e-14, seed


def test_prop5_zeta_parallel_to_element_zeroes_its_term():
    T = trine()
    zeta = T.matrix[2] / np.linalg.norm(T.matrix[2])
    ext, _ = prop5_extension(T, zeta)
    br = extension_cost(ext, canonical_distribution(T))
    assert br.per_outcome_entanglement[2] < 1e-9


def test_prop5_rejects_bad_zeta():
    T = trine()
    with pytest.raises(ValueError):
        prop5_extension(T, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        prop5_extension(T, np.array([0.5, 0.0]))


def test_rotate_ancilla_preserves_cost():
    P, N = random_extension(2, 4, 3, seed=33)
    R = haar_unitary(3, np.random.default_rng(17))
    w = canonical_distribution(P)
    c0 = extension_cost(N, w).total
    c1 = extension_cost(rotate_ancilla(N, R), w).total
    assert abs(c0 - c1) < 1e-10


def test_rotate_ancilla_matches_per_row_loop():
    P, N = random_extension(2, 4, 3, seed=33)
    cases = [(N, haar_unitary(3, np.random.default_rng(17)))]
    cases.append((construct_default(kpom(), 2), np.array([[1, 1], [1, -1]]) / np.sqrt(2)))
    cases.append((prop5_extension(trine(), np.array([1.0, 0.0]))[0], haar_unitary(4, np.random.default_rng(3))))
    for N, R in cases:
        de = N.d * N.e
        loop = np.array([(R @ N.basis[nu].reshape(N.e, N.d)).ravel() for nu in range(de)])
        assert np.abs(rotate_ancilla(N, R).basis - loop).max() <= 1e-15


def test_kpom_product_extension_via_hadamard_rotation():
    # canonical zero-cost extension rows are |k_nu>(|0> +- |1>); a Hadamard
    # on the ancilla turns them into computational product-basis vectors
    P = kpom()
    w = np.zeros((4, 4), dtype=complex)
    anc = {0: np.array([1, 1]), 1: np.array([1, 1]), 2: np.array([1, -1]), 3: np.array([1, -1])}
    for nu in range(4):
        w[nu] = np.kron(anc[nu], P.matrix[nu])  # ancilla-major layout
    N = NaimarkExtension(d=2, e=2, m=4, basis=w)
    rep = validate_extension(N, P)
    assert rep.ok
    assert extension_cost(N, canonical_distribution(P)).total < 1e-12
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rotated = rotate_ancilla(N, H)
    # every rotated row collapses onto a single ancilla block: a product basis
    expected_block = [0, 0, 1, 1]
    for nu in range(4):
        A = rotated.basis[nu].reshape(2, 2)
        block_norms = np.linalg.norm(A, axis=1)
        assert abs(block_norms[expected_block[nu]] - 1) < 1e-12
        assert block_norms[1 - expected_block[nu]] < 1e-12
    # the rotated frame is no longer canonical (rows 3 and 4 vacate block 0)
    assert not validate_extension(rotated, P).ok


def test_compress_ancilla_shrinks_and_preserves():
    P = trine()
    N = construct_completion(P, 4, chart_point(P, 4, np.random.default_rng(51)))
    w = canonical_distribution(P)
    C = compress_ancilla(N)
    assert C.e <= N.e
    assert validate_extension(C, P).ok
    assert abs(extension_cost(C, w).total - extension_cost(N, w).total) < 1e-10


def test_compress_ancilla_is_identity_at_minimal_e():
    P = random_haar(2, 4, 77)
    N = construct_default(P, 2)
    C = compress_ancilla(N)
    assert C.e == 2


NAN = float("nan")
NAN_INPUTS = {
    "prop5_extension zeta": lambda: prop5_extension(trine(), [NAN, 0]),
    "bound_prop5 zeta": lambda: bound_prop5(trine(), [NAN, 0]),
    "construct_completion Q": lambda: construct_completion(trine(), 2, [[NAN, 0]]),
    "_complete_rows rows": lambda: _complete_rows(np.array([[NAN, 0, 0, 0]])),
    "rotate_ancilla R": lambda: rotate_ancilla(construct_default(trine(), 2), [[NAN, 0], [0, 1]]),
    "Ensemble state": lambda: Ensemble([[NAN, 0]], [1]),
    "Ensemble probability": lambda: Ensemble([[1, 0]], [NAN]),
    "binary_entropy": lambda: binary_entropy(NAN),
    "binary_entropy array": lambda: binary_entropy([0.5, NAN]),
    "f_curve": lambda: f_curve(NAN),
    "gram_schmidt_complete": lambda: gram_schmidt_complete(np.array([[NAN], [0]])),
    "post_process split": lambda: post_process(trine(), [[NAN], [1], [1]]),
    "refine_to_rank1 effect": lambda: refine_to_rank1([NAN * np.eye(2)]),
    "extension_cost weights": lambda: extension_cost(construct_default(trine(), 2), [NAN, 0.5, 0.5]),
    "merge_parallel tol": lambda: merge_parallel(trine(), NAN),
    "compress_ancilla basis": lambda: compress_ancilla(NaimarkExtension(2, 2, 3, np.full((4, 4), NAN))),
}


@pytest.mark.parametrize("name", list(NAN_INPUTS))
def test_nan_input_is_rejected(name):
    # every tolerance gate is written as not (residual <= tol), which NaN fails
    with pytest.raises(ValueError):
        NAN_INPUTS[name]()


BAD_INPUTS = {
    "gram_schmidt_complete 1-D": (lambda: gram_schmidt_complete(np.ones(2)), "2-D"),
    "gram_schmidt_complete k > n": (lambda: gram_schmidt_complete(np.eye(2, 3)), "cannot complete 3"),
    "NaimarkExtension basis shape": (lambda: NaimarkExtension(2, 2, 3, np.eye(3)), "basis must be 4 x 4"),
    "rotate_ancilla R shape": (lambda: rotate_ancilla(construct_default(trine(), 2), np.eye(3)), "R must"),
    "Povm 1-D": (lambda: Povm(np.ones(2)), "2-D"),
    "Povm d = 0": (lambda: Povm(np.zeros((0, 0))), "d >= 1"),
    "random_haar d = 0": (lambda: random_haar(0, 2, 1), "d >= 1"),
    "random_haar m < d": (lambda: random_haar(3, 2, 0), "m >= d"),
    "Ensemble shape": (lambda: Ensemble([[1, 0]], [0.5, 0.5]), "matching probs"),
    "mutual_information dimensions": (
        lambda: mutual_information(trine(), Ensemble(np.eye(3), np.full(3, 1 / 3))),
        "dimensions differ",
    ),
    "convex_combine dimensions": (lambda: convex_combine(trine(), Povm(np.eye(3)), 0.5), "dimension"),
    "post_process split count": (lambda: post_process(trine(), [[1.0]]), "one split distribution"),
    "post_process empty split": (lambda: post_process(trine(), [[1.0], [], [1.0]]), r"splits\[1\]"),
    "refine_to_rank1 non-PSD effect": (
        lambda: refine_to_rank1([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])]),
        "positive semidefinite",
    ),
    "refine_to_rank1 no effects": (lambda: refine_to_rank1([]), "effects"),
    "extension_cost weights shape": (
        lambda: extension_cost(construct_default(trine(), 2), np.full((3, 1), 1 / 3)),
        r"weights must have shape \(3,\)",
    ),
}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_bad_input_raises_a_value_error_naming_it(name):
    call, message = BAD_INPUTS[name]
    with pytest.raises(ValueError, match=message):
        call()
