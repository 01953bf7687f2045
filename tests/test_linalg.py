import numpy as np
import pytest

from naimark_lab import binary_entropy, gram_schmidt_complete
from conftest import haar_unitary, partial_trace, von_neumann_entropy


def test_gram_schmidt_preserves_input_columns():
    rng = np.random.default_rng(3)
    for n, k in [(4, 2), (6, 3), (5, 5)]:
        U = haar_unitary(n, rng)
        cols = U[:, :k]
        out = gram_schmidt_complete(cols)
        assert out.shape == (n, n)
        # input columns pass through untouched
        assert np.array_equal(out[:, :k], cols)
        assert np.abs(out.conj().T @ out - np.eye(n)).max() < 1e-12


def test_gram_schmidt_rejects_nonorthonormal_input():
    cols = np.array([[1.0, 0.9], [0.0, 0.1]], dtype=complex)
    with pytest.raises(ValueError):
        gram_schmidt_complete(cols)


def test_gram_schmidt_empty_input_gives_identity_completion():
    out = gram_schmidt_complete(np.zeros((4, 0), dtype=complex))
    assert np.abs(out.conj().T @ out - np.eye(4)).max() < 1e-12


def test_partial_trace_ordering_contract():
    # component i*d + j multiplies |system j>|ancilla i>
    d, e = 2, 3
    psi = np.zeros(d * e, dtype=complex)
    psi[1 * d + 0] = 1.0  # |system 0>|ancilla 1>
    rho_s = partial_trace(psi, d, e, "system")
    rho_a = partial_trace(psi, d, e, "ancilla")
    assert np.abs(rho_s - np.diag([1.0, 0.0])).max() < 1e-15
    assert np.abs(rho_a - np.diag([0.0, 1.0, 0.0])).max() < 1e-15


def test_partial_trace_schmidt_symmetry():
    rng = np.random.default_rng(17)
    for d, e in [(2, 2), (3, 5), (4, 3)]:
        psi = rng.standard_normal(d * e) + 1j * rng.standard_normal(d * e)
        psi /= np.linalg.norm(psi)
        Ss = von_neumann_entropy(partial_trace(psi, d, e, "system"))
        Sa = von_neumann_entropy(partial_trace(psi, d, e, "ancilla"))
        assert abs(Ss - Sa) < 1e-10
        assert abs(np.trace(partial_trace(psi, d, e, "system")).real - 1) < 1e-12


def test_partial_trace_input_checks():
    with pytest.raises(ValueError):
        partial_trace(np.ones(5), 2, 3, "system")
    with pytest.raises(ValueError):
        partial_trace(np.ones(6), 2, 3, "both")


def test_von_neumann_entropy_reference_points():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-12
    # unitary invariance
    rng = np.random.default_rng(2)
    U = haar_unitary(3, rng)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    assert abs(von_neumann_entropy(U @ rho @ U.conj().T) - von_neumann_entropy(rho)) < 1e-10


def test_binary_entropy_values_and_domain():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15
    x = 0.137
    assert abs(binary_entropy(x) - binary_entropy(1 - x)) < 1e-15
    assert binary_entropy(-5e-13) == 0.0  # tiny negative slack tolerated
    with pytest.raises(ValueError):
        binary_entropy(1.001)
