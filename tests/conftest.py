"""Shared constructions for the test suite, the entropy oracle and the pairing check.

partial_trace and von_neumann_entropy compute a row's entanglement one
row at a time, independently of the library's batched row-entropy kernel.
"""

import os

# One BLAS thread: the matrices here are tiny, and extra threads only add CPU
# time. Set before numpy is first imported, or the setting has no effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from naimark_lab import Povm, convex_combine, merge_parallel, post_process

# frozen reference values, computed independently of the library
TRINE_EXACT = 0.49600503416600095  # (2/3) H((1 - 1/sqrt(3))/2)
E_AT_PI_3 = 0.5218506219142366  # (2 f(1/2) + f(-1)) / 3
LOG2_3_MINUS_1 = 0.5849625007211562


def partial_trace(state: np.ndarray, d: int, e: int, keep: str) -> np.ndarray:
    """Reduced density matrix of a pure state on system (dim d) x ancilla (dim e).

    The component ordering is lexicographic in the product basis with the
    ancilla index outermost: entry i*d + j multiplies |system j>|ancilla i>,
    so the first d entries are the block attached to ancilla state 0.
    """
    state = np.asarray(state, dtype=complex).ravel()
    if state.size != d * e:
        raise ValueError(f"state length {state.size} != d*e = {d * e}")
    A = state.reshape(e, d)
    if keep == "system":
        return A.T @ A.conj()
    if keep == "ancilla":
        return A @ A.conj().T
    raise ValueError("keep must be 'system' or 'ancilla'")


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -sum lam log2 lam in bits, eigenvalues clamped to [0, 1]."""
    lam = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    lam = np.clip(lam.real, 0.0, 1.0)
    nz = lam[lam > 0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0  # squash -0.0


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def kpom() -> Povm:
    """Four-outcome qubit POVM: both computational and Hadamard bases at half weight."""
    s = 1 / np.sqrt(2)
    return Povm(np.array([[1, 0], [0, 1], [s, s], [s, -s]], dtype=complex) * s)


def n_d3() -> Povm:
    """Five-outcome zero-cost POVM in d = 3 that is not a basis mixture."""
    s = 1 / np.sqrt(2)
    return Povm(
        np.array(
            [
                [1, 0, 0],
                [0, s, 0],
                [0, 0, s],
                [0, 0.5, 0.5],
                [0, 0.5, -0.5],
            ],
            dtype=complex,
        )
    )


def n_d3_unmerged() -> Povm:
    """The six-element parent of n_d3: mixture of two von Neumann bases in d = 3."""
    s = 1 / np.sqrt(2)
    return Povm(
        np.array(
            [
                [s, 0, 0],
                [0, s, 0],
                [0, 0, s],
                [s, 0, 0],
                [0, 0.5, 0.5],
                [0, 0.5, -0.5],
            ],
            dtype=complex,
        )
    )


def two_basis_mixture(seed: int) -> Povm:
    """Random mixture p U0 + (1-p) U1 of two Haar qubit bases (m = 4)."""
    rng = np.random.default_rng(seed)
    U0 = haar_unitary(2, rng)
    U1 = haar_unitary(2, rng)
    p = float(rng.uniform(0.15, 0.85))
    return convex_combine(Povm(U0.conj()), Povm(U1.conj()), p)


def random_split(P: Povm, seed: int, max_parts: int = 2) -> Povm:
    """Post-process P with a random per-outcome classical refinement."""
    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(P.m):
        parts = int(rng.integers(1, max_parts + 1))
        w = rng.uniform(0.2, 1.0, parts)
        splits.append(list(w / w.sum()))
    return post_process(P, splits)


def split_one(P: Povm, seed: int) -> Povm:
    """Post-process P by splitting one seed-chosen outcome into two parts."""
    rng = np.random.default_rng(seed)
    mu = int(rng.integers(P.m))
    q = float(rng.uniform(0.25, 0.75))
    splits = [[1.0]] * P.m
    splits[mu] = [q, 1 - q]
    return post_process(P, splits)


def qubit_sic() -> Povm:
    """Tetrahedron POVM: four elements |psi_k>/sqrt(2) with tetrahedral Bloch vectors."""
    rows = [[1, 0]] + [
        [1 / np.sqrt(3), np.sqrt(2 / 3) * np.exp(2j * np.pi * k / 3)] for k in range(3)
    ]
    return Povm(np.array(rows, dtype=complex) / np.sqrt(2))


def pairing_is_valid(P: Povm, cert) -> bool:
    """The certificate pairs every merged element with an orthogonal equal-weight partner."""
    M = merge_parallel(P).matrix
    if cert.pairing is None:
        return False
    if sorted(i for pair in cert.pairing for i in pair) != list(range(M.shape[0])):
        return False
    for i, j in cert.pairing:
        if abs(np.vdot(M[i], M[j])) > 1e-9:
            return False
        if abs(np.vdot(M[i], M[i]).real - np.vdot(M[j], M[j]).real) > 1e-9:
            return False
    return True
