"""Dense complex linear algebra primitives.

Orthonormal completion, Hermitian eigendecomposition with canonical phases,
partial trace over a bipartite cut, and the two entropies everything
downstream is measured in. All functions are pure and all entropies are
base 2 (ebits / bits).
"""

from __future__ import annotations

import numpy as np

ComplexVector = np.ndarray
ComplexMatrix = np.ndarray
DensityMatrix = np.ndarray

# Residual below which a candidate basis vector is considered already spanned.
_SPAN_TOL = 1e-8


def gram_schmidt_complete(cols: ComplexMatrix, tol: float = 1e-10) -> ComplexMatrix:
    """Complete k orthonormal columns to a full n x n unitary.

    Uses modified Gram-Schmidt against the standard basis vectors taken in
    index order, skipping candidates whose residual norm falls below 1e-8,
    and re-orthogonalizing each accepted vector once (twice is enough).
    The first k output columns are the input columns, bit for bit.

    Parameters
    ----------
    cols : (n, k) complex ndarray with orthonormal columns.
    tol : tolerance for the input orthonormality check.

    Returns
    -------
    (n, n) complex ndarray, unitary within 10*tol.
    """
    cols = np.asarray(cols, dtype=complex)
    if cols.ndim != 2:
        raise ValueError("expected a 2-D array of columns")
    n, k = cols.shape
    if k > n:
        raise ValueError(f"cannot complete {k} columns in dimension {n}")
    gram = cols.conj().T @ cols
    if k > 0 and np.abs(gram - np.eye(k)).max() > tol:
        raise ValueError("input columns are not orthonormal within tol")

    basis = list(cols.T)  # row view of accepted columns
    for j in range(n):
        if len(basis) == n:
            break
        c = np.zeros(n, dtype=complex)
        c[j] = 1.0
        for b in basis:
            c = c - b * (b.conj() @ c)
        nrm = np.linalg.norm(c)
        if nrm < _SPAN_TOL:
            continue
        c = c / nrm
        # one re-orthogonalization pass
        for b in basis:
            c = c - b * (b.conj() @ c)
        c = c / np.linalg.norm(c)
        basis.append(c)
    if len(basis) != n:
        # cannot happen for orthonormal input; guards degenerate callers
        raise ValueError("failed to complete the basis")
    out = np.array(basis).T
    out[:, :k] = cols
    return out


def hermitian_eigensystem(H: ComplexMatrix, tol: float = 1e-10):
    """Eigendecompose a Hermitian matrix with reproducible output.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and each eigenvector column phased so its largest-magnitude entry is
    real positive. Bit-equal eigenvalues are ordered by the canonicalized
    eigenvector components so the output is deterministic.
    """
    H = np.asarray(H, dtype=complex)
    if np.abs(H - H.conj().T).max() > tol:
        raise ValueError("matrix is not Hermitian within tol")
    w, V = np.linalg.eigh(H)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if np.abs(pivot) > 0:
            V[:, j] = col * (np.abs(pivot) / pivot)
    # deterministic order inside exactly-degenerate blocks
    j = 0
    n = len(w)
    while j < n:
        j2 = j
        while j2 + 1 < n and w[j2 + 1] == w[j]:
            j2 += 1
        if j2 > j:
            block = sorted(
                range(j, j2 + 1),
                key=lambda c: tuple(np.stack([V[:, c].real, V[:, c].imag], -1).ravel()),
            )
            V[:, j : j2 + 1] = V[:, block]
        j = j2 + 1
    return w, V


def partial_trace(state: ComplexVector, d: int, e: int, keep: str) -> DensityMatrix:
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


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum lam log2 lam in bits, eigenvalues clamped to [0, 1]."""
    lam = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    lam = np.clip(lam.real, 0.0, 1.0)
    nz = lam[lam > 0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0  # squash -0.0


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2(1-x); accepts 1e-12 slack outside [0,1]."""
    if x < -1e-12 or x > 1 + 1e-12:
        raise ValueError(f"binary_entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    s = 0.0
    if x > 0:
        s -= x * np.log2(x)
    if x < 1:
        s -= (1 - x) * np.log2(1 - x)
    return float(s)
