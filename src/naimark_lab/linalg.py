"""Dense complex linear algebra primitives.

Orthonormal completion and the base-2 binary entropy of the closed-form
bounds. All functions are pure. The entanglement entropies of extension
rows come from one batched kernel, naimark._row_entropies.
"""

from __future__ import annotations

import numpy as np

ComplexMatrix = np.ndarray

# Residual below which a candidate basis vector is considered already spanned.
_SPAN_TOL = 1e-8


def gram_schmidt_complete(cols: ComplexMatrix) -> ComplexMatrix:
    """Complete k orthonormal columns to a full n x n unitary.

    cols is (n, k), its columns orthonormal within 1e-10. Appends the
    standard basis vectors in index order by block Gram-Schmidt (see
    orthonormal_extend): candidates whose residual norm falls below 1e-8
    are skipped. The first k output columns are the input columns, bit for
    bit, and the result is unitary within 1e-9.
    """
    cols = np.asarray(cols, dtype=complex)
    if cols.ndim != 2:
        raise ValueError("expected a 2-D array of columns")
    n, k = cols.shape
    if k > n:
        raise ValueError(f"cannot complete {k} columns in dimension {n}")
    gram = cols.conj().T @ cols
    if k > 0 and not np.abs(gram - np.eye(k)).max() <= 1e-10:  # NaN fails too
        raise ValueError("input columns are not orthonormal within 1e-10")
    return orthonormal_extend(cols, np.eye(n, dtype=complex))


def orthonormal_extend(cols: ComplexMatrix, candidates: ComplexMatrix) -> ComplexMatrix:
    """Extend orthonormal columns by the candidate columns, taken in order.

    Each candidate is projected off the accepted block in one matrix-vector
    step (classical Gram-Schmidt) and projected once more after normalizing
    (twice is enough); a candidate whose first residual norm falls below
    1e-8 is already spanned and skipped. Stops once the columns span the
    space. The first k output columns are cols, bit for bit.
    """
    n, k = cols.shape
    out = np.empty((n, n), dtype=complex)
    out[:, :k] = cols
    r = k
    for c in candidates.T:
        if r == n:
            break
        B = out[:, :r]
        c = c - B @ (B.conj().T @ c)
        nrm = np.linalg.norm(c)
        if nrm < _SPAN_TOL:
            continue
        c = c / nrm
        c = c - B @ (B.conj().T @ c)
        out[:, r] = c / np.linalg.norm(c)
        r += 1
    return out[:, :r]


def _domain_error(name: str, x: np.ndarray, bad: np.ndarray, domain: str) -> ValueError:
    """ValueError naming the first flagged value of x, with its index for an array."""
    idx = tuple(int(i) for i in np.argwhere(bad)[0]) if x.ndim else ()
    if np.isnan(x[idx]):
        domain = "is not a number"
    if x.ndim == 0:
        return ValueError(f"{name} argument {x} {domain}")
    where = idx[0] if x.ndim == 1 else idx
    return ValueError(f"{name} argument {x[idx]} at index {where} {domain}")


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """H(x) = -x log2 x - (1-x) log2(1-x); accepts 1e-12 slack outside [0,1].

    Works elementwise on arrays; a scalar argument gives a float.
    """
    x = np.asarray(x, dtype=float)
    bad = ~((x >= -1e-12) & (x <= 1 + 1e-12))  # NaN is bad too
    if bad.any():
        raise _domain_error("binary_entropy", x, bad, "outside [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    y = 1 - x
    # 0 log 0 = 0: log2 sees 1 wherever its factor vanishes
    s = 0.0 - x * np.log2(np.where(x > 0, x, 1)) - y * np.log2(np.where(y > 0, y, 1))
    return float(s) if s.ndim == 0 else s
