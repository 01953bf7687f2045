"""Output checks made apart from the library, with numpy arithmetic only.

Nothing here imports naimark_lab: each check recomputes what it needs from
the POVM matrix M (m rows k_mu of length d) and the returned arrays, or
tests a property the method must have. Every failed check raises
CheckFailed with a message naming the quantity and its size.
"""

from __future__ import annotations

import numpy as np

# tolerances fixed by the benchmark, not taken from the library
EXT_TOL = 1e-9  # unitarity and canonical form of an extension
COST_TOL = 1e-9  # returned cost against its SVD recomputation
CAP_SLACK = 1e-6  # closed-form upper bounds
TRINE_LOW, TRINE_HIGH = 1e-9, 1e-6  # trine cost window around T
PAIR_TOL = 1e-9  # orthogonality and equal weight of a zero-cost pairing


class CheckFailed(Exception):
    """An output of the library fails a check of the benchmark."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def binary_entropy(x: float) -> float:
    x = min(max(float(x), 0.0), 1.0)
    return float(-sum(p * np.log2(p) for p in (x, 1.0 - x) if p > 0))


def trine_value() -> float:
    """T = (2/3) H((1 - 1/sqrt(3))/2), the proven trine cost."""
    return (2.0 / 3.0) * binary_entropy((1.0 - 1.0 / np.sqrt(3.0)) / 2.0)


def cost_cap(d: int, m: int) -> float:
    """min(1 - 1/m, H((1 - 1/sqrt(d))/2)), both from their closed forms."""
    return min(1.0 - 1.0 / m, binary_entropy((1.0 - 1.0 / np.sqrt(d)) / 2.0))


def outcome_weights(M: np.ndarray) -> np.ndarray:
    """q_mu = <k_mu|k_mu>/d."""
    return np.sum(np.abs(M) ** 2, axis=1) / M.shape[1]


def svd_cost(basis: np.ndarray, M: np.ndarray, e: int) -> float:
    """Weighted entanglement of the firing rows from their Schmidt coefficients.

    Row nu, reshaped to (e, d) (ancilla-major), has singular values s; the
    entanglement entropy is H(s^2 / sum s^2) in bits.
    """
    m, d = M.shape
    total = 0.0
    for nu, q in enumerate(outcome_weights(M)):
        s2 = np.linalg.svd(basis[nu].reshape(e, d), compute_uv=False) ** 2
        p = s2[s2 > 0] / s2.sum()
        total += q * float(-(p * np.log2(p)).sum())
    return total


def check_extension(basis: np.ndarray, M: np.ndarray, e: int, what: str) -> None:
    """Unitary (de, de) basis whose block 0 holds k_nu (up to phase), then zeros."""
    m, d = M.shape
    de = d * e
    B = np.asarray(basis)
    require(B.shape == (de, de), f"{what}: basis shape {B.shape} is not ({de}, {de})")
    unit = float(np.abs(B @ B.conj().T - np.eye(de)).max())
    require(unit <= EXT_TOL, f"{what}: unitarity residual {unit:.3e} > {EXT_TOL:g}")
    block0 = B[:, :d]
    form = float(np.linalg.norm(block0[m:], axis=1).max()) if de > m else 0.0
    for nu in range(m):
        ip = np.vdot(M[nu], block0[nu])
        phase = ip / abs(ip) if abs(ip) > 0 else 1.0
        form = max(form, float(np.linalg.norm(block0[nu] - phase * M[nu])))
    require(form <= EXT_TOL, f"{what}: canonical-form residual {form:.3e} > {EXT_TOL:g}")


def check_cost(cost: float, basis: np.ndarray, M: np.ndarray, e: int, what: str) -> None:
    """Extension valid, cost equal to its SVD recomputation and inside [0, cap]."""
    check_extension(basis, M, e, what)
    ref = svd_cost(basis, M, e)
    require(abs(cost - ref) <= COST_TOL, f"{what}: cost {cost!r} != SVD cost {ref!r}")
    m, d = M.shape
    check_cost_range(cost, d, m, what)


def check_cost_range(cost: float, d: int, m: int, what: str) -> None:
    cap = cost_cap(d, m)
    require(cost >= 0.0, f"{what}: cost {cost!r} < 0")
    require(cost <= cap + CAP_SLACK, f"{what}: cost {cost!r} above the cap {cap!r} + {CAP_SLACK:g}")


def check_trine_cost(cost: float, what: str) -> None:
    T = trine_value()
    require(
        T - TRINE_LOW <= cost <= T + TRINE_HIGH,
        f"{what}: trine cost {cost!r} outside [T - {TRINE_LOW:g}, T + {TRINE_HIGH:g}], T = {T!r}",
    )


def merge_parallel_rows(M: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Merge parallel rows into the lowest-index member; drop zero rows."""
    norms2 = np.sum(np.abs(M) ** 2, axis=1)
    used = norms2 < 1e-14
    out = []
    for i in range(M.shape[0]):
        if used[i]:
            continue
        total = norms2[i]
        for j in range(i + 1, M.shape[0]):
            if not used[j] and abs(np.vdot(M[i], M[j])) >= (1 - tol) * np.sqrt(norms2[i] * norms2[j]):
                total += norms2[j]
                used[j] = True
        out.append(np.sqrt(total / norms2[i]) * M[i])
    return np.array(out)


def check_pairing(M: np.ndarray, pairing, what: str) -> None:
    """Pairs of merged elements: orthogonal, equal weight, each element once."""
    R = merge_parallel_rows(M)
    require(pairing is not None, f"{what}: zero decision without a pairing")
    flat = sorted(i for pair in pairing for i in pair)
    require(flat == list(range(R.shape[0])), f"{what}: pairing {pairing} does not cover {R.shape[0]} elements once")
    for i, j in pairing:
        overlap = abs(np.vdot(R[i], R[j]))
        gap = abs(np.vdot(R[i], R[i]).real - np.vdot(R[j], R[j]).real)
        require(overlap <= PAIR_TOL, f"{what}: pair ({i},{j}) overlap {overlap:.3e}")
        require(gap <= PAIR_TOL, f"{what}: pair ({i},{j}) weight gap {gap:.3e}")


def check_margins(M: np.ndarray, margins, decision: str, what: str) -> None:
    """Necessary-condition margins of a POVM with no orthogonal element pair.

    Without orthogonal partners the margin of element mu is the least
    eigenvalue of |k_mu><k_mu| minus <k_mu|k_mu>, that is -<k_mu|k_mu>
    for d >= 2, and a negative margin proves nonzero cost.
    """
    norms2 = np.sum(np.abs(M) ** 2, axis=1)
    gram = np.abs(M.conj() @ M.T) / np.sqrt(np.outer(norms2, norms2))
    np.fill_diagonal(gram, 1.0)
    require(gram.min() > 1e-6, f"{what}: input has an orthogonal element pair")
    gap = float(np.abs(np.asarray(margins) + norms2).max())
    require(gap <= 1e-12, f"{what}: margins differ from -<k|k> by {gap:.3e}")
    require(decision == "nonzero", f"{what}: decision {decision!r} with negative margins")


def check_rising_curve(values: np.ndarray, what: str) -> None:
    """E(theta) nondecreasing on the grid and equal to T at theta = 0."""
    values = np.asarray(values)
    T = trine_value()
    drop = float(np.diff(values).min())
    require(drop >= -1e-12, f"{what}: E(theta) decreases by {-drop:.3e}")
    require(abs(values[0] - T) <= 1e-9, f"{what}: E(0) = {values[0]!r} != T = {T!r}")
