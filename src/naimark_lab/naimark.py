"""Naimark extensions of rank-1 POVMs.

An extension is an orthonormal basis {|w_nu>} of the de-dimensional
system (x) ancilla space, stored as a (de, de) matrix with one basis vector
per row, components ordered ancilla-major (entry i*d + j multiplies
|system j>|ancilla i>). The canonical form fixes the ancilla state to
basis vector 0 and requires block 0 of row nu to equal k_nu for nu <= m
and to vanish for nu > m. Measuring the basis with the ancilla prepared
in state 0 then reproduces the POVM, and rows nu > m never fire.

Only the m firing rows carry cost. Their completion part X satisfies
X X^dag = I - M M^dag, so X = B Q with B of rank r = m - d and Q an
r x d(e-1) matrix with orthonormal rows, one Q per X. That Q is the one
chart of the extensions: construct_completion builds the extension at Q,
and the cost optimizer searches over it. The rows past m are any
orthonormal complement of the firing rows.

A row's entanglement is the entropy of its reduced state on the system,
and one batched kernel, _row_entropies, takes it from a stack of reduced
states: extension_cost forms them from the rows, the optimizer from the
element block's fixed share and the completion's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import binary_entropy, orthonormal_extend
from .povm import ZERO_NORM_SQ, OutcomeDistribution, Povm

# forgiving orthonormality gate for internal completions; POVM validity at
# the standard 1e-9 must not be rejected here
_COMPLETE_TOL = 1e-7
# Floor inside the logarithm of the row entropies: keeps log2 finite on
# product rows, where the gradient still vanishes since sqrt(lam) log(lam) -> 0.
_LOG_FLOOR = 1e-300
_INV_LN2 = 1 / np.log(2)  # d(lam log2 lam)/d lam = log2 lam + 1/ln 2
# validate_extension's bound on both residuals
_EXTENSION_TOL = 1e-9
# extension_cost's bound on |sum(weights) - 1|: canonical weights of a POVM valid at 1e-7
_WEIGHT_TOL = 1e-6


@dataclass(frozen=True)
class NaimarkExtension:
    """Extension in the canonical frame: the ancilla is prepared in basis state 0."""

    d: int
    e: int
    m: int
    basis: np.ndarray  # (de, de), row nu = |w_nu>

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        de = self.d * self.e
        if b.shape != (de, de):
            raise ValueError(f"basis must be {de} x {de}")
        if not np.isfinite(b).all():
            raise ValueError("basis must be finite")
        object.__setattr__(self, "basis", b)


@dataclass(frozen=True)
class ExtensionCostBreakdown:
    per_outcome_entanglement: np.ndarray  # E_nu in ebits, nu <= m
    weights: OutcomeDistribution
    total: float


@dataclass(frozen=True)
class ExtensionReport:
    ok: bool
    unitarity_residual: float
    form_residual: float


def _chart(P: Povm, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The default completion X0 (m x d(e-1)) and its chart: B (m x r) and Q0, B Q0 = X0.

    X0 = [C | 0]: C holds the first r = m - d columns that in-order
    Gram-Schmidt adds to the element block zero-padded to de, over the first
    m standard basis vectors. Only r, since a near-valid column residual
    above the 1e-8 span test admits one more, which is noise. B and Q0 come
    from the thin SVD of X0.
    """
    d, m = P.d, P.m
    if d * e < m:
        raise ValueError(f"capacity d*e = {d * e} < m = {m}")
    residual = np.abs(P.matrix.conj().T @ P.matrix - np.eye(d)).max()
    if not residual <= _COMPLETE_TOL:
        raise ValueError(
            f"input columns are not orthonormal within {_COMPLETE_TOL:g} (residual {residual:.3e})"
        )
    block = np.zeros((d * e, d), dtype=complex)
    block[:m] = P.matrix
    X0 = np.zeros((m, d * (e - 1)), dtype=complex)
    X0[:, : m - d] = orthonormal_extend(block, np.eye(d * e, m, dtype=complex))[:m, d:m]
    U, s, Vh = np.linalg.svd(X0, full_matrices=False)
    return X0, U[:, : m - d] * s[: m - d], Vh[: m - d]


def _extension(P: Povm, e: int, X: np.ndarray) -> NaimarkExtension:
    """The extension whose firing rows are [M | X], completed by _complete_rows."""
    basis = _complete_rows(np.concatenate([P.matrix, X], axis=1))
    return NaimarkExtension(d=P.d, e=e, m=P.m, basis=basis)


def construct_default(P: Povm, e: int) -> NaimarkExtension:
    """The extension of the default completion X0 (see _chart)."""
    return _extension(P, e, _chart(P, e)[0])


def construct_completion(P: Povm, e: int, Q: np.ndarray) -> NaimarkExtension:
    """The extension with firing rows [M | B Q] at the chart point Q (see _chart).

    Q is (m - d) x d(e-1) with orthonormal rows within 1e-10.
    """
    _, B, _ = _chart(P, e)
    Q = np.asarray(Q, dtype=complex)
    r, n = B.shape[1], P.d * (e - 1)
    if Q.shape != (r, n):
        raise ValueError(f"Q must be {r} x {n}")
    if not np.abs(Q @ Q.conj().T - np.eye(r)).max(initial=0.0) <= 1e-10:  # NaN fails too
        raise ValueError("Q does not have orthonormal rows within 1e-10")
    return _extension(P, e, B @ Q)


def validate_extension(N: NaimarkExtension, P: Povm) -> ExtensionReport:
    """Check unitarity and the canonical form against P, both within 1e-9.

    Block 0 of row nu must match k_nu up to a global phase for nu <= m and
    vanish for nu > m; the reported form residual is the worst row.
    """
    if N.d != P.d or N.m != P.m:
        raise ValueError("extension and POVM dimensions are inconsistent")
    B = N.basis
    de = N.d * N.e
    unit = float(np.abs(B @ B.conj().T - np.eye(de)).max())
    # block 0 of every row against its target: k_nu for nu < m, zero after
    target = np.zeros((de, N.d), dtype=complex)
    target[: N.m] = P.matrix
    v0 = B[:, : N.d]
    # distance minimized over a global phase on the row
    ip = np.vecdot(target, v0)
    mag = np.abs(ip)
    live = mag > ZERO_NORM_SQ
    phase = np.ones(de, dtype=complex)
    phase[live] = ip[live] / mag[live]
    form = float(np.linalg.norm(v0 - phase[:, None] * target, axis=1).max())
    ok = unit <= _EXTENSION_TOL and form <= _EXTENSION_TOL
    return ExtensionReport(ok=ok, unitarity_residual=unit, form_residual=form)


def _row_entropies(rho: np.ndarray, grad: bool = False):
    """Entanglement entropy in bits of each row across the system/ancilla cut.

    rho is (k, d, d), the rows' reduced states: row nu's is rho_nu = A^T A^*
    of its (e, d) reshape A, ancilla-major. One batched eigh diagonalizes
    the stack. With grad=True, also returns V (k, d, d) and
    g = log2(lam) + 1/ln 2 (k, d): S is a trace function, so dS = Tr(G drho)
    with G = -(log2 rho + 1/ln 2) = -V diag(g) V^dag.
    """
    lam, V = np.linalg.eigh(rho)
    lam = np.minimum(np.maximum(lam, 0.0), 1.0)
    log_lam = np.log2(np.maximum(lam, _LOG_FLOOR))
    S = -(lam * log_lam).sum(axis=1) + 0.0  # squash -0.0
    if not grad:
        return S
    return S, V, log_lam + _INV_LN2


def extension_cost(N: NaimarkExtension, weights: OutcomeDistribution) -> ExtensionCostBreakdown:
    """Weighted entanglement of the extension: E = sum_nu w_nu E_nu over nu <= m.

    E_nu is the base-2 entropy of the reduced state of row nu; rows past m
    never fire and carry no cost.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.size != N.m:
        raise ValueError("need one weight per POVM outcome")
    if not (weights.min() >= 0 and abs(weights.sum() - 1) <= _WEIGHT_TOL):  # NaN fails too
        raise ValueError(f"weights must be non-negative and sum to 1 within {_WEIGHT_TOL:g}")
    A = N.basis[: N.m].reshape(N.m, N.e, N.d)
    ent = _row_entropies(np.einsum("kia,kib->kab", A, A.conj()))
    return ExtensionCostBreakdown(
        per_outcome_entanglement=ent, weights=weights, total=float(ent @ weights)
    )


def marginal_povms(N: NaimarkExtension) -> list[Povm]:
    """Ancilla slice i -> the POVM {|v^i_nu>}_nu, zero-norm members dropped."""
    out = []
    for i in range(N.e):
        block = N.basis[:, i * N.d : (i + 1) * N.d]
        norms2 = np.einsum("ij,ij->i", block.conj(), block).real
        out.append(Povm(block[norms2 >= ZERO_NORM_SQ]))
    return out


def _complete_rows(W: np.ndarray) -> np.ndarray:
    """Complete orthonormal rows W (m x n) to an n x n unitary, rows first.

    The first m rows are W, bit for bit; the rest are the orthonormal
    complement from one complete-mode Householder QR of W^dag. Rows past m
    never fire, so any complement serves: the cost sees only W. Every
    extension the library builds is completed here.
    """
    m, n = W.shape
    if not np.abs(W @ W.conj().T - np.eye(m)).max() <= _COMPLETE_TOL:  # NaN fails too
        raise ValueError("rows are not orthonormal within tol")
    U = np.empty((n, n), dtype=complex)
    U[:m] = W
    U[m:] = np.linalg.qr(W.conj().T, mode="complete")[0][:, m:].conj().T
    return U


def _check_zeta(P: Povm, zeta: np.ndarray) -> np.ndarray:
    zeta = np.asarray(zeta, dtype=complex).ravel()
    if zeta.size != P.d:
        raise ValueError("zeta has the wrong dimension")
    if not abs(np.vdot(zeta, zeta).real - 1) <= 1e-10:  # NaN fails too
        raise ValueError("zeta must be normalized")
    return zeta


def _prop5_predicted(P: Povm, zetas: np.ndarray) -> np.ndarray:
    """Closed-form cost of the one-extra-direction extension on each unit row of zetas (K, d)."""
    norms2 = np.einsum("ij,ij->i", P.matrix.conj(), P.matrix).real
    live = norms2 >= ZERO_NORM_SQ
    r2 = norms2[live]
    directions = P.matrix[live] / np.sqrt(r2)[:, None]
    t = np.abs(np.vecdot(zetas[:, None], directions)) ** 2  # (K, m): |<zeta|k_mu_hat>|^2
    alpha = 1 - 2 * r2
    arg = alpha**2 + (1 - alpha**2) * t
    return ((r2 / P.d) * binary_entropy(0.5 - 0.5 * np.sqrt(arg))).sum(axis=1)


def prop5_extension(P: Povm, zeta: np.ndarray) -> tuple[NaimarkExtension, float]:
    """One-extra-direction extension |w_nu> = |k_nu>|a_0> + |zeta>|xi_nu>.

    The xi_nu live in the ancilla directions 1..m and reproduce the Gram
    deficit delta_ab - <k_a|k_b>; zeta is any unit system vector. Returns
    the extension (ancilla dimension m+1) together with its closed-form
    cost, which the measured extension_cost matches to ~1e-9.
    """
    zeta = _check_zeta(P, zeta)
    M = P.matrix
    m, d = P.m, P.d
    e = m + 1
    de = d * e

    # Gram target: <xi_a|xi_b> = delta_ab - <k_a|k_b>; conjugation puts the
    # POVM Gram into position, since (M M^dag)[a,b] = <k_b|k_a>. Any factor
    # X^dag X = K serves: row nu's entropy sees X only through ||xi_nu||.
    K = np.eye(m) - np.conj(M @ M.conj().T)
    lam, V = np.linalg.eigh(K)
    keep = lam >= 1e-12
    X = (np.sqrt(lam[keep])[:, None]) * V[:, keep].conj().T  # (r, m), col nu = xi_nu

    W = np.zeros((m, de), dtype=complex)
    W[:, :d] = M
    for i in range(X.shape[0]):
        W[:, (i + 1) * d : (i + 2) * d] = np.outer(X[i], zeta)
    basis = _complete_rows(W)
    return NaimarkExtension(d=d, e=e, m=m, basis=basis), float(_prop5_predicted(P, zeta[None])[0])


def rotate_ancilla(N: NaimarkExtension, R: np.ndarray) -> NaimarkExtension:
    """Apply the ancilla unitary R to every basis vector.

    Entanglements are unchanged; the canonical form survives only when
    R fixes ancilla basis vector 0 up to phase. Callers validating an
    external extension whose fixed ancilla state is some |a0> != basis
    vector 0 should pass an R mapping |a0> to basis vector 0.
    """
    R = np.asarray(R, dtype=complex)
    if R.shape != (N.e, N.e):
        raise ValueError("R must act on the ancilla space")
    if not np.abs(R.conj().T @ R - np.eye(N.e)).max() <= 1e-10:  # NaN fails too
        raise ValueError("R is not unitary within 1e-10")
    de = N.d * N.e
    rows = (R @ N.basis.reshape(de, N.e, N.d)).reshape(de, de)
    return NaimarkExtension(d=N.d, e=N.e, m=N.m, basis=rows)


def compress_ancilla(N: NaimarkExtension) -> NaimarkExtension:
    """Shrink the ancilla to the support actually used by the first m rows.

    The m firing rows occupy at most m*d ancilla dimensions, and for a
    valid canonical extension ancilla vector 0 lies inside that support.
    Rotating the support to the leading coordinates (keeping vector 0
    fixed) and truncating preserves every per-outcome entanglement.
    """
    d, e, m = N.d, N.e, N.m
    A = N.basis[:m].reshape(m, e, d)
    # ancilla vector 0 first, then the columns of A_1, ..., A_m in order
    candidates = np.concatenate(
        [np.eye(e, 1, dtype=complex), A.transpose(1, 0, 2).reshape(e, m * d)], axis=1
    )
    Q = orthonormal_extend(np.empty((e, 0), dtype=complex), candidates)  # (e, r)
    e_new = Q.shape[1]
    W = (Q.conj().T @ A).reshape(m, d * e_new)
    return NaimarkExtension(d=d, e=e_new, m=m, basis=_complete_rows(W))
