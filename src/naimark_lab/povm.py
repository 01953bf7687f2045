"""Rank-1 POVM data model and constructions.

A POVM with m rank-1 elements |k_mu><k_mu| on a d-dimensional system is
stored as the m x d matrix whose rows are the sub-normalized vectors k_mu.
Validity is column orthonormality of that matrix, equivalently
sum_mu |k_mu><k_mu| = I. Element order is significant and preserved by
every construction; global element phases are physically meaningless, so
comparisons are phase-insensitive per element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OutcomeDistribution = np.ndarray

# squared norm below which an element carries no weight at all
ZERO_NORM_SQ = 1e-14


@dataclass(frozen=True)
class Povm:
    """Rank-1 POVM: rows of `matrix` are the element vectors k_mu."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError("POVM matrix must be 2-D (m x d)")
        if not np.isfinite(m).all():
            raise ValueError("POVM matrix has non-finite entries")
        if m.shape[0] < m.shape[1]:
            raise ValueError(f"need at least d={m.shape[1]} elements, got {m.shape[0]}")
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Ensemble:
    """Pure-state source {|psi_i>; p_i}: rows of `states` are unit vectors."""

    states: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        st = np.asarray(self.states, dtype=complex)
        pr = np.asarray(self.probs, dtype=float)
        if st.ndim != 2 or pr.ndim != 1 or st.shape[0] != pr.size:
            raise ValueError("states must be (n, d) with n matching probs")
        norms = np.linalg.norm(st, axis=1)
        if not np.abs(norms - 1).max() <= 1e-10:  # NaN fails too
            raise ValueError("ensemble states must be normalized")
        if not (pr.min() >= 0 and abs(pr.sum() - 1) <= 1e-12):
            raise ValueError("probs must be nonnegative and sum to 1")
        object.__setattr__(self, "states", st)
        object.__setattr__(self, "probs", pr)

    @property
    def d(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    max_residual: float
    zero_norm_indices: tuple = field(default_factory=tuple)


def validate(P: Povm, tol: float = 1e-9) -> ValidationReport:
    """Check column orthonormality: ok iff ||M^dag M - I||_max <= tol.

    Zero-norm elements (squared norm < 1e-14) cannot affect the residual;
    they are flagged in zero_norm_indices so callers can drop them.
    """
    M = P.matrix
    # an overflowing product |M_ki M_kj| <= max(|M_ki|^2, |M_kj|^2) means a
    # diagonal entry of M^dag M, and so the residual, exceeds the float range
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.abs(M.conj().T @ M - np.eye(P.d)).max())
    if not np.isfinite(residual):
        residual = np.inf
    zero = tuple(i for i in range(P.m) if np.vdot(M[i], M[i]).real < ZERO_NORM_SQ)
    return ValidationReport(ok=residual <= tol, max_residual=residual, zero_norm_indices=zero)


def canonical_distribution(P: Povm) -> OutcomeDistribution:
    """Outcome distribution on a maximally mixed source: q_mu = <k_mu|k_mu>/d."""
    return np.einsum("ij,ij->i", P.matrix.conj(), P.matrix).real / P.d


def mutual_information(P: Povm, E: Ensemble) -> float:
    """I(outcome : state label) in bits for the ensemble measured by P."""
    if E.d != P.d:
        raise ValueError("ensemble and POVM dimensions differ")
    amp = E.states.conj() @ P.matrix.T
    joint = E.probs[:, None] * np.abs(amp) ** 2  # p(i & mu)
    p_out = joint.sum(axis=0)
    p_in = E.probs
    info = 0.0
    for i in range(joint.shape[0]):
        for mu in range(joint.shape[1]):
            j = joint[i, mu]
            if j > 0:
                info += j * np.log2(j / (p_in[i] * p_out[mu]))
    return float(info)


def trine() -> Povm:
    """The three-outcome qubit trine: sqrt(2/3)(-sin(mu pi/3)|0> + cos(mu pi/3)|1>)."""
    mus = np.arange(1, 4)
    rows = np.sqrt(2 / 3) * np.stack(
        [-np.sin(mus * np.pi / 3), np.cos(mus * np.pi / 3)], axis=1
    )
    return Povm(rows.astype(complex))


def trine_source() -> Ensemble:
    """Equiprobable source states alpha_mu, each orthogonal to trine element mu."""
    mus = np.arange(1, 4)
    states = np.stack([np.cos(mus * np.pi / 3), np.sin(mus * np.pi / 3)], axis=1)
    return Ensemble(states.astype(complex), np.full(3, 1 / 3))


def random_haar(d: int, m: int, seed: int) -> Povm:
    """Uniformly random m x d matrix with orthonormal columns, rows as elements.

    Complex Gaussian entries followed by QR with the R-diagonal phase fix,
    which makes the column frame Haar distributed. Deterministic per seed.
    """
    if m < d:
        raise ValueError("need m >= d")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    Q, R = np.linalg.qr(G, mode="reduced")
    diag = np.diagonal(R)
    Q = Q * (diag / np.abs(diag))
    return Povm(Q)


def convex_combine(P0: Povm, P1: Povm, p0: float) -> Povm:
    """Probabilistic mixture: sqrt(p0) P0 elements then sqrt(1-p0) P1 elements."""
    if P0.d != P1.d:
        raise ValueError("dimension mismatch")
    if not 0 <= p0 <= 1:
        raise ValueError("p0 must lie in [0, 1]")
    return Povm(np.vstack([np.sqrt(p0) * P0.matrix, np.sqrt(1 - p0) * P1.matrix]))


def post_process(P: Povm, splits: list[list[float]]) -> Povm:
    """Classically split outcome mu into len(splits[mu]) outcomes sqrt(p) k_mu."""
    if len(splits) != P.m:
        raise ValueError("one split distribution per element required")
    rows = []
    for mu, probs in enumerate(splits):
        probs = np.asarray(probs, dtype=float)
        if not (probs.min() >= 0 and abs(probs.sum() - 1) <= 1e-12):
            raise ValueError(f"split {mu} is not a probability distribution")
        for p in probs:
            rows.append(np.sqrt(p) * P.matrix[mu])
    return Povm(np.array(rows))


def merge_parallel(P: Povm, tol: float = 1e-9) -> Povm:
    """Merge parallel element pairs into single elements of combined weight.

    Two elements are parallel when their normalized overlap magnitude is
    >= 1 - tol. Classes merge into their lowest-index member's direction;
    zero-norm elements are dropped (no direction to merge on). Idempotent.
    Raises ValueError for a NaN or negative tol, and when fewer than d
    elements are left.
    """
    if not tol >= 0:  # NaN fails too
        raise ValueError(f"tol must be >= 0, got {tol}")
    rows = [P.matrix[i] for i in range(P.m)]
    keep: list[np.ndarray] = []
    used = [False] * len(rows)
    for i, row in enumerate(rows):
        if used[i]:
            continue
        ni = np.vdot(row, row).real
        if ni < ZERO_NORM_SQ:
            used[i] = True
            continue
        total = ni
        for j in range(i + 1, len(rows)):
            if used[j]:
                continue
            nj = np.vdot(rows[j], rows[j]).real
            if nj < ZERO_NORM_SQ:
                used[j] = True
                continue
            overlap = abs(np.vdot(row, rows[j])) / np.sqrt(ni * nj)
            if overlap >= 1 - tol:
                total += nj
                used[j] = True
        used[i] = True
        keep.append(np.sqrt(total / ni) * row)
    if len(keep) < P.d:
        raise ValueError(
            f"merging parallel elements at tol = {tol:g} leaves {len(keep)} element(s), "
            f"fewer than d = {P.d}"
        )
    return Povm(np.array(keep))


def tensor(P: Povm, Q: Povm) -> Povm:
    """Tensor-product POVM: elements k_mu (x) l_nu in lexicographic order."""
    return Povm(np.kron(P.matrix, Q.matrix))


def refine_to_rank1(effects: list[np.ndarray]) -> Povm:
    """Split PSD effects summing to I into rank-1 pieces sqrt(lam) |v>.

    Each effect must be Hermitian within 1e-10. Eigen-branches below 1e-12
    are dropped. Branch order: effects in input order, eigenvalues
    descending within each effect.
    """
    effects = [np.asarray(a, dtype=complex) for a in effects]
    d = effects[0].shape[0]
    total = sum(effects)
    if not np.abs(total - np.eye(d)).max() <= 1e-9:  # NaN fails too
        raise ValueError("effects do not sum to the identity")
    rows = []
    for a in effects:
        if not np.abs(a - a.conj().T).max() <= 1e-10:
            raise ValueError("effect is not Hermitian within 1e-10")
        lam, V = np.linalg.eigh(a)
        lam, V = lam[::-1], V[:, ::-1]
        if lam.min() < -1e-10:
            raise ValueError("effect is not positive semidefinite")
        for l, v in zip(lam, V.T):
            if l >= 1e-12:
                rows.append(np.sqrt(l) * v)
    return Povm(np.array(rows))
