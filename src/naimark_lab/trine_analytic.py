"""Closed-form machinery for the trine measurement's entanglement cost.

Minimizing the trine's weighted extension entanglement reduces to a
one-parameter family over the placement angle theta of the three
direction vectors on a Bloch great circle; its minimum, at theta = 0, is
the exact trine cost (2/3) H((1 - 1/sqrt(3))/2) = 0.496005 ebits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _domain_error, binary_entropy

_TWO_THIRDS_PI = 2 * np.pi / 3
# grid of mixing_reduction_scan: mixing weights p on [0, 1], angles on [0, pi/3]
_MIXING_P_POINTS = 21
_MIXING_THETA_POINTS = 61


def f_curve(z: float | np.ndarray) -> float | np.ndarray:
    """f(z) = H(1/2 + sqrt(4z + 5)/6); needs 4z + 5 >= 0, i.e. z >= -1.25.

    Works elementwise on arrays; a scalar argument gives a float.
    """
    z = np.asarray(z, dtype=float)
    arg = 4 * z + 5
    bad = arg < 0
    if bad.any():
        raise _domain_error("f_curve", z, bad, "below -1.25")
    return binary_entropy(0.5 + np.sqrt(arg) / 6)


def trine_E_theta(theta: float | np.ndarray) -> float | np.ndarray:
    """Cost of the symmetric trine realization at placement angle theta.

    E(theta) = (1/3) sum_{k=-1,0,1} f(cos(theta + 2k pi/3)); even in theta
    and periodic with period 2 pi/3. Broadcasts over an array of angles; it
    is mixed_ancilla_E at p = 1.
    """
    return mixed_ancilla_E(1.0, theta)


def trine_cost_exact() -> float:
    """Exact trine cost (2/3) H((1 - 1/sqrt(3))/2) = 0.49600503416600095."""
    return (2 / 3) * binary_entropy((1 - 1 / np.sqrt(3)) / 2)


@dataclass(frozen=True)
class TrineCurve:
    thetas: np.ndarray
    values: np.ndarray


def trine_curve(grid_points: int) -> TrineCurve:
    """Sample E(theta) at grid_points + 1 evenly spaced thetas on [0, pi/3]."""
    thetas = np.linspace(0.0, np.pi / 3, grid_points + 1)
    return TrineCurve(thetas=thetas, values=trine_E_theta(thetas))


@dataclass(frozen=True)
class DerivativeScan:
    monotone: bool
    min_at: float


def derivative_sign_scan(grid_points: int) -> DerivativeScan:
    """Scan E'(theta) by central differences on a uniform grid over [0, pi/3].

    Reports whether the curve is nondecreasing across the scan (derivative
    >= -1e-9 everywhere) and the grid angle of its minimum value. The scan
    finds the minimum at theta = 0 with the curve rising toward pi/3.
    """
    if grid_points < 100:
        raise ValueError("need at least 100 grid points")
    thetas = np.linspace(0.0, np.pi / 3, grid_points)
    h = thetas[1] - thetas[0]
    values = trine_E_theta(thetas)
    deriv = (trine_E_theta(thetas + h) - trine_E_theta(thetas - h)) / (2 * h)
    return DerivativeScan(
        monotone=bool(deriv.min() >= -1e-9),
        min_at=float(thetas[int(np.argmin(values))]),
    )


@dataclass(frozen=True)
class ConcavityReport:
    is_concave: bool
    worst_violation: float


def concavity_check(samples: int) -> ConcavityReport:
    """Second-difference concavity test of H((1 - sqrt(x))/2) and f(z).

    Both curves are sampled on uniform grids ([0,1] and [-1,1]); concavity
    holds when every second difference is <= 1e-10. worst_violation is the
    largest second difference observed (negative when cleanly concave).
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    g = binary_entropy((1 - np.sqrt(np.linspace(0.0, 1.0, samples))) / 2)
    f = f_curve(np.linspace(-1.0, 1.0, samples))
    worst = max(np.diff(g, 2).max(), np.diff(f, 2).max())
    return ConcavityReport(is_concave=bool(worst <= 1e-10), worst_violation=float(worst))


def mixed_ancilla_E(p: float | np.ndarray, theta: float | np.ndarray) -> float | np.ndarray:
    """Cost surface when the fixed ancilla state is mixed with weight p.

    The reduced outcome states become (2/3)|b_mu><b_mu| + (p/3)|0><0|
    + ((1-p)/6) I, with Bloch length sqrt(4 + p^2 + 4 p cos(.))/3; p = 1
    recovers trine_E_theta. p and theta broadcast against each other.
    """
    total = 0.0
    for k in (-1, 0, 1):
        arg = 4 + p * p + 4 * p * np.cos(theta + k * _TWO_THIRDS_PI)
        total += binary_entropy(0.5 + np.sqrt(arg) / 6)
    return total / 3


@dataclass(frozen=True)
class MixingScan:
    pure_min: float
    scan_min: float
    gap: float  # scan_min - pure_min; >= -tol confirms p = 1 is optimal


def mixing_reduction_scan() -> MixingScan:
    """Coarse (p, theta) scan confirming no mixed-ancilla point beats p = 1."""
    thetas = np.linspace(0.0, np.pi / 3, _MIXING_THETA_POINTS)
    pure = trine_E_theta(thetas).min()
    scan = mixed_ancilla_E(np.linspace(0.0, 1.0, _MIXING_P_POINTS)[:, None], thetas).min()
    return MixingScan(pure_min=pure, scan_min=scan, gap=scan - pure)
