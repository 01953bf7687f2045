import numpy as np
import pytest

from naimark_lab import (
    binary_entropy,
    concavity_check,
    derivative_sign_scan,
    f_curve,
    mixed_ancilla_E,
    mixing_reduction_scan,
    trine_E_theta,
    trine_cost_exact,
    trine_curve,
)
from naimark_lab.trine_analytic import _central_differences
from conftest import E_AT_PI_3, TRINE_EXACT


def test_f_curve_endpoints_and_domain():
    assert abs(f_curve(-1.25) - 1.0) < 1e-15  # sqrt term vanishes, H(1/2) = 1
    assert f_curve(1.0) == 0.0  # H(1) = 0
    assert abs(f_curve(-1.0) - binary_entropy(0.5 + 1 / 6)) < 1e-15
    with pytest.raises(ValueError):
        f_curve(-1.2500001)


def test_trine_E_theta_reference_points():
    assert abs(trine_E_theta(0.0) - TRINE_EXACT) < 1e-15
    assert abs(trine_E_theta(np.pi / 3) - E_AT_PI_3) < 1e-15


def test_trine_E_theta_symmetries():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(-2, 2, 25):
        assert abs(trine_E_theta(theta) - trine_E_theta(-theta)) < 1e-12
        assert abs(trine_E_theta(theta) - trine_E_theta(theta + 2 * np.pi / 3)) < 1e-12


def test_trine_cost_exact_value():
    assert trine_cost_exact() == (2 / 3) * binary_entropy((1 - 1 / np.sqrt(3)) / 2)
    assert abs(trine_cost_exact() - TRINE_EXACT) < 1e-15
    # theta = 0 evaluates the same number through f_curve: f(1) = 0 and
    # cos(2 pi/3) = -1/2 gives f(-1/2) = H((1 - 1/sqrt(3))/2)
    assert abs(trine_E_theta(0.0) - trine_cost_exact()) < 1e-15


def test_trine_curve_grid():
    c = trine_curve(50)
    assert c.thetas.shape == (51,) and c.values.shape == (51,)
    assert c.thetas[0] == 0.0 and abs(c.thetas[-1] - np.pi / 3) < 1e-15
    assert abs(c.values[0] - TRINE_EXACT) < 1e-15
    assert abs(c.values[-1] - E_AT_PI_3) < 1e-15
    assert (np.diff(c.values) >= -1e-12).all()


def test_derivative_sign_scan():
    scan = derivative_sign_scan(500)
    assert scan.monotone
    assert scan.min_at == 0.0
    with pytest.raises(ValueError):
        derivative_sign_scan(99)


def test_derivative_scan_evaluates_the_curve_once():
    # one evaluation on the grid plus a step past each end: the grid values are the curve's
    # bit for bit, and the neighbour differences stay within 3.2e-12 (measured) of
    # differencing E(theta + h) and E(theta - h), far inside the -1e-9 monotonicity gate
    thetas, values, deriv = _central_differences(10_000)
    h = thetas[1] - thetas[0]
    assert np.array_equal(values, trine_E_theta(thetas))
    three = (trine_E_theta(thetas + h) - trine_E_theta(thetas - h)) / (2 * h)
    assert np.abs(deriv - three).max() <= 1e-11
    scan = derivative_sign_scan(10_000)
    assert scan.monotone and scan.min_at == 0.0


def test_concavity_check():
    rep = concavity_check(2000)
    assert rep.is_concave
    assert rep.worst_violation <= 1e-10
    with pytest.raises(ValueError):
        concavity_check(50)


def test_mixed_ancilla_reduces_to_pure_at_p1():
    for theta in np.linspace(0, np.pi / 3, 7):
        assert abs(mixed_ancilla_E(1.0, theta) - trine_E_theta(theta)) < 1e-12


def test_mixing_never_helps():
    scan = mixing_reduction_scan()
    assert abs(scan.pure_min - TRINE_EXACT) < 1e-12
    assert scan.gap >= -1e-12
    # p = 1, theta = 0 sits in the scan grid, so the gap closes exactly
    assert abs(scan.gap) < 1e-12
