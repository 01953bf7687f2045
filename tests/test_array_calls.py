"""The analytic functions give on an array exactly what they give per element."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naimark_lab import binary_entropy, f_curve, mixed_ancilla_E, trine_E_theta

SETTINGS = settings(max_examples=60, deadline=None)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def arrays(lo, hi, min_size=1):
    return st.lists(floats(lo, hi), min_size=min_size, max_size=40).map(np.array)


def per_element(fn, *args):
    return np.array([fn(*a) for a in zip(*(np.asarray(x).tolist() for x in args))])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@SETTINGS
@given(arrays(-1e-12, 1 + 1e-12))
def test_binary_entropy_array_matches_scalars(x):
    assert same_bits(binary_entropy(x), per_element(binary_entropy, x))
    assert isinstance(binary_entropy(float(x[0])), float)


@SETTINGS
@given(arrays(-1.25, 1.0))
def test_f_curve_array_matches_scalars(z):
    assert same_bits(f_curve(z), per_element(f_curve, z))
    assert isinstance(f_curve(float(z[0])), float)


@SETTINGS
@given(arrays(-10.0, 10.0))
def test_trine_E_theta_array_matches_scalars(theta):
    assert same_bits(trine_E_theta(theta), per_element(trine_E_theta, theta))


@SETTINGS
@given(st.lists(st.tuples(floats(0.0, 1.0), floats(-10.0, 10.0)), min_size=1, max_size=40))
def test_mixed_ancilla_E_array_matches_scalars(pairs):
    p, theta = np.array(pairs).T
    assert same_bits(mixed_ancilla_E(p, theta), per_element(mixed_ancilla_E, p, theta))
    # the (p, theta) grid of mixing_reduction_scan broadcasts the same values
    grid = mixed_ancilla_E(p[:, None], theta)
    assert same_bits(np.diagonal(grid), per_element(mixed_ancilla_E, p, theta))


@SETTINGS
@given(arrays(0.0, 1.0), st.data(), st.sampled_from([-0.5, 1.001, -1e-11]))
def test_binary_entropy_names_first_bad_element(x, data, bad):
    i = data.draw(st.integers(0, x.size - 1))
    x[i] = bad
    with pytest.raises(ValueError, match=rf"argument {bad} at index {i} outside"):
        binary_entropy(x)


@SETTINGS
@given(arrays(-1.0, 1.0), st.data(), st.sampled_from([-1.3, -2.0, -100.0]))
def test_f_curve_names_first_bad_element(z, data, bad):
    i = data.draw(st.integers(0, z.size - 1))
    z[i] = bad
    with pytest.raises(ValueError, match=rf"argument {bad} at index {i} below"):
        f_curve(z)


def test_domain_errors_do_not_print_the_array():
    z = np.zeros(10_000)
    z[[7, 9000]] = -3.0
    with pytest.raises(ValueError) as info:
        f_curve(z)
    assert str(info.value) == "f_curve argument -3.0 at index 7 below -1.25"
    with pytest.raises(ValueError, match=r"^binary_entropy argument 2.0 at index \(1, 0\) outside"):
        binary_entropy(np.array([[0.5, 0.5], [2.0, 0.5]]))
    with pytest.raises(ValueError, match=r"^binary_entropy argument 1.5 outside"):
        binary_entropy(1.5)
