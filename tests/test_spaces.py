"""Box membership tests for ContinuousSpace."""

import numpy as np
import pytest

from procbench.spaces import ContinuousSpace

BOX = ContinuousSpace(np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 2.0]))
OPEN = ContinuousSpace(np.full(3, -np.inf), np.full(3, np.inf))


def test_inside_and_on_the_faces():
    assert BOX.contains([0.5, 0.0, 2.0])
    assert BOX.contains([0.0, -1.0, 2.0])
    assert BOX.contains(np.array([1.0, 1.0, 2.0]))


def test_outside_and_tolerance():
    assert not BOX.contains([1.0 + 1e-12, 0.0, 2.0])
    assert BOX.contains([1.0 + 1e-12, 0.0, 2.0], tol=1e-9)
    assert not BOX.contains([0.5, 0.0, 2.0 - 2e-9], tol=1e-9)


@pytest.mark.parametrize(
    "x", [[0.5, 0.0], [0.5, 0.0, 2.0, 0.0], [[0.5, 0.0, 2.0]], 0.5]
)
def test_shape_mismatch_rejected(x):
    assert not BOX.contains(x)
    assert not OPEN.contains(x)


@pytest.mark.parametrize("box", [BOX, OPEN])
def test_nan_rejected(box):
    assert not box.contains([np.nan, 0.0, 2.0])
    assert not box.contains([0.5, 0.0, np.nan], tol=np.inf)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinities_rejected_against_infinite_bounds(bad):
    assert OPEN.contains([1e308, -1e308, 0.0])
    assert not OPEN.contains([0.0, bad, 0.0])
    assert not BOX.contains([0.0, bad, 2.0], tol=np.inf)


def test_matches_numpy_reference_on_random_points():
    rng = np.random.default_rng(3)
    low, high = BOX.low, BOX.high
    for _ in range(2000):
        x = rng.uniform(low - 0.2, high + 0.2)
        tol = float(rng.choice([0.0, 1e-3, 0.1]))
        want = bool(np.all(x >= low - tol) and np.all(x <= high + tol))
        assert BOX.contains(x, tol=tol) == want
