"""The reference kernel solves its problem and reports a positive time."""

import math

import pytest

import reference


def test_kernel_converges_to_the_exact_value():
    # u = f / (2 pi^2) for f = sin(pi x) sin(pi y), so (u, f) = 1 / (8 pi^2)
    exact = 1.0 / (8.0 * math.pi ** 2)
    assert reference.kernel(4) == pytest.approx(exact, rel=1e-2)
    assert reference.kernel() == pytest.approx(exact, rel=1e-3)


@pytest.mark.parametrize("threads", [1, 2])
def test_sample_times_at_least_two_rounds(threads):
    assert 0.0 < reference.sample(threads, 0.0) < 5.0
