import numpy as np
import pytest
from hypothesis import strategies as st

from ttolab import BlaschkeProduct, BlaschkeZero, ModelSpace

# (delta, angle) lists of 2..12 zeros with 1 - |a| in [0.05, 0.9], for
# property tests; ``space_from_zeros`` turns one into an exact space
zero_lists = st.integers(2, 12).flatmap(lambda degree: st.lists(
    st.tuples(st.floats(0.05, 0.9), st.floats(0.0, 2.0 * np.pi, exclude_max=True)),
    min_size=degree, max_size=degree))

# zero_lists plus 1..3 zeros at 1 - |a| = 10^-x, x in [2, 12], at distinct
# dyadic angles 2 pi j/1024: far nearer the circle than the 2^16-point grid
# of an exact space resolves (1 - |a| of about 1.5e-3)
near_zero_lists = st.tuples(zero_lists, st.lists(
    st.tuples(st.floats(2.0, 12.0), st.integers(0, 1023)),
    min_size=1, max_size=3, unique_by=lambda t: t[1])).map(
        lambda lists: [(10.0 ** -x, 2.0 * np.pi * j / 1024) for x, j in lists[1]] + lists[0])


def space_from_zeros(zeros):
    return ModelSpace(BlaschkeProduct([BlaschkeZero(d, t) for d, t in zeros]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_blaschke_space(rng, degree, rmax=0.75, n=None):
    radii = rng.uniform(0.1, rmax, degree)
    angles = rng.uniform(0.0, 2.0 * np.pi, degree)
    zeros = radii * np.exp(1j * angles)
    return ModelSpace(BlaschkeProduct(list(zeros)), n=n)


def random_trig_poly_samples(rng, grid, degree):
    """Random trigonometric polynomial of the given degree as a CircleFunction."""
    from ttolab import CircleFunction
    coeffs = {}
    for k in range(-degree, degree + 1):
        coeffs[k] = complex(rng.standard_normal(), rng.standard_normal())
    return CircleFunction.from_coeffs(grid, coeffs)
