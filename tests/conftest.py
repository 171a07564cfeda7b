import numpy as np
import pytest
from hypothesis import strategies as st

from ttolab import BlaschkeProduct, BlaschkeZero, ModelSpace

# (delta, angle) lists of 2..12 zeros with 1 - |a| in [0.05, 0.9], for
# property tests; ``space_from_zeros`` turns one into an exact space
zero_lists = st.integers(2, 12).flatmap(lambda degree: st.lists(
    st.tuples(st.floats(0.05, 0.9), st.floats(0.0, 2.0 * np.pi, exclude_max=True)),
    min_size=degree, max_size=degree))


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
