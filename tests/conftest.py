import numpy as np
import pytest

from gqtlab.polynomials import ApproxSpec, PolyCoeffs, approx_inverse


@pytest.fixture(scope="session")
def inverse_design():
    """approx_inverse(kappa, eps), designed once per session.

    The kappa = 100 design alone takes seconds of Remez, and several modules
    check phase synthesis on the same matrix-inversion polynomials.
    """
    cache = {}

    def design(kappa, eps=1e-3):
        if (kappa, eps) not in cache:
            cache[kappa, eps] = approx_inverse(ApproxSpec(kappa, eps))
        return cache[kappa, eps]

    return design


@pytest.fixture
def near_definite():
    """A polynomial of one parity with one coefficient of the other parity
    at the given weight relative to max |a| = 1; the parity rule counts a
    coefficient above 1e-12 of max |a|."""

    def poly(parity, weight):
        a = np.zeros(6, dtype=complex)
        start = 0 if parity == "even" else 1
        a[start::2] = [0.5, -1.0, 0.25]
        a[1 - start] = weight
        return PolyCoeffs(a)

    return poly
