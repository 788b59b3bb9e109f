import pytest

from gqtlab.polynomials import ApproxSpec, approx_inverse


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
