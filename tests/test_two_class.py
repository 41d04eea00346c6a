"""Exact oracle of a two-class density: b constant on the blocks of a two-part partition.

With b = [[a, c], [c, d]] on fractions alpha and 1 - alpha of [0, 1], the
profile takes two values g1, g2, and the equation is

    g1 = -1/(z + alpha a g1 + (1 - alpha) c g2),
    g2 = -1/(z + alpha c g1 + (1 - alpha) d g2).

The first gives g2 = -P/((1 - alpha) c g1), P = 1 + z g1 + alpha a g1^2, and
the second then leaves the quartic d P^2 - c g1 (z + alpha c g1) P +
(1 - alpha) c^2 g1^2 = 0. The solution is the one root with Im g1 > 0 and
Im g2 > 0, unique in the upper half-plane (Helton, Rashidi Far & Speicher,
IMRN 2007). ad = c^2 gives rank 1, the product form of a two-level profile;
otherwise the rank is 2. Unequal row means keep the solver's mean-field
start from being exact, so every point iterates.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as poly

from lsdlab import DensityGrid, profile_from_steps, semicircle_transform, solve_curve, solve_product_form, solve_profile

N = 128
ALPHA = 0.5
RANK_ONE = (4.0, 1.0, 0.25)  # t = 2 on the first half, 1/2 on the second
RANK_TWO = (3.0, 0.5, 1.0)
HEIGHTS = [0.05, 1e-5, 1e-9]
REALS = np.linspace(-4.0, 4.0, 41)
GAP = 1e-9


def two_class_transform(a, c, d, alpha, z):
    """Exact S = alpha g1 + (1 - alpha) g2 of the two-class density at z, for c != 0."""
    beta = 1.0 - alpha
    p = np.array([1.0, z, alpha * a])
    quartic = d * poly.polymul(p, p) - poly.polymul([0.0, c * z, alpha * c * c], p)
    quartic[2] += beta * c * c
    g1 = poly.polyroots(quartic)
    g2 = -poly.polyval(g1, p) / (beta * c * g1)
    upper = (g1.imag > 0) & (g2.imag > 0)
    assert upper.sum() == 1, (z, g1, g2)
    return complex(alpha * g1[upper][0] + beta * g2[upper][0])


def two_class_density(a, c, d):
    first = np.arange(N) < round(ALPHA * N)
    return DensityGrid(N, np.where(first[:, None], np.where(first, a, c), np.where(first, c, d)))


def exact_curve(params, height):
    zs = REALS + 1j * height
    return zs, np.array([two_class_transform(*params, ALPHA, z) for z in zs])


@pytest.mark.parametrize("height", HEIGHTS)
def test_oracle_is_the_semicircle_on_a_constant_density(height):
    for z in REALS[::4] + 1j * height:
        assert abs(two_class_transform(1.0, 1.0, 1.0, ALPHA, z) - semicircle_transform(1.0, z)) <= 1e-12


@pytest.mark.parametrize("height", HEIGHTS)
@pytest.mark.parametrize("params", [RANK_ONE, RANK_TWO], ids=["rank-1", "rank-2"])
def test_curve_and_profile_match_the_exact_transform(params, height):
    b = two_class_density(*params)
    zs, exact = exact_curve(params, height)
    curve = solve_curve(b, zs)
    assert np.abs(curve.S - exact).max() <= GAP
    assert (curve.iterations > 1).all()  # the mean-field start is not the solution
    profiles = np.array([solve_profile(b, z).S for z in zs])
    assert np.abs(profiles - exact).max() <= GAP


@pytest.mark.parametrize("height", HEIGHTS)
def test_product_form_matches_the_exact_transform(height):
    a, c, d = RANK_ONE
    t = profile_from_steps([np.sqrt(a), np.sqrt(d)], N)
    assert np.array_equal(np.outer(t.values, t.values), two_class_density(a, c, d).values)
    zs, exact = exact_curve(RANK_ONE, height)
    scalar = np.array([solve_product_form(t, z).S for z in zs])
    assert np.abs(scalar - exact).max() <= GAP
