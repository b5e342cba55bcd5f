import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from bifluid.thermo import _power_gap, bregman, helmholtz


# private oracles: the pressure, its derivative, H' and the pressure-scale
# gap, which only tests use


def pressure(rho, gamma):
    """Barotropic pressure rho**gamma."""
    return np.power(rho, gamma)


def dpressure(rho, gamma):
    """Pressure derivative gamma * rho**(gamma - 1)."""
    return gamma * np.power(rho, gamma - 1.0)


def dhelmholtz(rho, gamma):
    """H'(rho) = gamma * rho**(gamma - 1) / (gamma - 1)."""
    return gamma * np.power(rho, gamma - 1.0) / (gamma - 1.0)


def pressure_bregman(rho, rho_ref, gamma):
    """p(ref) - p'(ref) * (ref - rho) - p(rho), the pressure-scale gap.

    Equals minus the Bregman distance of the (convex) pressure itself, so it
    is nonpositive, and O((rho - ref)**2) on compact density windows.
    """
    out = -np.maximum(_power_gap(rho, rho_ref, gamma), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


densities = st.floats(1e-6, 100.0)
ref_densities = st.floats(1e-6, 100.0)
exponents = st.floats(1.05, 5.0)


def test_pressure_examples():
    assert pressure(2.0, 3.0) == 8.0
    assert pressure(0.0, 1.4) == 0.0
    assert pressure(4.0, 1.5) == pytest.approx(8.0, rel=1e-15)


def test_helmholtz_examples_and_legendre_identity():
    g = 3.0
    assert helmholtz(2.0, g) == pytest.approx(4.0, rel=1e-15)
    assert helmholtz(0.0, 2.0) == 0.0
    # rho H'(rho) - H(rho) = p(rho): 2 * 6 - 4 = 8
    assert 2.0 * dhelmholtz(2.0, g) - helmholtz(2.0, g) == pytest.approx(
        pressure(2.0, g), rel=1e-15
    )


@given(rho=densities, g=exponents)
def test_legendre_identity_randomized(rho, g):
    lhs = rho * dhelmholtz(rho, g) - helmholtz(rho, g)
    assert lhs == pytest.approx(pressure(rho, g), rel=1e-12)


def test_bregman_examples():
    assert bregman(7.0, 7.0, 2.7) == 0.0
    # gamma = 2 collapses to the squared distance
    assert bregman(3.0, 1.0, 2.0) == pytest.approx(4.0, rel=1e-12)
    assert bregman(2.0, 1.0 + math.sqrt(3.0), 3.0) == pytest.approx(2.0, rel=1e-12)
    # rho = 0 reduces to p(ref)
    assert bregman(0.0, 1.7, 2.5) == pytest.approx(1.7**2.5, rel=1e-12)


@given(rho=densities, ref=ref_densities, g=exponents)
def test_bregman_nonnegative_and_zero_only_at_ref(rho, ref, g):
    b = bregman(rho, ref, g)
    assert b >= 0.0
    if abs(rho - ref) > 1e-3 * max(rho, ref):
        assert b > 0.0


def test_bregman_exact_zero_at_identical_argument_arrays():
    rho = np.linspace(0.3, 5.0, 100)
    assert np.all(bregman(rho, rho, 1.8) == 0.0)


@pytest.mark.parametrize("g", [1.5, 2.0, 3.0])
def test_bregman_high_precision_accuracy(g):
    # oracle: 50-digit evaluation of H(a) - H'(b)(a-b) - H(b)
    mpmath.mp.dps = 50
    gm = mpmath.mpf(g)

    def exact(a, b):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        H = lambda r: r**gm / (gm - 1)
        dH = lambda r: gm * r ** (gm - 1) / (gm - 1)
        return float(H(a) - dH(b) * (a - b) - H(b))

    for b in (0.5, 1.0, 2.0):
        for gap in (1e-4, 1e-3, 1e-2, 0.5, 2.0):
            for a in (b + gap, max(b - gap, 1e-8)):
                want = exact(a, b)
                got = bregman(a, b, g)
                assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("g", [1.5, 2.0, 3.0])
def test_bregman_quadratic_comparability_on_window(g):
    # on [0.5, 2]^2 the gap is squeezed between two positive quadratics
    rho = np.linspace(0.5, 2.0, 61)
    ratios = []
    for a in rho:
        for b in rho:
            if a == b:
                continue
            ratios.append(bregman(a, b, g) / (a - b) ** 2)
    c1, c2 = min(ratios), max(ratios)
    assert 0.0 < c1 <= c2 < math.inf


def test_pressure_bregman_examples():
    g = 2.0
    assert pressure_bregman(5.0, 5.0, g) == 0.0
    # p(1) - p'(1)(1-3) - p(3) = 1 + 4 - 9
    assert pressure_bregman(3.0, 1.0, g) == pytest.approx(-4.0, rel=1e-12)
    assert pressure_bregman(0.0, 1.0, g) == pytest.approx(-1.0, rel=1e-12)


@given(rho=densities, ref=ref_densities, g=exponents)
def test_pressure_bregman_nonpositive_and_proportional(rho, ref, g):
    v = pressure_bregman(rho, ref, g)
    assert v <= 0.0
    # equals -(gamma - 1) times the Helmholtz gap
    assert v == pytest.approx(-(g - 1.0) * bregman(rho, ref, g), rel=1e-12, abs=1e-300)


def test_dpressure():
    assert dpressure(2.0, 3.0) == pytest.approx(12.0, rel=1e-15)
