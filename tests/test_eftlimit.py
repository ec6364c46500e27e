"""Long-wavelength EFT relations and the numerical k -> 0 cross-check."""

import math
import re
import sys

import pytest

from tcphonon import (
    PhysicalParams,
    cs_from_alpha2,
    dispersion,
    params_from_physical,
    verify_long_wavelength,
)


def test_cs_from_alpha2_values():
    assert cs_from_alpha2(0.0) == 1.0
    assert math.isclose(cs_from_alpha2(1.5), 0.5, rel_tol=1e-15)
    assert math.isclose(cs_from_alpha2(12.0), 0.2, rel_tol=1e-15)


def test_cs_from_alpha2_rejects_unphysical():
    with pytest.raises(ValueError):
        cs_from_alpha2(-0.5)
    with pytest.raises(ValueError):
        cs_from_alpha2(-0.7)


@pytest.mark.parametrize("alpha2", [math.nan, math.inf, -math.inf, 1e308, 9e307])
def test_cs_from_alpha2_names_alpha2_without_a_sound_speed(alpha2):
    # NaN came back as NaN, and inf and 1e308 as a sound speed of 0.0
    with pytest.raises(ValueError, match="alpha2 .*" + re.escape(repr(alpha2))):
        cs_from_alpha2(alpha2)


def test_cs_from_alpha2_keeps_finite_bits():
    # the largest alpha2 whose 1 + 2 alpha2 is finite still gives a positive cs
    big = 0.5 * sys.float_info.max
    assert cs_from_alpha2(big) == 1.0 / math.sqrt(1.0 + 2.0 * big) > 0.0
    for alpha2 in (-0.49, 0.0, 1.5, 12.0, 1e300):
        assert cs_from_alpha2(alpha2) == 1.0 / math.sqrt(1.0 + 2.0 * alpha2)


def test_long_wavelength_extrapolation():
    rep = verify_long_wavelength(PhysicalParams(1.0, 0.5, 1.0))
    assert rep.cs_residual < 1e-6
    assert math.isclose(rep.cs_extrapolated, 0.5, rel_tol=1e-6)
    assert rep.gap_residual < 1e-14


def test_long_wavelength_decoupled_family():
    # beta = 0: omega_G = k exactly, both residuals at roundoff
    rep = verify_long_wavelength(PhysicalParams(1.0, 1.0, 1.0))
    assert rep.cs_residual < 1e-13
    assert rep.gap_residual < 1e-15


def test_gap_identity_across_parameters():
    for lam in (0.5, 1.0, 4.0):
        for cs in (0.15, 0.5, 0.95):
            rep = verify_long_wavelength(PhysicalParams(lam, cs, 1.0))
            assert rep.gap_residual < 1e-14


def test_phase_velocity_error_scales_as_k_squared():
    # leading dispersive correction to omega_G / k is O(k^2), so the
    # single-point error drops by 100 per decade
    m = params_from_physical(PhysicalParams(1.0, 0.5, 1.0))
    e2 = abs(dispersion(m, 1e-2).omega_G / 1e-2 - 0.5)
    e3 = abs(dispersion(m, 1e-3).omega_G / 1e-3 - 0.5)
    assert abs(e2 / e3 - 100.0) < 5.0
