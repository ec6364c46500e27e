"""Long-wavelength EFT relations and the numerical k -> 0 cross-check."""

import math

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
