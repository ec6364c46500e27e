"""Dispersion branches, canonical amplitudes, and the diagonalization oracle.

The frozen reference values below were produced by bogoliubov_oracle (a 4x4
canonical diagonalization sharing no algebra with the closed forms); the two
paths agree to ~1e-16 at the reference point.
"""

import math

import numpy as np
import pytest

from tcphonon import (
    ModelParams,
    PhysicalParams,
    amplitudes,
    bogoliubov_oracle,
    dispersion,
    params_from_physical,
)
from tcphonon.spectrum import _gapless, _gapless_slope, _k_of_omega, _omega_g, _resolvent

_M111 = ModelParams(s=1.0, beta=1.0, M=1.0)

# oracle-frozen magnitudes at (s=1, M=1, beta=1, k=1)
_REF = {
    "omega_G": 0.7653668647301796,  # sqrt(2 - sqrt(2))
    "omega_L": 1.8477590650225735,  # sqrt(2 + sqrt(2))
    "pi_G": 0.5715249261572886,
    "pi_L": 0.3678301578671184,
    "sigma_G": 0.30930706117266776,
    "sigma_L": 0.4805932616338078,
}


def _param_sets():
    sets = [
        params_from_physical(PhysicalParams(1.0, 0.5, 1.0)),
        params_from_physical(PhysicalParams(2.5, 0.9, 1.0)),
        params_from_physical(PhysicalParams(0.4, 0.15, 1.0)),
        ModelParams(s=0.7, beta=0.9, M=1.1),  # off the s = 1 family
    ]
    return sets


def _k_grid(scale):
    return scale * np.logspace(-3, 3, 50)


def test_dispersion_gap_limit():
    d = dispersion(_M111, 0.0)
    assert d.omega_G == 0.0
    assert math.isclose(d.omega_L, math.sqrt(2.0), rel_tol=1e-15)


def test_dispersion_decoupled_point():
    d = dispersion(ModelParams(s=1.0, beta=0.0, M=1.0), 1.0)
    assert math.isclose(d.omega_G, 1.0, rel_tol=1e-15)
    assert math.isclose(d.omega_L, math.sqrt(2.0), rel_tol=1e-15)


def test_dispersion_symmetric_point():
    # x^2 - 4x + 2 = 0 at this point: omega^2 = 2 -/+ sqrt(2)
    d = dispersion(_M111, 1.0)
    assert math.isclose(d.omega_G, math.sqrt(2.0 - math.sqrt(2.0)), rel_tol=1e-14)
    assert math.isclose(d.omega_L, math.sqrt(2.0 + math.sqrt(2.0)), rel_tol=1e-14)
    assert math.isclose(d.omega_G, _REF["omega_G"], rel_tol=1e-13)
    assert math.isclose(d.omega_L, _REF["omega_L"], rel_tol=1e-13)


def test_dispersion_rejects_negative_k():
    with pytest.raises(ValueError):
        dispersion(_M111, -0.1)


@pytest.mark.parametrize("k", [math.inf, math.nan])
def test_dispersion_and_amplitudes_reject_non_finite_k(k):
    # both used to return NaN frequencies or amplitudes without an error
    with pytest.raises(ValueError, match=r"\bk\b"):
        dispersion(_M111, k)
    with pytest.raises(ValueError, match=r"\bk\b"):
        amplitudes(_M111, k)


def test_dispersion_branches_ordered_and_monotone():
    for m in _param_sets():
        prev_g, prev_l = -1.0, -1.0
        for k in _k_grid(m.gap):
            d = dispersion(m, float(k))
            assert d.omega_G <= d.omega_L
            assert d.omega_G >= prev_g and d.omega_L >= prev_l
            prev_g, prev_l = d.omega_G, d.omega_L


def test_relative_residual_on_wide_grid():
    # residual over the magnitude of the quartic's terms stays at roundoff
    # even at k = 1e3 Lambda, where the terms themselves are ~1e12 Lambda^4
    for m in _param_sets():
        lam2 = m.gap**2
        for k in _k_grid(m.gap):
            u = float(k) ** 2
            b = lam2 + u * (1.0 + m.s**2)
            c = (m.s * float(k)) ** 2 * (m.M**2 + u)
            d = dispersion(m, float(k))
            for w in (d.omega_G, d.omega_L):
                x = w * w
                assert abs(x * x - b * x + c) / (x * x + b * x + c) < 1e-12


def test_vieta_identities_on_wide_grid():
    for m in _param_sets():
        lam2 = m.gap**2
        for k in _k_grid(m.gap):
            u = float(k) ** 2
            d = dispersion(m, float(k))
            xg, xl = d.omega_G**2, d.omega_L**2
            b = lam2 + u * (1.0 + m.s**2)
            c = (m.s * float(k)) ** 2 * (m.M**2 + u)
            assert abs(xg + xl - b) / b < 1e-12
            assert abs(xg * xl - c) / c < 1e-12


def test_amplitudes_frozen_reference_point():
    a = amplitudes(_M111, 1.0)
    assert math.isclose(abs(a.pi_G), _REF["pi_G"], rel_tol=1e-13)
    assert math.isclose(abs(a.pi_L), _REF["pi_L"], rel_tol=1e-13)
    assert math.isclose(abs(a.sigma_G), _REF["sigma_G"], rel_tol=1e-13)
    assert math.isclose(abs(a.sigma_L), _REF["sigma_L"], rel_tol=1e-13)


def test_amplitude_phase_convention():
    a = amplitudes(_M111, 1.0)
    assert a.pi_G.imag == 0.0 and a.pi_G.real > 0.0
    assert a.sigma_L.imag == 0.0 and a.sigma_L.real > 0.0
    assert a.pi_L.real == 0.0 and a.pi_L.imag < 0.0
    assert a.sigma_G.real == 0.0 and a.sigma_G.imag < 0.0


def test_amplitudes_decoupled_point():
    a = amplitudes(ModelParams(s=1.0, beta=0.0, M=1.0), 2.0)
    assert math.isclose(abs(a.pi_G), 0.5, rel_tol=1e-15)
    assert a.pi_L == 0.0 and a.sigma_G == 0.0
    assert math.isclose(abs(a.sigma_L), 1.0 / math.sqrt(2.0 * math.sqrt(5.0)), rel_tol=1e-15)


def test_amplitudes_continuous_at_tiny_coupling():
    # the closed forms are exact at beta = 0, so beta = 1e-12 must sit on top
    # of the decoupled values without any special-case branch
    m = ModelParams(s=1.0, beta=1e-12, M=1.0)
    d = dispersion(m, 1.0)
    a = amplitudes(m, 1.0)
    assert abs(abs(a.pi_G) - 1.0 / math.sqrt(2.0 * d.omega_G)) < 1e-12
    assert abs(abs(a.sigma_L) - 1.0 / math.sqrt(2.0 * d.omega_L)) < 1e-12
    assert abs(a.pi_L) < 1e-11 and abs(a.sigma_G) < 1e-11


def test_amplitudes_reject_k_zero():
    with pytest.raises(ValueError):
        amplitudes(_M111, 0.0)


def test_sum_rules_on_wide_grid():
    # the four equal-time commutator sum rules, each to 1e-10
    for m in _param_sets():
        for k in _k_grid(m.gap):
            d = dispersion(m, float(k))
            a = amplitudes(m, float(k))
            ws = (d.omega_G, d.omega_L)
            pis = (a.pi_G, a.pi_L)
            sgs = (a.sigma_G, a.sigma_L)
            assert abs(sum(2 * w * abs(x) ** 2 for w, x in zip(ws, pis)) - 1.0) < 1e-10
            assert abs(sum(2 * w * abs(x) ** 2 for w, x in zip(ws, sgs)) - 1.0) < 1e-10
            assert abs(sum((x * y.conjugate()).imag for x, y in zip(pis, sgs))) < 1e-10
            assert abs(sum(w * (x * y.conjugate()).real for w, x, y in zip(ws, pis, sgs))) < 1e-10


def test_oracle_matches_closed_forms():
    for m in _param_sets():
        for k in _k_grid(m.gap):
            d, a = dispersion(m, float(k)), amplitudes(m, float(k))
            do, ao = bogoliubov_oracle(m, float(k))
            assert math.isclose(d.omega_G, do.omega_G, rel_tol=1e-10)
            assert math.isclose(d.omega_L, do.omega_L, rel_tol=1e-10)
            for closed, oracle in (
                (a.pi_G, ao.pi_G),
                (a.pi_L, ao.pi_L),
                (a.sigma_G, ao.sigma_G),
                (a.sigma_L, ao.sigma_L),
            ):
                assert abs(closed - oracle) < 1e-8


def test_oracle_agrees_at_frozen_point():
    _, ao = bogoliubov_oracle(_M111, 1.0)
    assert math.isclose(abs(ao.pi_G), _REF["pi_G"], rel_tol=1e-12)
    assert math.isclose(abs(ao.pi_L), _REF["pi_L"], rel_tol=1e-12)
    assert math.isclose(abs(ao.sigma_G), _REF["sigma_G"], rel_tol=1e-12)
    assert math.isclose(abs(ao.sigma_L), _REF["sigma_L"], rel_tol=1e-12)


def test_oracle_rejects_k_zero():
    with pytest.raises(ValueError):
        bogoliubov_oracle(_M111, 0.0)


def test_gapless_kernel_matches_dispersion_and_amplitudes():
    # the gapless triple is one kernel: a float call reproduces dispersion()
    # and amplitudes() bit for bit, and an array call the float calls
    for m in _param_sets():
        grid = _k_grid(m.gap)
        w_arr, pi_arr, sg_arr = _gapless(m, grid)
        for i, k in enumerate(grid):
            d, a = dispersion(m, float(k)), amplitudes(m, float(k))
            expected = (d.omega_G, abs(a.pi_G), abs(a.sigma_G))
            assert _gapless(m, float(k)) == expected
            assert (w_arr[i], pi_arr[i], sg_arr[i]) == expected


def test_resolvent_array_matches_floats():
    # a dense grid: x ** 0.5 on a float misses np.sqrt's correctly rounded
    # value for only about one input in a thousand
    for m in _param_sets():
        u = m.gap**2 * np.logspace(-6, 6, 4001)
        arrays = _resolvent(m, u)
        for i, ui in enumerate(u):
            assert tuple(x[i] for x in arrays) == _resolvent(m, float(ui))


_CS_FAMILY = (0.01, 0.1, 0.5, 0.9, 0.999)


def test_inverse_dispersion_round_trip():
    # the discriminant of the inverse used to cancel for w >> Lambda: on
    # this grid the round trip missed w by up to 3.4e-9
    for cs in _CS_FAMILY + (1.0 - 1e-9, 1.0):
        m = params_from_physical(PhysicalParams(1.0, cs, 1.0))
        for w in np.logspace(-8, 6, 57):
            assert math.isclose(_omega_g(m, _k_of_omega(m, float(w))), w, rel_tol=1e-14)


def test_gapless_slope_matches_mpmath_derivative():
    # 2k (s^2 pi_G^2 + sigma_G^2) against a 40-digit numerical derivative of
    # the textbook root of the resolvent; the implicit derivative it replaced
    # lost 2.6e-8 at k = 1e7 Lambda
    mpmath = pytest.importorskip("mpmath")

    def omega_g(m, k):
        s, beta, mass = (mpmath.mpf(x) for x in (m.s, m.beta, m.M))
        b = mass**2 + beta**2 + k * k * (1 + s * s)
        c = s * s * k * k * (mass**2 + k * k)
        return mpmath.sqrt((b - mpmath.sqrt(b * b - 4 * c)) / 2)

    rng = np.random.default_rng(3)
    general = [ModelParams(s=float(rng.uniform(0.05, 1.0)), beta=float(rng.uniform(0.0, 3.0)),
                           M=float(rng.uniform(0.1, 3.0))) for _ in range(6)]
    points = [(m, k) for m in general for k in np.logspace(-4, 4, 17)]
    family = [params_from_physical(PhysicalParams(1.0, cs, 1.0)) for cs in _CS_FAMILY]
    points += [(m, k) for m in family for k in np.logspace(-4, 7, 23)]
    for m, k in points:
        k = float(k)
        with mpmath.workdps(40):
            reference = float(mpmath.diff(lambda x: omega_g(m, x), mpmath.mpf(k)))
        _, pi_g, sg_g = _gapless(m, k)
        assert math.isclose(_gapless_slope(m, k, pi_g, sg_g), reference, rel_tol=1e-14)
