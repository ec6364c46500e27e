"""Dispersion branches, canonical amplitudes, and the diagonalization oracle.

The frozen reference values below were produced by bogoliubov_oracle (a 4x4
canonical diagonalization sharing no algebra with the closed forms); the two
paths agree to ~1e-16 at the reference point.
"""

import json
import math
import os
import re

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
from tcphonon.spectrum import (
    _gapless,
    _gapless_slope,
    _gapped_from_roots,
    _k_of_omega,
    _omega_g,
    _resolvent,
    _sound_excess,
)

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


@pytest.mark.parametrize("lam, k", [
    (1.0, 1e-160),  # k^2 subnormal: omega_G was off by 5.6e-6
    (1.0, 1e-162),  # k^2 = 0: omega_G was 0.0, amplitudes a bare ZeroDivisionError
    (1.0, 1e100),  # omega_G^2 overflows: omega_G was inf, the amplitudes NaN
    (1e-100, 1e-110),  # omega_G^2 underflows to 0.0
    (1e100, 1e80),  # Lambda^4 overflows: omega_G was NaN
    (1e100, 1e-60),  # omega_G was 0.0
    (1e-200, 0.01),  # Lambda^2 = 0.0: amplitudes a bare ZeroDivisionError
])
def test_dispersion_and_amplitudes_name_k_outside_the_double_range(lam, k):
    m = params_from_physical(PhysicalParams(lam, 0.5, 1.0))
    for kernel in (dispersion, amplitudes):
        with pytest.raises(RuntimeError, match=rf"omega_G .* k={re.escape(repr(k))}, gap="):
            kernel(m, k)


def _spectrum_draws():
    """Seeded (model, k): 200 on the s = 1 family with 1 - cs log-uniform in
    [1e-9, 0.99], 100 of general (s, beta, M); k / Lambda log-uniform in
    [1e-150, 1e76] throughout."""
    rng = np.random.default_rng(5)
    family = [params_from_physical(PhysicalParams(1.0, 1.0 - 10.0**e, 1.0))
              for e in rng.uniform(-9.0, math.log10(0.99), 200)]
    general = [ModelParams(s=float(s), beta=float(b), M=float(mass)) for s, b, mass in
               zip(rng.uniform(0.05, 1.0, 100), rng.uniform(0.0, 3.0, 100), rng.uniform(0.1, 3.0, 100))]
    return [(m, float(10.0**e) * m.gap) for m, e in zip(family + general, rng.uniform(-150.0, 76.0, 300))]


_P05 = params_from_physical(PhysicalParams(1.0, 0.5, 1.0))


@pytest.mark.parametrize("points", [[(_P05, 1e-150)], [(_P05, 1e76)], _spectrum_draws()],
                         ids=["1e-150", "1e+76", "drawn"])
def test_dispersion_and_amplitudes_exact_near_the_double_range(points):
    # inside the range the closed forms keep full precision: against the
    # resolvent's roots and the amplitude formulas of the reference model,
    # at the edges of the double range and over the whole domain
    reference = pytest.importorskip("_reference")
    for m, k in points:
        dp, amps = dispersion(m, k), amplitudes(m, k)
        got = [dp.omega_G, dp.omega_L, abs(amps.pi_G), abs(amps.pi_L), abs(amps.sigma_G),
               abs(amps.sigma_L)]
        for value, ref in zip(got, reference.modes(m.s, m.beta, m.M, k)):
            assert math.isclose(value, float(ref), rel_tol=1e-14), (m, k, value, ref)


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
    # 2k (s^2 pi_G^2 + sigma_G^2) against the reference model's implicit
    # derivative of the characteristic quartic; the implicit derivative in
    # doubles it replaced lost 2.6e-8 at k = 1e7 Lambda
    reference = pytest.importorskip("_reference")
    rng = np.random.default_rng(3)
    general = [ModelParams(s=float(rng.uniform(0.05, 1.0)), beta=float(rng.uniform(0.0, 3.0)),
                           M=float(rng.uniform(0.1, 3.0))) for _ in range(6)]
    points = [(m, k) for m in general for k in np.logspace(-4, 4, 17)]
    family = [params_from_physical(PhysicalParams(1.0, cs, 1.0)) for cs in _CS_FAMILY]
    points += [(m, k) for m in family for k in np.logspace(-4, 7, 23)]
    for m, k in points:
        k = float(k)
        _, pi_g, sg_g = _gapless(m, k)
        slope = reference.modes(m.s, m.beta, m.M, k)[6]
        assert math.isclose(_gapless_slope(m, k, pi_g, sg_g), float(slope), rel_tol=1e-14)


def test_sound_excess_matches_mpmath():
    # nu = w_G / k - cs and sigma = w_G' - cs against the reference model.
    # Formed as differences of doubles they lose every digit once the excess,
    # about (1 - cs^2)^2 k^2 / Lambda^2 at small k, is below an ulp: 4e-18 at
    # cs = 1 - 1e-6, k = 1e-3
    reference = pytest.importorskip("_reference")
    for cs in _CS_FAMILY + (1.0 - 1e-6,):
        m = params_from_physical(PhysicalParams(1.0, cs, 1.0))
        for k in np.logspace(-6, 6, 25):
            k = float(k)
            u = k * k
            _, x_l, d = _resolvent(m, u)
            nu, sigma = _sound_excess(m, u, x_l, d, slope=True)
            assert _sound_excess(m, u, x_l, d) == nu
            nu_ref, sigma_ref = reference.sound_excess(m.s, m.beta, m.M, k)
            assert math.isclose(nu, float(nu_ref), rel_tol=1e-13), (cs, k)
            assert math.isclose(sigma, float(sigma_ref), rel_tol=1e-13), (cs, k)
        ks = np.logspace(-3, 3, 7)
        nu, sigma = _sound_excess(m, ks * ks, *_resolvent(m, ks * ks)[1:], slope=True)
        floats = [_sound_excess(m, u, *_resolvent(m, u)[1:], slope=True) for u in (ks * ks).tolist()]
        assert np.array_equal(np.stack([nu, sigma], axis=1), floats)  # arrays equal floats bit for bit


# tests/kernel_bits.json holds float.hex of every kernel output below, recorded
# before the kernels read cached model constants; the tolerance tests above
# would pass a regrouped product off s = 1 unseen
_KERNEL_BITS = os.path.join(os.path.dirname(__file__), "kernel_bits.json")
_KERNEL_MODELS = {
    "cs=0.05": params_from_physical(PhysicalParams(1.0, 0.05, 1.0)),
    "cs=0.5": params_from_physical(PhysicalParams(1.0, 0.5, 1.0)),
    "cs=0.999": params_from_physical(PhysicalParams(1.0, 0.999, 1.0)),
    "s=0.7,beta=0.9,M=1.1": ModelParams(s=0.7, beta=0.9, M=1.1),
    "s=1,beta=1e-12,M=1": ModelParams(s=1.0, beta=1e-12, M=1.0),
    # here (s^2 M) M and s^2 (M^2) round apart, as they do not at s = 0.7, M = 1.1
    "s=0.6,beta=0.8,M=1.3": ModelParams(s=0.6, beta=0.8, M=1.3),
}


def _kernel_bits(m: ModelParams) -> dict:
    """{repr(k): {kernel: [float.hex of each output]}} at k = 1e-6 ... 1e6;
    _k_of_omega takes the same numbers as frequencies."""
    bits = {}
    for k in np.logspace(-6, 6, 9):
        k = float(k)
        d, a = dispersion(m, k), amplitudes(m, k)
        w_g, pi_g, sg_g = _gapless(m, k)
        outputs = {
            "_resolvent": _resolvent(m, k * k),
            "_k_of_omega": (_k_of_omega(m, k),),
            "_gapless": (w_g, pi_g, sg_g),
            "_gapless_slope": (_gapless_slope(m, k, pi_g, sg_g),),
            "_gapped": _gapped_from_roots(m, k * k, *_resolvent(m, k * k)),
            "dispersion": (d.omega_G, d.omega_L),
            "amplitudes": (a.pi_G.real, a.pi_L.imag, a.sigma_G.imag, a.sigma_L.real),
        }
        bits[repr(k)] = {name: [float.hex(x) for x in values] for name, values in outputs.items()}
    return bits


def test_kernels_reproduce_recorded_bits():
    with open(_KERNEL_BITS) as fh:
        recorded = json.load(fh)
    assert set(recorded) == set(_KERNEL_MODELS)
    for label, m in _KERNEL_MODELS.items():
        assert _kernel_bits(m) == recorded[label], label
