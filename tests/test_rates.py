"""Golden-rule decay rates: thresholds, closed/quadrature paths, MC oracle."""

import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import tcphonon
from tcphonon import (
    BranchLabel,
    DecayResult,
    Leg,
    PhysicalParams,
    cubic_coupling,
    lambda_threshold_momentum,
    matrix_element,
    mc_rate_oracle,
    params_from_physical,
    rate_g_to_2g,
    rate_lambda_to_2g,
    rates,
    scan_g_rate,
    scan_lambda_rate,
)
from tcphonon.spectrum import _gapless, _gapless_slope, _gapped_at_rest, _k_of_omega

_P5 = PhysicalParams(1.0, 0.5, 1.0)


def _k(process, k=1.0):
    """The parent momentum mc_rate_oracle takes: k for g-2g, none at rest."""
    return k if process == "g-2g" else None


# quadrature regression values at Lambda = Omega = 1
_REF_RATE_LAMBDA_05 = 7.22107092012567e-06
_REF_RATE_G_05_K1 = 2.057142937515285e-06


def test_threshold_closed_forms():
    # 2 omega_G(k*) = Lambda has the closed solutions k*^2 = (1 + sqrt(13))/8
    # at cs = 0.5 and k*^2 = (0.56 + sqrt(12.3136))/8 at cs = 0.6
    k5 = lambda_threshold_momentum(_P5)
    assert math.isclose(k5, math.sqrt((1.0 + math.sqrt(13.0)) / 8.0), rel_tol=1e-12)
    assert abs(k5 - 0.7587450) < 1e-6
    k6 = lambda_threshold_momentum(PhysicalParams(1.0, 0.6, 1.0))
    assert math.isclose(k6, math.sqrt((0.56 + math.sqrt(12.3136)) / 8.0), rel_tol=1e-12)
    assert abs(k6 - 0.7131866) < 1e-6


def test_threshold_linear_dispersion_limit():
    # beta = 0: omega_G = k exactly, so the threshold sits at Lambda/2
    for lam in (1.0, 1e-3, 7.0, 1e3):
        kstar = lambda_threshold_momentum(PhysicalParams(lam, 1.0, 1.0))
        assert math.isclose(kstar, 0.5 * lam, rel_tol=1e-9)


def test_threshold_scales_with_lambda():
    base = lambda_threshold_momentum(_P5)
    assert math.isclose(lambda_threshold_momentum(PhysicalParams(3.0, 0.5, 1.0)), 3.0 * base, rel_tol=1e-10)


@pytest.mark.parametrize("lam", [1e-300, 1e-200, 1e-150, 1e-100, 1e80, 1e155, 1e300])
def test_threshold_solves_at_unit_scale(lam):
    # solved at the caller's Lambda it returned NaN at 1e155, missed its
    # residual at 1e-150 and divided by zero at 1e-200
    assert lambda_threshold_momentum(PhysicalParams(lam, 0.5)) == lam * lambda_threshold_momentum(_P5)


def test_threshold_names_a_residual_miss(monkeypatch):
    # the residual check is NaN-safe: a NaN root fails it, naming cs
    monkeypatch.setattr(rates, "_k_of_omega", lambda m, w: math.nan)
    with pytest.raises(RuntimeError, match="threshold momentum misses .* at cs=0.5"):
        lambda_threshold_momentum(_P5)


@pytest.mark.parametrize("lam, omega", [
    (1e80, 1.0), (1.0, 1e-200), (1e-200, 1e-200), (1e200, 1.0), (1e40, 1.0)])
def test_rates_name_a_scale_law_out_of_range(lam, omega):
    # Lambda^4 overflowing raised a bare OverflowError (34, 'Numerical result
    # out of range'), and Omega^2 underflowing to 0.0 a ZeroDivisionError; at
    # 1e40 the factors are finite and the scaled rate overflows
    p = PhysicalParams(lam, 0.5, omega)
    pattern = "rate .* " + re.escape(f"Lambda={lam}, Omega={omega}")
    with pytest.raises(OverflowError, match=pattern):
        rate_lambda_to_2g(p)
    with pytest.raises(OverflowError, match=pattern):
        rate_g_to_2g(p, lam)


@pytest.mark.parametrize("lam", [3e-39, 1e-50])
def test_rates_name_an_underflow_below_the_normal_doubles(lam):
    # at 3e-39 both rates came out subnormal (4.7e-314, 1.3e-314), and at
    # 1e-50 as 0.0 with the channel open
    p = PhysicalParams(lam, 0.5, 1.0)
    pattern = "rate .* underflows scaled to " + re.escape(f"Lambda={lam}, Omega=1.0")
    with pytest.raises(OverflowError, match=pattern):
        rate_lambda_to_2g(p)
    with pytest.raises(OverflowError, match=pattern):
        rate_g_to_2g(p, lam)


@pytest.mark.parametrize("cs, k, named", [
    (1e-78, None, "cs=1e-78"), (1e-100, None, "cs=1e-100"),
    (1e-90, 1.0, "cs=1e-90, k/Lambda=1"), (0.5, 1e-60, "cs=0.5, k/Lambda=1e-60")])
def test_open_channel_names_a_unit_scale_rate_below_the_normal_doubles(cs, k, named):
    # at Lambda = Omega = 1 these rates came out 0.0 with the channel open,
    # or (Lambda -> 2G at cs = 1e-78) raised naming the scale, not cs
    p = PhysicalParams(1.0, cs)
    pattern = "at Lambda = Omega = 1 underflows the normal doubles at " + re.escape(named) + "$"
    with pytest.raises(OverflowError, match=pattern):
        rate_lambda_to_2g(p) if k is None else rate_g_to_2g(p, k)


def test_rates_report_a_subnormal_error_as_the_smallest_normal_double():
    # at Lambda = 1e-37 both rates are normal but their errors were subnormal
    # (7.2e-313 and 2.6e-310) and kept only a few digits; rounded up to the
    # smallest normal double they are still bounds
    p = PhysicalParams(1e-37, 0.5)
    for res in (rate_lambda_to_2g(p), rate_g_to_2g(p, 1e-37)):
        assert res.rate >= sys.float_info.min
        assert res.estimated_error >= sys.float_info.min


@pytest.mark.parametrize("lam, pattern", [
    (1e-110, "rate .* underflows scaled by Lambda\\^3 at Lambda=1e-110"),
    (1e103, "Lambda\\^3 overflows at Lambda=1e\\+103")], ids=["underflows", "cube-overflows"])
def test_stored_rate_names_lambda_past_the_normal_doubles(lam, pattern):
    # Lambda^3 Gamma(Lambda = 1) was 0.0 at 1e-110, and Lambda^3 at 1e103 a
    # bare OverflowError (34, 'Numerical result out of range')
    with pytest.raises(OverflowError, match=pattern):
        rates.stored_rate(0.5, lam)
    with pytest.raises(OverflowError, match=pattern):
        rates.stored_rate(0.5, lam, lam)


def test_rate_lambda_frozen_value():
    res = rate_lambda_to_2g(_P5)
    assert res.kinematically_open
    assert math.isclose(res.rate, _REF_RATE_LAMBDA_05, rel_tol=1e-10)
    assert res.estimated_error < 1e-9 * res.rate


def test_rate_lambda_interference_zero():
    res = rate_lambda_to_2g(PhysicalParams(1.0, math.sqrt(3.0 / 8.0), 1.0))
    assert res.rate < 1e-8


def test_rate_lambda_lorentz_point():
    res = rate_lambda_to_2g(PhysicalParams(1.0, 1.0, 1.0))
    assert res.rate == 0.0 and res.kinematically_open


def test_rate_lambda_parameter_scaling():
    # the frequency-rescaled vertex carries (w_p w_1 w_2)^2 in |M|^2, so the
    # rate picks up Lambda^8 / Omega^4 at fixed cs
    base = rate_lambda_to_2g(_P5).rate
    for lam, omega in ((2.0, 3.0), (1e-30, 1e10), (1e30, 1e-10)):
        scaled = rate_lambda_to_2g(PhysicalParams(lam, 0.5, omega)).rate
        assert math.isclose(scaled, base * lam**8 / omega**4, rel_tol=1e-9)


@pytest.mark.parametrize("lam", [1e-36, 1e-30, 1e30, 1e36])
def test_rate_lambda_scaling_holds_at_extreme_lambda(lam):
    # k*^2 |M|^2 grows as Lambda^11, so unscaled it under- or overflows at
    # Lambda = 1e-30 and 1e30, where the rate's Lambda^8 is still a normal float
    rate = rate_lambda_to_2g(PhysicalParams(lam, 0.5, 1.0)).rate
    assert math.isclose(rate, lam**8 * rate_lambda_to_2g(_P5).rate, rel_tol=1e-13)
    # the G -> 2G integrand's |M|^2 grows as Lambda^9: unscaled, the rate at
    # k = Lambda was 0.0 at Lambda = 1e-36 and inf at 1e36
    rate = rate_g_to_2g(PhysicalParams(lam, 0.5, 1.0), lam).rate
    assert math.isclose(rate, lam**8 * rate_g_to_2g(_P5, 1.0).rate, rel_tol=1e-13)


# float.hex of (rate, estimated_error), recorded before the kernels cached their
# model-only subexpressions; the tolerance tests would pass a regrouped sum unseen
_RATE_G_BITS = {  # (Lambda, cs, Omega, k)
    (1.0, 0.5, 1.0, 1e-3): ("0x1.007b614510ec9p-94", "0x1.d14f5964c9a37p-138"),
    (1.0, 0.5, 1.0, 1.0): ("0x1.141ae4a36bba0p-19", "0x1.cbf75dadbc5d0p-46"),
    (1.0, 0.2, 1.0, 0.3): ("0x1.8188156420707p-33", "0x1.e765e472d33c9p-61"),
    (1.0, 0.9, 1.0, 1.7): ("0x1.2a62a235b055ep-17", "0x1.d23a1d73e3865p-64"),
    (1.0, 0.99, 1.0, 0.05): ("0x1.1f1876dae7b6ep-67", "0x1.73c895c209311p-113"),
    (1.0, 0.7, 1.0, 1e4): ("0x1.3d1ee2a4e73f1p+12", "0x1.08ac0eca21c44p-18"),
    (2.5, 0.4, 0.3, 1.2): ("0x1.66dccfd21524ap-8", "0x1.5d8035f49488fp-42"),
}
_RATE_LAMBDA_BITS = {  # (Lambda, cs, Omega)
    (1.0, 0.2, 1.0): ("0x1.71e7306219e28p-20", "0x1.fc6413a59acf6p-57"),
    (1.0, 0.5, 1.0): ("0x1.e4990dc446026p-18", "0x1.4d035bb396dccp-54"),
    (1.0, 0.8, 1.0): ("0x1.116d94dfcc2b5p-13", "0x1.77cbf18acbf6dp-50"),
    (3.0, 0.6, 0.5): ("0x1.5b167f0a6af9bp-6", "0x1.dd08b09447408p-43"),
}


def test_rates_reproduce_recorded_bits():
    for (lam, cs, omega, k), bits in _RATE_G_BITS.items():
        res = rate_g_to_2g(PhysicalParams(lam, cs, omega), k)
        assert (res.rate.hex(), res.estimated_error.hex()) == bits, (lam, cs, omega, k)
    for (lam, cs, omega), bits in _RATE_LAMBDA_BITS.items():
        res = rate_lambda_to_2g(PhysicalParams(lam, cs, omega))
        assert (res.rate.hex(), res.estimated_error.hex()) == bits, (lam, cs, omega)


def test_rate_g_frozen_value():
    res = rate_g_to_2g(_P5, 1.0)
    assert res.kinematically_open
    assert math.isclose(res.rate, _REF_RATE_G_05_K1, rel_tol=1e-8)
    assert 0.0 < res.estimated_error < 1e-3 * res.rate


def test_rate_g_soft_suppression():
    # long-wavelength parents live essentially forever
    assert rate_g_to_2g(_P5, 1e-4).rate < 1e-12


def test_rate_g_lorentz_point_closed():
    res = rate_g_to_2g(PhysicalParams(1.0, 1.0, 1.0), 1.0)
    assert res.rate == 0.0 and not res.kinematically_open


def test_rate_g_rejects_bad_momentum():
    with pytest.raises(ValueError):
        rate_g_to_2g(_P5, 0.0)
    with pytest.raises(ValueError):
        rate_g_to_2g(_P5, -1.0)


def test_rate_g_rejects_non_finite_momentum():
    # k = inf used to come back as a closed channel with rate 0
    for k in (math.inf, math.nan):
        with pytest.raises(ValueError, match="k must be positive and finite"):
            rate_g_to_2g(_P5, k)


def test_rate_g_parameter_scaling():
    # same Lambda^8 / Omega^4 scaling as the gapped-mode decay (momentum
    # scales with Lambda to keep the kinematics similar)
    for lam, omega, kappa in ((2.0, 3.0, 1.0), (1e-30, 1e10, 0.05), (1e30, 1e-10, 2.0)):
        base = rate_g_to_2g(_P5, kappa).rate
        scaled = rate_g_to_2g(PhysicalParams(lam, 0.5, omega), kappa * lam).rate
        assert math.isclose(scaled, base * lam**8 / omega**4, rel_tol=1e-8)


def test_rate_g_tolerance_insensitive():
    loose = rate_g_to_2g(_P5, 1.0, rel_tol=1e-6)
    tight = rate_g_to_2g(_P5, 1.0, rel_tol=1e-9)
    assert abs(loose.rate - tight.rate) < 1e-8 * tight.rate


@pytest.mark.parametrize("tol", [math.nan, -1e-6, math.inf])
@pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
def test_rate_g_rejects_bad_tolerance(name, tol):
    # a NaN tolerance used to pass unnoticed: max(epsabs, nan) ignores it
    with pytest.raises(ValueError, match=name):
        rate_g_to_2g(_P5, 1.0, **{name: tol})
    if name == "rel_tol":  # the scans take no abs_tol
        with pytest.raises(ValueError, match=name):
            scan_g_rate((0.5,), (1.0,), **{name: tol})


def test_rate_g_takes_zero_tolerance():
    # zero asks for a purely absolute or purely relative tolerance
    ref = rate_g_to_2g(_P5, 1.0)
    for kwargs in (dict(rel_tol=0.0), dict(abs_tol=0.0)):
        res = rate_g_to_2g(_P5, 1.0, **kwargs)
        assert abs(res.rate - ref.rate) <= res.estimated_error + ref.estimated_error


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 1.0)])
def test_gk21_exact_through_its_degrees(a, b):
    # the 21-point Kronrod rule is exact for x^n, n <= 31, and its embedded
    # 10-point Gauss rule for n <= 19; where both are, K = G and the error
    # estimate is the roundoff floor 50 eps resabs, resabs the rule's |f| sum
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * rates._GK21_X
    eps = np.finfo(float).eps
    for n in range(32):
        exact = (b ** (n + 1) - a ** (n + 1)) / (n + 1)
        value, err = rates._gk21(lambda x: x**n, a, b)
        assert abs(value - exact) <= 1e-14, n
        if n <= 19:
            gauss = 0.5 * (b - a) * float(rates._GK21_WG @ nodes[rates._GK21_GAUSS] ** n)
            assert abs(gauss - exact) <= 1e-14, n
            resabs = 0.5 * (b - a) * float(rates._GK21_WK @ np.abs(nodes**n))
            assert math.isclose(err, 50.0 * eps * resabs, rel_tol=1e-12), n


def test_gk21_degrees_are_sharp():
    # one degree more and each rule misses: these are the qk21 constants,
    # not a higher-order rule
    nodes = rates._GK21_X
    assert abs(float(rates._GK21_WG @ nodes[rates._GK21_GAUSS] ** 20) - 2.0 / 21.0) > 1e-14
    assert abs(rates._gk21(lambda x: x**32, -1.0, 1.0)[0] - 2.0 / 33.0) > 1e-14


def _counted(f):
    calls = []

    def g(x):
        assert type(x) is float
        calls.append(x)
        return f(x)

    return g, calls


def test_quad_bisects_an_endpoint_singularity():
    f, calls = _counted(lambda x: x**-0.5)
    value, err = rates.quad(f, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    assert abs(value - 2.0) <= err <= 2e-10
    # one rule over [0, 1], then two per bisection
    assert len(calls) > 21 and len(calls) % 42 == 21


def test_quad_at_limit_returns_its_estimate_quietly(capfd):
    f, calls = _counted(lambda x: x**-0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, err = rates.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-14, limit=3)
    assert err > 2e-14 and abs(value - 2.0) <= err
    assert len(calls) == 5 * 21  # three intervals: the first and two bisections
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("cs, k", [(0.1, 1.0), (0.5, 1.0), (0.35, 2.0), (0.9, 0.3)])
def test_rate_g_matches_mpmath_quadrature(cs, k, monkeypatch):
    # the same integrand integrated by tanh-sinh at 30 digits lands within
    # the rate's estimated error
    mpmath = pytest.importorskip("mpmath")
    p = PhysicalParams(1.0, cs, 1.0)
    pieces = []
    quad = rates.quad

    def recording(f, a, b, **kwargs):
        pieces.append((f, a, b))
        return quad(f, a, b, **kwargs)

    monkeypatch.setattr(rates, "quad", recording)
    res = rate_g_to_2g(p, k)
    assert len(pieces) == 2
    with mpmath.workdps(30):
        total = sum(mpmath.quad(lambda x: f(float(x)), [a, b]) for f, a, b in pieces)
    w_k = _gapless(params_from_physical(p), k)[0]
    reference = float(total) / (8.0 * math.pi * w_k)
    assert abs(res.rate - reference) <= res.estimated_error


def _item_19(miss):
    """A strict xfail for a point that waits for ROADMAP item 19."""
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item 19, the vertex bracket's cancellation: off by {miss}")


@pytest.mark.parametrize(
    "cs, k, bound",
    [(0.5, 1e-4, 1e-8), (0.9, 0.3, 2e-13), (0.95, 0.2, 2e-13), (0.99, 1.0, 2e-13),
     (1.0 - 1e-9, 1e3, 1e-12), pytest.param(0.5, 1e-8, 1e-13, marks=_item_19("+7.55")),
     pytest.param(1.0 - 1e-6, 1e-3, 1e-13, marks=_item_19("+4.2e-4"))],
)
def test_rate_g_matches_40_digit_reference(cs, k, bound):
    # the float rate against the reference model's integral, end to end at its
    # working digits; a q2 found by bisection in cos, not in closed form, misses
    # the first four cases (by 1.3e-6, 1.0e-12, 5.0e-12 and 1.2e-12 relative),
    # and a q1 window trimmed where rounding flips the angle test misses the
    # fifth (by 2.8e-9)
    reference = float(pytest.importorskip("_reference").rate_g(cs, k))
    assert reference > 0.0
    rate = rate_g_to_2g(PhysicalParams(1.0, cs, 1.0), k).rate
    assert abs(rate - reference) <= bound * reference


@pytest.mark.parametrize("cs, bound", [
    *((cs, None) for cs in (1e-3, 0.05, 0.2, 0.5, 0.6123, 0.62, 0.8, 0.99, 1.0 - 1e-8)),
    pytest.param(0.61237244, 1e-14, marks=_item_19("+1.9e-8")),
    pytest.param(math.sqrt(3.0 / 8.0), 1e-14, marks=_item_19("+5.2"))])
def test_rate_lambda_matches_the_reference(cs, bound):
    # the closed form against the reference model's k*, amplitudes, at-rest
    # bracket and slope, within its estimated error or a given relative bound:
    # its flat 1e-11 error bar holds at 0.6123, 7e-5 from the interference zero
    # sqrt(3/8), but not closer in
    reference = float(pytest.importorskip("_reference").rate_lambda(cs))
    res = rate_lambda_to_2g(PhysicalParams(1.0, cs, 1.0))
    assert abs(res.rate - reference) <= (res.estimated_error if bound is None else bound * reference)


def test_gapless_branch_is_convex_so_the_window_is_all_of_0_k():
    # the G -> 2G window is (0, k) because the energy deficit
    # w_G(k) - w_G(q) - w_G(k - q) is positive at every q in (0, k); checked
    # in the reference model at twice its working digits: at k = 1e76 and
    # cs = 1 - 1e-9 it is 2e-81 of w_G(k), and with the textbook b^2 - 4c at
    # a fixed 40 digits it already reads 0 at k = 1e42
    reference = pytest.importorskip("_reference")
    for cs in (0.05, 0.3, 0.6, 0.9, 0.999, 1.0 - 1e-9):
        for k in (10.0**e for e in range(-6, 77, 2)):
            for x in (1e-6, 0.1, 0.5, 0.9, 0.999999):
                assert reference.deficit(cs, k, x) > 0, (cs, k, x)


@pytest.mark.parametrize("cs", [0.1, 0.5, 0.99])
def test_rate_g_hard_regime_k2_law(cs):
    # far above Lambda the rate goes as D(cs) k^2 up to O(Lambda / k); the
    # window's edge bisection truncated the q1 integral where rounding
    # flipped its angle test, moving Gamma / k^2 by 5e-5 at k = 1e20 and by
    # 2e-3 at k = 1e36
    p = PhysicalParams(1.0, cs, 1.0)
    base = rate_g_to_2g(p, 1e12).rate / 1e24
    for k in (10.0**e for e in range(16, 77, 4)):
        assert math.isclose(rate_g_to_2g(p, k).rate / (k * k), base, rel_tol=1e-9), k


@pytest.mark.parametrize("Lambda, k", [
    (1.0, 1e100), (1e-50, 1e30), (1.0, 1e-160), (1e100, 1e-60), (1e-100, 1e-260)])
def test_rate_g_names_momenta_past_the_float_range(Lambda, k):
    # from k / Lambda ~ 1.2e77 on w_G overflows and no angle conserves energy
    # in double precision: a named failure, not a closed channel with rate 0.
    # Below k / Lambda ~ 1.5e-145 the window's lower end squared is subnormal,
    # and these three raised a bare ZeroDivisionError.  The window runs at
    # Lambda = 1, so it names k/Lambda
    with pytest.raises(RuntimeError, match=re.escape(f"cs=0.5, k/Lambda={k / Lambda:g}") + "$"):
        rate_g_to_2g(PhysicalParams(Lambda, 0.5, 1.0), k)


@pytest.mark.parametrize("call, named", [
    (lambda: rates.stored_rate(0.5, 1e-110, 0.1), "leave the double range at cs=0.5, k/Lambda=1e+109"),
    (lambda: scan_g_rate((0.5,), (0.1,), Lambda=1e-110),
     "g-rate scan failed at cs=0.5, k=0.1: G -> 2G kinematics leave the double range at cs=0.5, "
     "k/Lambda=1e+109"),
    (lambda: rates.stored_rate(0.5, 1e-100, 1e-160),
     "underflows the normal doubles at cs=0.5, k/Lambda=1e-60"),
], ids=["stored-window", "scan-window", "stored-underflow"])
def test_stored_path_names_k_over_lambda(call, named):
    # the stored path runs the guards at Lambda = 1, and they labelled kappa
    # as the caller's k: these named "k=1e+109, Lambda=1" and "k=1e-60"
    with pytest.raises((RuntimeError, OverflowError)) as exc:
        call()
    assert str(exc.value).endswith(named) and not re.search(r"\bLambda=1\b", str(exc.value)), exc.value


@pytest.mark.parametrize("cs", [0.05, 0.3, 0.6, 0.9, 0.999])
@pytest.mark.parametrize("k", [1e-4, 0.1, 1.0, 2.0, 10.0])
def test_g2g_second_daughter_closes_the_triangle(cs, k):
    # the integrand's closed-form q2 = k_G(w_k - w_G(q1)) conserves energy and
    # lies in [|k - q1|, k + q1], so an angle cos(theta) in [-1, 1] exists at
    # every node of the window and the integrand needs no existence test;
    # the slack is ulps of k, since w_k - w_1 is rounded at the scale of w_k
    m = params_from_physical(PhysicalParams(1.0, cs, 1.0))
    w_k = _gapless(m, k)[0]
    ulp = math.ulp(k)
    for q1 in np.linspace(1e-9 * k, k - 1e-9 * k, 1001).tolist():
        w_1 = _gapless(m, q1)[0]
        q2 = _k_of_omega(m, w_k - w_1)
        assert abs(k - q1) - 4.0 * ulp <= q2 <= k + q1 + 4.0 * ulp, q1
        assert abs(w_1 + _gapless(m, q2)[0] - w_k) <= 1e-14 * w_k, q1


def test_numpy_is_the_only_runtime_dependency(tmp_path):
    # a fresh interpreter that imports the package, computes a G -> 2G rate
    # and runs a CLI scan loads no third-party module besides numpy
    code = """if True:
        import sys
        before = set(sys.modules)
        import tcphonon, tcphonon.cli
        tcphonon.rate_g_to_2g(tcphonon.PhysicalParams(1.0, 0.5, 1.0), 1.0)
        assert tcphonon.cli.main(["rate-g", "--points", "2", "--output", sys.argv[1]]) == 0
        loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
        print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
    """
    src = os.path.dirname(os.path.dirname(tcphonon.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "rate-g.csv")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["numpy", "tcphonon"]


def test_mc_oracle_matches_lambda_quadrature():
    quad = rate_lambda_to_2g(_P5)
    mc = mc_rate_oracle(_P5, "lambda-2g", seed=1, samples=400_000)
    assert abs(mc.rate - quad.rate) < 0.01 * quad.rate
    # stratified radial sampling makes the smooth 1D integrand quasi-exact
    assert abs(mc.rate - quad.rate) < 1e-4 * quad.rate
    assert abs(mc.rate - quad.rate) < quad.estimated_error + mc.estimated_error


def test_mc_oracle_matches_g_quadrature():
    quad = rate_g_to_2g(_P5, 1.0)
    mc = mc_rate_oracle(_P5, "g-2g", k=1.0, seed=0, samples=800_000)
    assert abs(mc.rate - quad.rate) < 0.01 * quad.rate


_DOMAIN_CS = (0.05, 0.2, 0.5, 0.9, 0.99, 1.0 - 1e-6)
_DOMAIN_KAPPA = (1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e4, 1e6)


def test_mc_oracle_matches_quadrature_across_the_domain():
    # the width ladder missed by 2-6% away from cs = 0.5, k = 1 and raised at
    # k = 1e-2 and 1e4.  The rays hold the rate to 1e-4 up to k = 100 Lambda
    # and to 1e-3 above, within four of their errors, at 8e6 samples in at
    # most 0.1 s of CPU a call.  At cs = 1 - 1e-6, k = 1e-3 the bracket's
    # condition number is 1.4e12, and its rounding, which the error counts,
    # costs both rates about 1e-4 (rate_g_to_2g misses a 40-digit reference
    # by 4.2e-4 there, with an estimated error of 1.5e-3): that point is held
    # to its error alone
    for cs in _DOMAIN_CS:
        p = PhysicalParams(1.0, cs, 1.0)
        for kappa in _DOMAIN_KAPPA:
            quad = rate_g_to_2g(p, kappa, rel_tol=1e-12)
            start = time.process_time()
            mc = mc_rate_oracle(p, "g-2g", k=kappa, seed=7, samples=8_000_000)
            seconds = time.process_time() - start
            where = (cs, kappa, mc, quad)
            assert abs(mc.rate - quad.rate) <= 4.0 * mc.estimated_error, where
            bound = 1e-4 if kappa <= 1e2 else 1e-3
            if (cs, kappa) == (1.0 - 1e-6, 1e-3):
                assert quad.estimated_error > bound * quad.rate, where
            else:
                assert mc.estimated_error <= bound * mc.rate, where
            assert seconds <= 0.1, where


def test_mc_oracle_takes_a_ray_whose_bracket_rounds_to_zero(monkeypatch):
    # where the bracket cancels to a part in 1e12 a ray's t can round to 0.0,
    # with no weight and an infinite condition number: at cs = 1 - 1e-6,
    # k = 1e-3, seed 0 their product made the error NaN and the call raise
    res = mc_rate_oracle(PhysicalParams(1.0, 1.0 - 1e-6, 1.0), "g-2g", k=1e-3, seed=0, samples=8_000_000)
    assert res.rate > 0.0 and math.isfinite(res.estimated_error)
    bracket = rates._bracket

    def first_zero(*legs):
        t = np.array(bracket(*legs))
        t.flat[0] = 0.0
        return t

    monkeypatch.setattr(rates, "_bracket", first_zero)
    res = mc_rate_oracle(_P5, "g-2g", k=1.0, seed=7, samples=20_000)
    assert res.rate > 0.0 and math.isfinite(res.estimated_error)


def test_mc_oracle_names_a_non_finite_ray_weight(monkeypatch):
    # a NaN weight ends the sum at once and is named, not averaged in
    ray_weights = rates._ray_weights

    def first_nan(*args):
        weights, condition, top = ray_weights(*args)
        weights.flat[0] = math.nan
        return weights, condition, top

    monkeypatch.setattr(rates, "_ray_weights", first_nan)
    with pytest.raises(RuntimeError, match=r"the rate \(nan\) \w+ double precision at Lambda=1.0"):
        mc_rate_oracle(_P5, "g-2g", k=1.0, seed=7, samples=20_000)


@pytest.mark.parametrize("cs", [0.05, 0.3, 0.5, 0.6, 0.7, 0.9, 0.99, 1.0 - 1e-6])
def test_mc_oracle_at_rest_error_bounds_its_deviation(cs):
    # at rest the oracle's error is a stated bound (the bisection's bracket and
    # rounding, times the bracket's condition number); the i.i.d. bound it
    # replaced was about 500 times the real error
    for lam in (1.0, 1e-20, 3.7, 1e20):
        p = PhysicalParams(lam, cs, 1.0)
        closed = rate_lambda_to_2g(p).rate
        mc = mc_rate_oracle(p, "lambda-2g", seed=7, samples=20_000)
        assert abs(mc.rate - closed) <= mc.estimated_error <= 1e-12 * mc.rate, (cs, lam, mc, closed)


def test_mc_oracle_deterministic():
    a = mc_rate_oracle(_P5, "lambda-2g", seed=3, samples=50_000)
    b = mc_rate_oracle(_P5, "lambda-2g", seed=3, samples=50_000)
    assert a.rate == b.rate and a.estimated_error == b.estimated_error


def test_mc_oracle_lorentz_point():
    res = mc_rate_oracle(PhysicalParams(1.0, 1.0, 1.0), "lambda-2g")
    assert res.rate == 0.0 and res.estimated_error == 0.0 and res.kinematically_open
    res = mc_rate_oracle(PhysicalParams(1.0, 1.0, 1.0), "g-2g", k=1.0)
    assert res.rate == 0.0 and not res.kinematically_open


def test_mc_oracle_input_validation():
    with pytest.raises(ValueError):
        mc_rate_oracle(_P5, "nonsense")
    with pytest.raises(ValueError):
        mc_rate_oracle(_P5, "g-2g")  # missing parent momentum
    with pytest.raises(ValueError, match="momentum k"):
        mc_rate_oracle(_P5, "lambda-2g", k=1.0)  # the parent is at rest
    for samples in (0, 1):  # used to escape as LinAlgError / ZeroDivisionError
        with pytest.raises(ValueError, match="samples"):
            mc_rate_oracle(_P5, "lambda-2g", samples=samples)
    for k in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite parent momentum"):
            mc_rate_oracle(_P5, "g-2g", k=k)


@pytest.mark.parametrize("process", ["lambda-2g", "g-2g"])
@pytest.mark.parametrize("samples", [2, 3])
def test_mc_oracle_tiny_samples_fail_cleanly(process, samples, capfd):
    # a sample count that gives no angle cell used to escape the width fit as
    # a math domain error, or as LinAlgError with LAPACK lines printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=rf"samples={samples} gives 0 cells per replicate"):
            mc_rate_oracle(_P5, process, k=_k(process), seed=3, samples=samples)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize(
    "process, samples", [("lambda-2g", 5), ("lambda-2g", 16), ("g-2g", 64)]
)
def test_mc_oracle_few_effective_samples_fail(process, samples):
    # 0, 1 and 2 angle cells per replicate: a spread over replicates of so few
    # cells is not trusted as an error, and the call names samples
    with pytest.raises(RuntimeError, match=rf"samples={samples} gives \d cells per replicate, "
                                           rf"too few for a spread"):
        mc_rate_oracle(_P5, process, k=_k(process), seed=3, samples=samples)


def test_mc_oracle_takes_its_fewest_cells():
    fewest = rates._MC_REPLICATES * rates._MC_MIN_CELLS**2
    for process in ("lambda-2g", "g-2g"):
        assert mc_rate_oracle(_P5, process, k=_k(process), samples=fewest).rate > 0.0
        with pytest.raises(RuntimeError, match=f"samples={fewest - 1} gives"):
            mc_rate_oracle(_P5, process, k=_k(process), samples=fewest - 1)


def test_mc_oracle_returns_python_floats():
    res = mc_rate_oracle(_P5, "g-2g", k=1.0, samples=20_000)
    assert type(res.rate) is float and type(res.estimated_error) is float


# the oracle at seed 7 and 200 000 samples: eight replicates of 158 jittered
# rays for g-2g, and the one at-rest root with its stated error bound
_REF_MC_SEED7 = {
    "lambda-2g": (7.221070920125644e-06, 1.9511975901126228e-19),
    "g-2g": (2.057642568252846e-06, 5.219440814353216e-10),
}


@pytest.mark.parametrize("process", sorted(_REF_MC_SEED7))
def test_mc_oracle_draws_unchanged(process):
    res = mc_rate_oracle(_P5, process, k=_k(process), seed=7, samples=200_000)
    rate, err = _REF_MC_SEED7[process]
    assert math.isclose(res.rate, rate, rel_tol=1e-12)
    assert math.isclose(res.estimated_error, err, rel_tol=1e-12)


@pytest.mark.parametrize("process", ["lambda-2g", "g-2g"])
def test_mc_oracle_block_size_invariant(process, monkeypatch):
    kwargs = dict(k=_k(process), seed=5, samples=150_000)
    ref = mc_rate_oracle(_P5, process, **kwargs)
    for block in (1000, 4099):  # a divisor of samples, and a ragged last block
        monkeypatch.setattr(rates, "_MC_BLOCK", block)
        res = mc_rate_oracle(_P5, process, **kwargs)
        assert math.isclose(res.rate, ref.rate, rel_tol=1e-12)
        assert math.isclose(res.estimated_error, ref.estimated_error, rel_tol=1e-12)


def test_mc_oracle_memory_bounded():
    def peak_mb(samples):
        tracemalloc.start()
        try:
            mc_rate_oracle(_P5, "g-2g", k=1.0, seed=2, samples=samples)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    small, large = peak_mb(200_000), peak_mb(2_000_000)
    assert large < 32.0
    assert abs(large - small) < 2.0


@pytest.mark.parametrize("process", ["lambda-2g", "g-2g"])
def test_mc_oracle_block_working_set(process):
    # blocks of 2^15 samples peaked at 6.5-9.0 MB traced per call, and
    # batches of 2^13 points peak at 1.0-1.5 MB
    for samples in (200_000, 2_000_000):
        tracemalloc.start()
        try:
            mc_rate_oracle(_P5, process, k=_k(process), seed=2, samples=samples)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 4.0, f"{process}, samples={samples}: traced peak {peak:.2f} MB"


@pytest.mark.parametrize("cs", [0.3, 0.5])
@pytest.mark.parametrize("process", ["lambda-2g", "g-2g"])
@pytest.mark.parametrize("lam, omega, k", [(1.0, 1.0, 1.0), (0.5, 4.0, 0.5)])
def test_mc_oracle_parameter_scaling(process, cs, lam, omega, k):
    # the oracle bisects its rays in units of k (at rest, of Lambda / 2 cs), so
    # doubling Lambda, Omega and k multiplies its rate by 2^8 / 2^4 = 16 (the
    # closed forms' scaling) up to roundoff
    kwargs = dict(seed=4, samples=100_000)
    base = mc_rate_oracle(PhysicalParams(lam, cs, omega), process, k=_k(process, k), **kwargs)
    doubled = PhysicalParams(2.0 * lam, cs, 2.0 * omega)
    scaled = mc_rate_oracle(doubled, process, k=_k(process, 2.0 * k), **kwargs)
    assert base.rate > 0.0
    assert math.isclose(scaled.rate, 16.0 * base.rate, rel_tol=1e-12)


@pytest.mark.parametrize("lam", [1e-20, 1e-7, 1e10, 1e20])
@pytest.mark.parametrize("process", ["lambda-2g", "g-2g"])
def test_mc_oracle_is_scale_free(process, lam):
    # the width fit used to weigh absolute widths and rates: at Lambda <= 1e-6
    # it dropped the width^2 column (lambda-2g off by 2e-3, g-2g by 1e-2 to 4e-2), at
    # 1e10 lambda-2g returned 1.25e41 +- 5.7e72, and 1e-20 and 1e20 failed
    # with a NaN error or a math domain error
    kwargs = dict(seed=7, samples=100_000)
    base = mc_rate_oracle(_P5, process, k=_k(process), **kwargs)
    res = mc_rate_oracle(PhysicalParams(lam, 0.5, 1.0), process, k=_k(process, lam), **kwargs)
    assert math.isclose(res.rate, lam**8 * base.rate, rel_tol=1e-12)
    assert math.isclose(res.estimated_error, lam**8 * base.estimated_error, rel_tol=1e-12)


@pytest.mark.parametrize("lam, omega, kappa", [
    (2.5, 0.7, 1.3), (1e-20, 1e-10, 0.3), (1e20, 1e10, 2.0), (1.0, 1e-10, 0.05), (1.0, 1e10, 0.05)])
@pytest.mark.parametrize("process", ["lambda-2g", "g-2g"])
def test_closed_forms_scale_like_the_oracle(process, lam, omega, kappa):
    # the closed forms compute at Lambda = Omega = 1 and apply Lambda^8 / Omega^4
    # (rates._scaled); the oracle computes at the caller's Lambda and Omega, so
    # the two scale alike only if that law is the model's
    def closed(p, k):
        return (rate_lambda_to_2g(p) if k is None else rate_g_to_2g(p, k)).rate

    def oracle(p, k):
        return mc_rate_oracle(p, process, k=k, seed=7, samples=100_000).rate

    p, k, k1 = PhysicalParams(lam, 0.5, omega), _k(process, kappa * lam), _k(process, kappa)
    assert math.isclose(oracle(p, k) / oracle(_P5, k1), closed(p, k) / closed(_P5, k1),
                        rel_tol=1e-12)


_SHELL_CASES = [("lambda-2g", cs, None) for cs in (0.3, 0.5, 0.9, 0.99, 0.05)] + [
    ("g-2g", 0.5, 1.0), ("g-2g", 0.9, 1.0), ("g-2g", 0.5, 0.2), ("g-2g", 0.5, 2.0),
    ("g-2g", 0.35, 1.5), ("g-2g", 0.05, 1.0)]


@pytest.mark.parametrize("process, cs, k", _SHELL_CASES, ids=[
    f"{process}-{cs}" + ("" if k in (None, 1.0) else f"-k{k}") for process, cs, k in _SHELL_CASES])
def test_mc_oracle_shell_cut_is_exact(process, cs, k, monkeypatch):
    # the oracle bisects only where the energy shell is: a moving parent's
    # rays at mu in [mu_min, 1), mu_min = cs / w_G'(k), over r in (0, k), and
    # the at-rest root over r in (0, Lambda / (2 cs)).  Nothing the cut drops
    # reaches the shell, E(r) = w_p - w_G(r) - w_G(|p - r n|) < 0 there, and
    # every root the oracle takes lies inside its bracket with E = 0 to
    # rounding.  At cs = 0.9 the g-2g band is about 3% of the sphere; k = 0.2
    # is a soft parent, and at cs = 0.05 the at-rest bracket runs far past the
    # shell
    rays, roots = [], []
    ray_weights, bisect = rates._ray_weights, rates._bisect

    def recorded_rays(*args):
        rays.append(args[-1].copy())
        weights = ray_weights(*args)
        assert np.all(weights[0] > 0.0) and np.all(np.isfinite(weights[0]))
        return weights

    def recorded_roots(*args):
        t = bisect(*args)
        roots.append(np.ravel(t).copy())
        return t

    monkeypatch.setattr(rates, "_ray_weights", recorded_rays)
    monkeypatch.setattr(rates, "_bisect", recorded_roots)
    p = PhysicalParams(1.0, cs, 1.0)
    m = params_from_physical(p)
    res = mc_rate_oracle(p, process, k=k, seed=7, samples=200_000)
    assert res.rate > 0.0
    t = np.concatenate(roots)
    assert t.size > 0 and np.all((0.0 < t) & (t < 1.0))

    def w(r):
        return _gapless(m, np.asarray(r, dtype=float))[0]

    if k is None:
        unit = 0.5 / cs  # Lambda / (2 cs)
        assert t.size == 1
        assert abs(1.0 - 2.0 * w(unit * t[0])) < 1e-12
        beyond = unit * np.geomspace(1.0, 1e3, 400)
        assert np.all(1.0 - 2.0 * w(beyond) < 0.0)
        return
    w_k, pi_k, sg_k = _gapless(m, k)
    mu_min = cs / _gapless_slope(m, k, pi_k, sg_k)
    y = np.concatenate([r.ravel() for r in rays])
    assert y.size == t.size
    assert np.all(y > 0.0) and np.all(1.0 - y >= mu_min * (1.0 - 1e-12))

    def energy(t, y):  # E(r = t k) on the ray 1 - mu = y
        return w_k - w(k * t) - w(k * np.sqrt((1.0 - t) ** 2 + 2.0 * t * y))

    assert np.all(np.abs(energy(t, y)) < 1e-12 * w_k)
    grid = np.geomspace(1e-6, 1.0, 400)[:, None]
    dropped = 1.0 - np.linspace(-1.0, mu_min, 64, endpoint=False)
    assert np.all(energy(grid, dropped) < 0.0)
    kept = np.sort(y)[:: max(y.size // 64, 1)]
    signs = np.sign(energy(grid, kept))
    assert np.all(signs[0] > 0.0) and np.all(signs[-1] < 0.0)
    assert np.all(np.count_nonzero(np.diff(signs, axis=0), axis=0) == 1)


def test_mc_oracle_runs_the_resolvent_on_the_band_only(monkeypatch):
    # the band is mu in [mu_min, 1), mu_min = cs / w_G'(k) (from the
    # Hellmann-Feynman slope here): every drawn ray lies in it, and each costs
    # two resolvents per halving of its bisection and two at its root.  At
    # rest one bisection serves every ray
    rays, resolved = [], []
    ray_weights, resolvent = rates._ray_weights, rates._resolvent

    def recorded(*args):
        rays.append(args[-1].copy())
        return ray_weights(*args)

    def counted(m, u):
        resolved.append(np.size(u))
        return resolvent(m, u)

    monkeypatch.setattr(rates, "_ray_weights", recorded)
    monkeypatch.setattr(rates, "_resolvent", counted)
    samples, p = 200_000, PhysicalParams(1.0, 0.9, 1.0)
    mc_rate_oracle(p, "g-2g", k=1.0, seed=7, samples=samples)
    y = np.concatenate([r.ravel() for r in rays])
    m = params_from_physical(p)
    _, pi_k, sg_k = _gapless(m, 1.0)
    mu_min = p.cs / _gapless_slope(m, 1.0, pi_k, sg_k)
    assert y.size == rates._MC_REPLICATES * math.isqrt(samples // rates._MC_REPLICATES)
    assert np.all(y > 0.0)
    assert np.count_nonzero(1.0 - y < mu_min * (1.0 - 1e-12)) == 0
    assert sum(resolved) == y.size * (2 * rates._MC_HALVINGS + 2)
    for cs in (0.3, 0.5, 0.99):
        resolved.clear()
        mc_rate_oracle(PhysicalParams(1.0, cs, 1.0), "lambda-2g", seed=7, samples=samples)
        assert sum(resolved) == rates._MC_HALVINGS + 1, cs


@pytest.mark.parametrize("lam", [1e-200, 1e-160, 1e-100, 1e-60, 1e30, 1e80])
@pytest.mark.parametrize("process", ["lambda-2g", "g-2g"])
def test_mc_oracle_names_lambda_past_its_range(process, lam):
    # from 1e-100 down the oracle raised a bare ZeroDivisionError, and it
    # called an underflow an overflow: a call now gives a finite rate, which
    # is the Lambda^8 law's, or a RuntimeError naming Lambda
    kwargs = dict(seed=7, samples=100_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = mc_rate_oracle(PhysicalParams(lam, 0.5, 1.0), process, k=_k(process, lam), **kwargs)
        except RuntimeError as exc:
            assert f"Lambda={lam}" in str(exc)
            return
    base = mc_rate_oracle(_P5, process, k=_k(process), **kwargs)
    assert math.isclose(res.rate, lam**8 * base.rate, rel_tol=1e-12)
    assert 0.0 < res.estimated_error < math.inf


@pytest.mark.parametrize("lam, flow", [(1e30, "overflowed"), (1e-35, "underflowed")])
@pytest.mark.parametrize("process", ["lambda-2g", "g-2g"])
def test_mc_oracle_names_moments_out_of_range(process, lam, flow):
    # the Gaussian-width estimate's squared sample weights scaled as Lambda^12:
    # they overflowed at 1e30 and flushed to 0 at 1e-35, and both were
    # reported as too few samples on the energy shell.  The ray oracle forms
    # its spread relative to the mean, so at 1e30 it keeps the Lambda^8 law;
    # at 1e-35 |M|^2 itself underflows, and the failure says so
    kwargs = dict(seed=7, samples=100_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if flow == "underflowed":
            with pytest.raises(RuntimeError, match=rf" underflowed double precision at Lambda={re.escape(str(lam))}, "):
                mc_rate_oracle(PhysicalParams(lam, 0.5, 1.0), process, k=_k(process, lam), **kwargs)
            return
        res = mc_rate_oracle(PhysicalParams(lam, 0.5, 1.0), process, k=_k(process, lam), **kwargs)
    base = mc_rate_oracle(_P5, process, k=_k(process), **kwargs)
    assert math.isclose(res.rate, lam**8 * base.rate, rel_tol=1e-12)
    assert math.isclose(res.estimated_error, lam**8 * base.estimated_error, rel_tol=1e-12)


@pytest.mark.parametrize("samples", [2e4, 20_000.0, True, "20000", None])
def test_mc_oracle_rejects_non_int_samples(samples):
    # 2e4 used to escape as a TypeError, and True to be reported as "got True"
    with pytest.raises(ValueError, match="samples"):
        mc_rate_oracle(_P5, "lambda-2g", samples=samples)


def test_mc_oracle_takes_numpy_int_samples():
    # the angle stream is advanced by samples, which raised OverflowError
    # for a numpy int
    for process in ("lambda-2g", "g-2g"):
        a = mc_rate_oracle(_P5, process, k=_k(process), seed=3, samples=20_000)
        for dtype in (np.int64, np.int32, np.uint64):
            b = mc_rate_oracle(_P5, process, k=_k(process), seed=dtype(3), samples=dtype(20_000))
            assert (a.rate, a.estimated_error) == (b.rate, b.estimated_error), (process, dtype)


@pytest.mark.parametrize("seed", [-1, 1.5, None, True, "3"])
def test_mc_oracle_rejects_bad_seed(seed):
    # -1 raised numpy's message without naming seed, 1.5 and None a TypeError,
    # and True and "3" were taken
    with pytest.raises(ValueError, match="seed"):
        mc_rate_oracle(_P5, "lambda-2g", seed=seed, samples=20_000)


def test_decay_result_validation():
    with pytest.raises(ValueError):
        DecayResult(rate=-1.0, kinematically_open=True, estimated_error=0.0)
    with pytest.raises(ValueError):
        DecayResult(rate=1.0, kinematically_open=False, estimated_error=0.0)
    DecayResult(rate=0.0, kinematically_open=False, estimated_error=0.0)


def test_scan_lambda_rate_plumbing():
    curve = scan_lambda_rate((0.3, 0.5, 0.9))
    assert isinstance(curve, tuple) and len(curve) == 3
    assert all(type(r) is float and r >= 0.0 for r in curve)
    assert math.isclose(curve[1], _REF_RATE_LAMBDA_05, rel_tol=1e-10)


def test_scan_rate_storage_unit():
    # curves store Gamma * Omega^4 / Lambda^5; with Gamma itself scaling as
    # Lambda^8 / Omega^4 the stored numbers pick up the residual Lambda^3
    a = scan_lambda_rate((0.3, 0.5, 0.9))
    b = scan_lambda_rate((0.3, 0.5, 0.9), Lambda=2.0)
    np.testing.assert_allclose(b, np.asarray(a) * 8.0, rtol=1e-9)


def test_scan_g_rate_plumbing():
    curves = scan_g_rate((0.5, 0.8), (0.5, 1.0, 1.5))
    assert isinstance(curves, list) and len(curves) == 2
    for cs, curve in zip((0.5, 0.8), curves):
        assert isinstance(curve, tuple) and len(curve) == 3
        assert all(type(r) is float and r >= 0.0 for r in curve)
        assert curve[1] == rate_g_to_2g(PhysicalParams(1.0, cs, 1.0), 1.0).rate
    assert math.isclose(curves[0][1], _REF_RATE_G_05_K1, rel_tol=1e-8)


def _no_rate(*args):
    raise AssertionError("a rate was computed before the scan's inputs were checked")


def test_scan_failure_names_offending_point(monkeypatch):
    # a bad cs used to come out as a RuntimeError, after the rates of the
    # points before it had been computed
    monkeypatch.setattr(rates, "rate_lambda_to_2g", _no_rate)
    monkeypatch.setattr(rates, "rate_g_to_2g", _no_rate)
    with pytest.raises(ValueError, match=r"cs must lie in \(0, 1\], got 1.5"):
        scan_lambda_rate((0.5, 1.5))
    with pytest.raises(ValueError, match=r"cs must lie in \(0, 1\], got 1.5"):
        scan_g_rate((0.5, 1.5), (0.5, 1.0))
    with pytest.raises(ValueError, match="cs grid must be strictly increasing"):
        scan_lambda_rate((0.5, 0.3))
    for k_grid, message in (
        ((0.5, -1.0), "parent momentum k"),
        ((0.5, math.nan), "parent momentum k"),
        ((1.0, 1.0), "k grid must be strictly increasing"),
    ):
        with pytest.raises(ValueError, match=message):
            scan_g_rate((0.5,), k_grid)


@pytest.mark.parametrize("name, value", [("Lambda", -1.0), ("Lambda", 0.0), ("Lambda", math.inf)])
@pytest.mark.parametrize("cs_grid", [(), (0.5, 0.7)], ids=["empty", "two"])
def test_scans_check_lambda_and_omega_first(name, value, cs_grid, monkeypatch):
    # on an empty grid Lambda = -1 used to return an empty curve; the scans
    # take no Omega since they compute at Omega = 1
    monkeypatch.setattr(rates, "rate_lambda_to_2g", _no_rate)
    monkeypatch.setattr(rates, "rate_g_to_2g", _no_rate)
    message = f"{name} must be positive and finite"
    with pytest.raises(ValueError, match=message):
        scan_lambda_rate(cs_grid, Lambda=value)
    # checked before the other inputs, whatever they are
    with pytest.raises(ValueError, match=message):
        scan_g_rate(cs_grid, (1.0, -1.0), Lambda=value, rel_tol=math.nan)


def test_scans_at_huge_lambda_fail_naming_the_point():
    # the stored Lambda^3 Gamma(1) overflows at Lambda = 1e200; the storage unit
    # Lambda^5 used to escape as a raw OverflowError before the first point
    with pytest.raises(RuntimeError, match="lambda-rate scan failed at cs=0.5: .*out of range"):
        scan_lambda_rate((0.5,), Lambda=1e200)
    with pytest.raises(RuntimeError, match=r"g-rate scan failed at cs=0.5, k=1e\+200: .*out of range"):
        scan_g_rate((0.5,), (1e200,), Lambda=1e200)


def test_scan_numerical_failure_names_point(monkeypatch):
    def overflow(*args):
        raise OverflowError("math range error")

    monkeypatch.setattr(rates, "rate_lambda_to_2g", overflow)
    monkeypatch.setattr(rates, "rate_g_to_2g", overflow)
    with pytest.raises(RuntimeError, match="lambda-rate scan failed at cs=0.5: math range error"):
        scan_lambda_rate((0.5, 0.7))
    with pytest.raises(RuntimeError, match="g-rate scan failed at cs=0.5, k=1.0: math range error"):
        scan_g_rate((0.5,), (1.0, 2.0))

    # a failed eigensolve is a ValueError too: it used to escape unnamed
    def eigensolve(*args):
        raise np.linalg.LinAlgError("x")

    monkeypatch.setattr(rates, "rate_g_to_2g", eigensolve)
    with pytest.raises(RuntimeError, match="g-rate scan failed at cs=0.5, k=1.0: x"):
        scan_g_rate((0.5,), (1.0,))


def test_scan_programming_error_is_not_a_numerical_failure(monkeypatch):
    # both scans caught every Exception, so a TypeError became "scan failed at
    # cs=..." and the command line's numerical failure (exit 1)
    def broken(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(rates, "rate_lambda_to_2g", broken)
    monkeypatch.setattr(rates, "rate_g_to_2g", broken)
    with pytest.raises(TypeError, match="^unsupported operand$"):
        scan_lambda_rate((0.5, 0.7))
    with pytest.raises(TypeError, match="^unsupported operand$"):
        scan_g_rate((0.5,), (1.0, 2.0))


# The |M|^2 kernels of the rate paths against vertex.matrix_element.  Near the
# interference zero of the at-rest decay |M|^2 itself vanishes, so there the
# bound is absolute: 1e-12 of |M|^2 with every bracket term taken positive.
_SQ38 = math.sqrt(3.0 / 8.0)
_CS_PINS = (0.1, 0.35, 0.5, _SQ38 - 9e-4, _SQ38 + 4e-4, 0.8, 0.99)


def _leg(branch, vec):
    return Leg(branch, np.asarray(vec, dtype=float))


def _at_rest_m2(cs):
    """(kernel |M|^2, its no-cancellation scale, matrix_element |M|^2) at k*."""
    p = PhysicalParams(1.0, cs, 1.0)
    m = params_from_physical(p)
    kstar = lambda_threshold_momentum(p)
    w_g, pi_g, sg_g = _gapless(m, kstar)
    lam3, w, parent = cubic_coupling(p), p.Lambda * w_g * w_g, _gapped_at_rest(m, p.Lambda)
    kernel = rates._m2(lam3, w, rates._bracket(*parent, pi_g, sg_g, pi_g, sg_g))
    scale = rates._m2(lam3, w, rates._bracket(*parent, pi_g, -sg_g, pi_g, -sg_g))
    vertex = matrix_element(p, _leg(BranchLabel.L, [0, 0, 0]), _leg(BranchLabel.G, [0, 0, kstar]),
                            _leg(BranchLabel.G, [0, 0, -kstar]))
    return kernel, scale, abs(vertex) ** 2


def test_at_rest_bracket_matches_matrix_element():
    for cs in _CS_PINS:
        kernel, scale, vertex = _at_rest_m2(cs)
        if abs(cs - _SQ38) < 1e-3:
            assert abs(kernel - vertex) <= 1e-12 * scale
        else:
            assert math.isclose(kernel, vertex, rel_tol=1e-12)


# (parent k, daughter q1, angle of q1 to the parent) over the G -> 2G phase space
_G2G_CONFIGS = ((0.3, 0.1, 0.4), (1.0, 0.5, 0.2), (1.7, 0.3, 1.3), (2.0, 1.4, 0.05))


def _g2g_legs(k, q1, angle):
    parent = np.array([0.0, 0.0, k])
    child1 = q1 * np.array([math.sin(angle), 0.0, math.cos(angle)])
    return tuple(_leg(BranchLabel.G, v) for v in (parent, child1, parent - child1))


def _g2g_m2(p, magnitudes):
    """Kernel |M|^2 from the parent's and daughters' (omega_G, |pi_G|, |sigma_G|)."""
    (w_k, pi_k, sg_k), (w_1, pi_1, sg_1), (w_2, pi_2, sg_2) = magnitudes
    bracket = rates._bracket(pi_k, sg_k, pi_1, sg_1, pi_2, sg_2)
    return rates._m2(cubic_coupling(p), w_k * w_1 * w_2, bracket)


def test_g2g_bracket_matches_matrix_element():
    for cs in _CS_PINS:
        p = PhysicalParams(1.0, cs, 1.0)
        m = params_from_physical(p)
        for config in _G2G_CONFIGS:
            legs = _g2g_legs(*config)
            kernel = _g2g_m2(p, [_gapless(m, leg.k) for leg in legs])
            assert math.isclose(kernel, abs(matrix_element(p, *legs)) ** 2, rel_tol=1e-12)


def test_bracket_kernels_take_arrays():
    # one array call per kernel equals the float calls bit for bit, and so
    # matches the vertex just as they do
    for cs in (0.35, 0.8):
        p = PhysicalParams(1.0, cs, 1.0)
        m = params_from_physical(p)
        legs = [_g2g_legs(*config) for config in _G2G_CONFIGS]
        per_leg = [np.array([leg[j].k for leg in legs]) for j in range(3)]
        arrays = _g2g_m2(p, [_gapless(m, q) for q in per_leg])
        floats = [_g2g_m2(p, [_gapless(m, x.k) for x in leg]) for leg in legs]
        assert np.array_equal(arrays, floats)
        vertex = [abs(matrix_element(p, *leg)) ** 2 for leg in legs]
        np.testing.assert_allclose(arrays, vertex, rtol=1e-12, atol=0.0)

        kstar = lambda_threshold_momentum(p)
        lam3, parent = cubic_coupling(p), _gapped_at_rest(m, p.Lambda)

        def at_rest(q):
            w, pi, sg = _gapless(m, q)
            return rates._m2(lam3, p.Lambda * w * w, rates._bracket(*parent, pi, sg, pi, sg))

        ks = kstar * np.array([0.5, 1.0, 1.5])
        arrays = at_rest(ks)
        assert np.array_equal(arrays, [at_rest(float(q)) for q in ks])
        assert math.isclose(arrays[1], _at_rest_m2(cs)[2], rel_tol=1e-12)
