"""Golden-rule decay rates: thresholds, closed/quadrature paths, MC oracle."""

import math
import os
import subprocess
import sys
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
    RateCurve,
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
from tcphonon.spectrum import _gapless, _gapped_at_rest

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
    scaled = rate_lambda_to_2g(PhysicalParams(2.0, 0.5, 3.0)).rate
    assert math.isclose(scaled, base * 2.0**8 / 3.0**4, rel_tol=1e-9)


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
    base = rate_g_to_2g(_P5, 1.0).rate
    scaled = rate_g_to_2g(PhysicalParams(2.0, 0.5, 3.0), 2.0).rate
    assert math.isclose(scaled, base * 2.0**8 / 3.0**4, rel_tol=1e-8)


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


@pytest.mark.parametrize("cs, k", [(0.1, 1.0), (0.5, 1.0), (0.35, 2.0)])
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


def test_mc_oracle_width_halving_stable(monkeypatch):
    kwargs = dict(seed=1, samples=400_000)
    monkeypatch.setattr(rates, "_MC_WIDTHS", (0.03, 0.015, 0.0075))
    full = mc_rate_oracle(_P5, "lambda-2g", **kwargs)
    monkeypatch.setattr(rates, "_MC_WIDTHS", (0.015, 0.0075, 0.00375))
    half = mc_rate_oracle(_P5, "lambda-2g", **kwargs)
    assert abs(half.rate - full.rate) < 0.005 * full.rate


def test_mc_oracle_matches_g_quadrature():
    quad = rate_g_to_2g(_P5, 1.0)
    mc = mc_rate_oracle(_P5, "g-2g", k=1.0, seed=0, samples=800_000)
    assert abs(mc.rate - quad.rate) < 0.01 * quad.rate


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
    # a rung whose samples all miss the energy shell used to escape the width
    # fit as a math domain error, or as LinAlgError with LAPACK lines printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=rf"width rung \d .*samples={samples}\b"):
            mc_rate_oracle(_P5, process, k=_k(process), seed=3, samples=samples)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize(
    "process, samples", [("lambda-2g", 5), ("lambda-2g", 16), ("g-2g", 64)]
)
def test_mc_oracle_few_effective_samples_fail(process, samples):
    # these returned 0.0 +- 1.8e-8 (403 estimated errors from the quadrature
    # rate), 6.9 and 128 estimated errors off: their rungs had about 1-5
    # effective samples (sum f)^2 / sum f^2, too few to trust a sigma on
    with pytest.raises(RuntimeError, match=rf"width rung \d .* effective samples .*samples={samples}\b"):
        mc_rate_oracle(_P5, process, k=_k(process), seed=3, samples=samples)


def test_mc_oracle_returns_python_floats():
    res = mc_rate_oracle(_P5, "g-2g", k=1.0, samples=20_000)
    assert type(res.rate) is float and type(res.estimated_error) is float


# the oracle at seed 7 and 200 000 samples before it was streamed in blocks:
# the blocks and the advanced angle stream keep every draw
_REF_MC_SEED7 = {
    "lambda-2g": (7.221068500665043e-06, 5.740461103630237e-08),
    "g-2g": (2.1687254394384604e-06, 4.889331283482996e-08),
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
    # blocks of 2^13 samples peak at 1.7-2.4 MB
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
    # the oracle's widths, radii and draws all scale with Lambda, so doubling
    # Lambda, Omega and k multiplies its rate by 2^8 / 2^4 = 16 (the closed
    # forms' scaling) up to roundoff
    kwargs = dict(seed=4, samples=100_000)
    base = mc_rate_oracle(PhysicalParams(lam, cs, omega), process, k=_k(process, k), **kwargs)
    doubled = PhysicalParams(2.0 * lam, cs, 2.0 * omega)
    scaled = mc_rate_oracle(doubled, process, k=_k(process, 2.0 * k), **kwargs)
    assert base.rate > 0.0
    assert math.isclose(scaled.rate, 16.0 * base.rate, rel_tol=1e-12)


@pytest.mark.parametrize("cs", [0.5, 0.9])
@pytest.mark.parametrize("process", ["lambda-2g", "g-2g"])
def test_mc_oracle_shell_cut_is_exact(process, cs, monkeypatch):
    # off the energy shell the Gaussian weight is 0.0, so evaluating the vertex
    # on every sample must give the same bits; at cs = 0.9 the g-2g shell holds
    # about 1-3% of the samples
    p = PhysicalParams(1.0, cs, 1.0)
    kwargs = dict(k=_k(process), seed=7, samples=200_000)
    cut = mc_rate_oracle(p, process, **kwargs)
    monkeypatch.setattr(rates, "_MC_SHELL", math.inf)
    full = mc_rate_oracle(p, process, **kwargs)
    assert (cut.rate, cut.estimated_error) == (full.rate, full.estimated_error)


def test_mc_shell_cut_underflows_the_gaussian():
    assert math.exp(-0.5 * rates._MC_SHELL**2) == 0.0


@pytest.mark.parametrize("samples", [2e4, 20_000.0, True, "20000", None])
def test_mc_oracle_rejects_non_int_samples(samples):
    # 2e4 used to escape as a TypeError, and True to be reported as "got True"
    with pytest.raises(ValueError, match="samples"):
        mc_rate_oracle(_P5, "lambda-2g", samples=samples)


def test_mc_oracle_takes_numpy_int_samples():
    a = mc_rate_oracle(_P5, "lambda-2g", seed=3, samples=20_000)
    b = mc_rate_oracle(_P5, "lambda-2g", seed=3, samples=np.int64(20_000))
    assert (a.rate, a.estimated_error) == (b.rate, b.estimated_error)


def test_decay_result_validation():
    with pytest.raises(ValueError):
        DecayResult(rate=-1.0, kinematically_open=True, estimated_error=0.0)
    with pytest.raises(ValueError):
        DecayResult(rate=1.0, kinematically_open=False, estimated_error=0.0)
    DecayResult(rate=0.0, kinematically_open=False, estimated_error=0.0)


def test_rate_curve_validation():
    with pytest.raises(ValueError):
        RateCurve(parameter="cs", values=(0.1, 0.2), rates=(1.0,))
    with pytest.raises(ValueError):
        RateCurve(parameter="cs", values=(0.2, 0.1), rates=(1.0, 2.0))
    curve = RateCurve(parameter="cs", values=[0.1, 0.2], rates=[1, 2])
    assert curve.values == (0.1, 0.2) and curve.rates == (1.0, 2.0)


def test_scan_lambda_rate_plumbing():
    curve = scan_lambda_rate((0.3, 0.5, 0.9))
    assert curve.parameter == "cs" and len(curve.rates) == 3
    assert curve.fixed == {"Lambda": 1.0, "Omega": 1.0}
    assert all(r >= 0.0 for r in curve.rates)
    assert math.isclose(curve.rates[1], _REF_RATE_LAMBDA_05, rel_tol=1e-10)


def test_scan_rate_storage_unit():
    # curves store Gamma * Omega^4 / Lambda^5; with Gamma itself scaling as
    # Lambda^8 / Omega^4 the stored numbers pick up the residual Lambda^3
    a = scan_lambda_rate((0.3, 0.5, 0.9))
    b = scan_lambda_rate((0.3, 0.5, 0.9), Lambda=2.0, Omega=3.0)
    np.testing.assert_allclose(b.rates, np.asarray(a.rates) * 8.0, rtol=1e-9)


def test_scan_g_rate_plumbing():
    curves = scan_g_rate((0.5, 0.8), (0.5, 1.0, 1.5))
    assert len(curves) == 2
    for cs, curve in zip((0.5, 0.8), curves):
        assert curve.parameter == "k" and len(curve.rates) == 3
        assert curve.fixed["cs"] == cs
        assert all(r >= 0.0 for r in curve.rates)
    assert math.isclose(curves[0].rates[1], _REF_RATE_G_05_K1, rel_tol=1e-8)


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


@pytest.mark.parametrize("name, value", [
    ("Lambda", -1.0), ("Lambda", 0.0), ("Lambda", math.inf),
    ("Omega", 0.0), ("Omega", -1.0), ("Omega", math.nan),
])
@pytest.mark.parametrize("cs_grid", [(), (0.5, 0.7)], ids=["empty", "two"])
def test_scans_check_lambda_and_omega_first(name, value, cs_grid, monkeypatch):
    # on an empty grid Omega = 0 used to raise a raw ZeroDivisionError, and
    # Lambda = -1 to return a curve with fixed={'Lambda': -1.0, ...}
    monkeypatch.setattr(rates, "rate_lambda_to_2g", _no_rate)
    monkeypatch.setattr(rates, "rate_g_to_2g", _no_rate)
    scales = {"Lambda": 1.0, "Omega": 1.0, name: value}
    message = f"{name} must be positive and finite"
    with pytest.raises(ValueError, match=message):
        scan_lambda_rate(cs_grid, **scales)
    # checked before the other inputs, whatever they are
    with pytest.raises(ValueError, match=message):
        scan_g_rate(cs_grid, (1.0, -1.0), **scales, rel_tol=math.nan)


def test_scan_numerical_failure_names_point(monkeypatch):
    def overflow(*args):
        raise OverflowError("math range error")

    monkeypatch.setattr(rates, "rate_lambda_to_2g", overflow)
    monkeypatch.setattr(rates, "rate_g_to_2g", overflow)
    with pytest.raises(RuntimeError, match="lambda-rate scan failed at cs=0.5: math range error"):
        scan_lambda_rate((0.5, 0.7))
    with pytest.raises(RuntimeError, match="g-rate scan failed at cs=0.5, k=1.0: math range error"):
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
