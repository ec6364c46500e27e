"""Acceptance gate: every release criterion, one test and one printed line each.

Each test pins a criterion at its stated tolerance:

  1. location of the interference zero of the at-rest decay curve
  2. shape of that curve (non-negative, suppressed limits, single zero)
  3. growth of the gapless decay curve with momentum for five sound speeds
  4. closed-form amplitudes vs the diagonalization oracle (1e-8)
  5. canonical commutator sum rules (1e-10)
  6. dispersion quartic + Vieta identities, relative (1e-12)
  7. quadrature rates vs the Monte-Carlo phase-space oracle (1%)
  8. long-wavelength sound speed (1e-6) and gap identity (1e-14)
  9. threshold momenta against closed-form values (1e-6)
 10. absolute magnitude of the at-rest decay curve peak (soft, factor 3)
"""

import functools
import math
import time

import numpy as np

from tcphonon import (
    BranchLabel,
    Leg,
    PhysicalParams,
    amplitudes,
    bogoliubov_oracle,
    dispersion,
    lambda_threshold_momentum,
    matrix_element,
    mc_rate_oracle,
    params_from_physical,
    rate_g_to_2g,
    rate_lambda_to_2g,
    scan_g_rate,
    scan_lambda_rate,
    verify_long_wavelength,
)

_SQ38 = math.sqrt(3.0 / 8.0)
_FIG2_CS = (0.35, 0.5, 0.65, 0.8, 0.95)

# MC comparison points: rates above 1e-6 Lambda^5/Omega^4, both processes
_MC_LAMBDA_CS = (0.3, 0.45, 0.5, 0.75, 0.9)
_MC_G_POINTS = ((0.35, 1.5), (0.5, 1.0), (0.5, 2.0), (0.65, 1.2), (0.8, 1.6))


@functools.lru_cache(maxsize=1)
def _fig1_curve():
    grid = np.linspace(0.05, 0.99, 200)
    t0 = time.monotonic()
    curve = scan_lambda_rate(grid)
    return grid, np.asarray(curve), time.monotonic() - t0


@functools.lru_cache(maxsize=1)
def _draw_grid():
    """10 random parameter draws x 50 log-spaced k in [1e-3, 1e3] Lambda."""
    rng = np.random.default_rng(2024)
    draws = [
        params_from_physical(
            PhysicalParams(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.1, 0.98)), 1.0)
        )
        for _ in range(10)
    ]
    return [(m, m.gap * np.logspace(-3, 3, 50)) for m in draws]


def test_fig1_zero_location():
    grid, rates, elapsed = _fig1_curve()
    i0 = int(np.argmin(rates))
    assert abs(grid[i0] - _SQ38) < 0.005
    assert elapsed < 60.0
    print(f"PASS zero of the at-rest decay curve: cs = {grid[i0]:.7f} "
          f"(expected {_SQ38:.7f} +/- 0.005), scan {elapsed:.2f} s")


def test_fig1_curve_shape():
    grid, rates, _ = _fig1_curve()
    assert np.all(rates >= 0.0)
    # suppressed limits: quartic smallness at cs -> 0+, exact zero at cs = 1
    assert rates[0] < 1e-4 * rates.max()
    assert rate_lambda_to_2g(PhysicalParams(1.0, 0.005, 1.0)).rate < 1e-6 * rates.max()
    assert rate_lambda_to_2g(PhysicalParams(1.0, 1.0, 1.0)).rate == 0.0
    # exactly one interior zero: the on-shell amplitude changes sign once
    signs = []
    for cs in grid:
        p = PhysicalParams(1.0, float(cs), 1.0)
        kst = lambda_threshold_momentum(p)
        val = matrix_element(
            p,
            Leg(BranchLabel.L, np.zeros(3)),
            Leg(BranchLabel.G, np.array([0.0, 0.0, kst])),
            Leg(BranchLabel.G, np.array([0.0, 0.0, -kst])),
        )
        signs.append(math.copysign(1.0, val.imag))
    flips = sum(a != b for a, b in zip(signs, signs[1:]))
    assert flips == 1
    print("PASS at-rest decay curve shape: non-negative, suppressed endpoints, "
          "single interior zero")


def test_fig2_growth_with_momentum():
    k_grid = np.linspace(0.125, 2.0, 16)
    curves = scan_g_rate(_FIG2_CS, k_grid)
    for cs, curve in zip(_FIG2_CS, curves):
        assert all(r >= 0.0 for r in curve)
        assert all(b >= a - 1e-10 for a, b in zip(curve, curve[1:]))
        # vanishing long-wavelength limit
        assert rate_g_to_2g(PhysicalParams(1.0, cs, 1.0), 1e-4).rate < 1e-12
    print(f"PASS gapless decay curves non-decreasing on (0, 2] for cs in {_FIG2_CS}, "
          "with rate(k=1e-4) < 1e-12")


def test_amplitudes_match_diagonalization_oracle():
    worst = 0.0
    for m, ks in _draw_grid():
        for k in ks:
            a = amplitudes(m, float(k))
            _, ao = bogoliubov_oracle(m, float(k))
            for closed, oracle in (
                (a.pi_G, ao.pi_G),
                (a.pi_L, ao.pi_L),
                (a.sigma_G, ao.sigma_G),
                (a.sigma_L, ao.sigma_L),
            ):
                worst = max(worst, abs(closed - oracle))
    assert worst < 1e-8
    print(f"PASS closed amplitudes vs diagonalization oracle: worst |diff| = {worst:.2e} "
          "(tolerance 1e-8) over 10 draws x 50 k")


def test_commutator_sum_rules():
    worst = 0.0
    for m, ks in _draw_grid():
        for k in ks:
            d = dispersion(m, float(k))
            a = amplitudes(m, float(k))
            ws = (d.omega_G, d.omega_L)
            pis = (a.pi_G, a.pi_L)
            sgs = (a.sigma_G, a.sigma_L)
            worst = max(
                worst,
                abs(sum(2 * w * abs(x) ** 2 for w, x in zip(ws, pis)) - 1.0),
                abs(sum(2 * w * abs(x) ** 2 for w, x in zip(ws, sgs)) - 1.0),
                abs(sum((x * y.conjugate()).imag for x, y in zip(pis, sgs))),
            )
    assert worst < 1e-10
    print(f"PASS commutator sum rules: worst residual = {worst:.2e} (tolerance 1e-10)")


def test_dispersion_identities():
    worst = 0.0
    for m, ks in _draw_grid():
        lam2 = m.gap**2
        for k in ks:
            u = float(k) ** 2
            b = lam2 + u * (1.0 + m.s**2)
            c = (m.s * float(k)) ** 2 * (m.M**2 + u)
            d = dispersion(m, float(k))
            xg, xl = d.omega_G**2, d.omega_L**2
            for x in (xg, xl):
                worst = max(worst, abs(x * x - b * x + c) / (x * x + b * x + c))
            worst = max(worst, abs(xg + xl - b) / b, abs(xg * xl - c) / c)
    assert worst < 1e-12
    print(f"PASS dispersion quartic and Vieta identities: worst relative residual = "
          f"{worst:.2e} (tolerance 1e-12)")


def test_quadrature_matches_mc_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for cs in _MC_LAMBDA_CS:
        p = PhysicalParams(1.0, cs, 1.0)
        quad = rate_lambda_to_2g(p).rate
        assert quad > 1e-6
        mc = mc_rate_oracle(p, "lambda-2g", seed=7, samples=2_000_000).rate
        rel = abs(mc - quad) / quad
        worst = max(worst, rel)
        assert rel < 0.01, f"at-rest rate cs={cs}: MC off by {rel:.2%}"
    for cs, k in _MC_G_POINTS:
        p = PhysicalParams(1.0, cs, 1.0)
        quad = rate_g_to_2g(p, k).rate
        assert quad > 1e-6
        mc = mc_rate_oracle(p, "g-2g", k=k, seed=7, samples=8_000_000).rate
        rel = abs(mc - quad) / quad
        worst = max(worst, rel)
        assert rel < 0.01, f"gapless rate cs={cs}, k={k}: MC off by {rel:.2%}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"PASS quadrature vs Monte-Carlo oracle at 10 points: worst rel diff = "
          f"{worst:.2%} (tolerance 1%), {elapsed:.0f} s")


def test_eft_long_wavelength_limit():
    worst_cs, worst_gap = 0.0, 0.0
    for lam, cs in ((1.0, 0.5), (2.5, 0.3), (0.7, 0.9), (1.0, 1.0)):
        rep = verify_long_wavelength(PhysicalParams(lam, cs, 1.0))
        worst_cs = max(worst_cs, rep.cs_residual)
        worst_gap = max(worst_gap, rep.gap_residual)
    assert worst_cs < 1e-6
    assert worst_gap < 1e-14
    print(f"PASS long-wavelength limit: sound-speed residual {worst_cs:.2e} (tol 1e-6), "
          f"gap identity residual {worst_gap:.2e} (tol 1e-14)")


def test_threshold_momenta():
    k5 = lambda_threshold_momentum(PhysicalParams(1.0, 0.5, 1.0))
    k6 = lambda_threshold_momentum(PhysicalParams(1.0, 0.6, 1.0))
    assert abs(k5 - 0.7587450) < 1e-6
    assert abs(k6 - 0.7131866) < 1e-6
    print(f"PASS threshold momenta: k*(0.5) = {k5:.7f}, k*(0.6) = {k6:.7f} "
          "(both within 1e-6 of closed-form values)")


def test_rate_magnitude_scale():
    # soft criterion: peak of the at-rest curve within a factor 3 of the
    # expected 3.5e-4 in Lambda = Omega units
    _, rates, _ = _fig1_curve()
    peak = float(rates.max())
    ratio = peak / 3.5e-4
    assert 1.0 / 3.0 < ratio < 3.0
    print(f"PASS rate magnitude: curve peak = {peak:.4e} = {ratio:.2f} x 3.5e-4 "
          "(soft factor-3 window)")
