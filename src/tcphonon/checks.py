"""Machine-checkable invariant suite behind the `tcphonon check` command.

Every item measures a residual and compares it against a tolerance; the
tolerances can be scaled globally (tol_scale) to demonstrate the failure
path.  All checks are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eftlimit, rates, spectrum, vertex
from .model import (
    BackgroundOrbit,
    ModelParams,
    PhysicalParams,
    background_orbit,
    params_from_physical,
    physical_from_params,
)

__all__ = ["CheckResult", "run_all"]

_SQ38 = math.sqrt(3.0 / 8.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float


def _param_sets(seed: int) -> list[ModelParams]:
    rng = np.random.default_rng(seed)
    sets = [params_from_physical(PhysicalParams(1.0, 0.5, 1.0))]
    for _ in range(2):
        lam = float(rng.uniform(0.3, 3.0))
        cs = float(rng.uniform(0.15, 0.95))
        sets.append(params_from_physical(PhysicalParams(lam, cs, 1.0)))
    return sets


def _k_grid(lam: float) -> np.ndarray:
    return lam * np.logspace(-3, 3, 50)


def _check_model_roundtrip() -> float:
    worst = 0.0
    for lam in (0.5, 1.0, 7.0):
        for cs in (0.05, 0.3, 0.6123724, 0.9, 1.0):
            p = PhysicalParams(lam, cs, 2.0)
            q = physical_from_params(params_from_physical(p))
            worst = max(worst, abs(q.Lambda - lam) / lam, abs(q.cs - cs), abs(q.Omega - 2.0) / 2.0)
    return worst


def _check_orbit_norm() -> float:
    orbit = BackgroundOrbit(mu=1.7, phi0=(0.6, 0.8))
    worst = 0.0
    for t in (0.0, 1.0, 100.0, 1e4 / 1.7):
        worst = max(worst, abs(float(np.linalg.norm(background_orbit(orbit, t))) - 1.0))
    return worst


def _check_cs_range(seed: int) -> float:
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(20):
        m = ModelParams(s=float(rng.uniform(0.1, 1.0)), beta=float(rng.uniform(0.0, 3.0)),
                        M=float(rng.uniform(0.1, 3.0)))
        p = physical_from_params(m)
        worst = max(worst, p.cs - m.s, -p.cs)
    return max(worst, 0.0)


def _check_vieta(sets) -> float:
    worst = 0.0
    for m in sets:
        lam2 = m.M**2 + m.beta**2
        for k in _k_grid(math.sqrt(lam2)):
            d = spectrum.dispersion(m, float(k))
            xg, xl = d.omega_G**2, d.omega_L**2
            s_sum = lam2 + k * k * (1 + m.s**2)
            s_prod = (m.s * k) ** 2 * (m.M**2 + k * k)
            worst = max(worst, abs(xg + xl - s_sum) / s_sum, abs(xg * xl - s_prod) / s_prod)
    return worst


def _check_dispersion_residual(sets) -> float:
    # relative residual: quartic value over the magnitude of its terms, so the
    # measure stays meaningful at k >> Lambda where x ~ k^2 dwarfs Lambda^2
    worst = 0.0
    for m in sets:
        for k in _k_grid(m.gap):
            u = float(k) ** 2
            b = m.gap**2 + u * (1 + m.s**2)
            c = (m.s * float(k)) ** 2 * (m.M**2 + u)
            d = spectrum.dispersion(m, float(k))
            for w in (d.omega_G, d.omega_L):
                x = w * w
                worst = max(worst, abs(x * x - b * x + c) / (x * x + b * x + c))
    return worst


def _check_monotone(sets) -> float:
    worst = 0.0
    for m in sets:
        grid = _k_grid(m.gap)
        wg = [spectrum.dispersion(m, float(k)).omega_G for k in grid]
        wl = [spectrum.dispersion(m, float(k)).omega_L for k in grid]
        for seq in (wg, wl):
            for a, b in zip(seq, seq[1:]):
                worst = max(worst, (a - b) / m.gap)
    return max(worst, 0.0)


def _check_gap_limit(sets) -> float:
    worst = 0.0
    for m in sets:
        d = spectrum.dispersion(m, 0.0)
        worst = max(worst, abs(d.omega_L - m.gap) / m.gap, d.omega_G)
    return worst


def _check_decoupled() -> float:
    m = ModelParams(s=1.0, beta=0.0, M=1.3)
    worst = 0.0
    for k in (0.1, 1.0, 10.0):
        d = spectrum.dispersion(m, k)
        a = spectrum.amplitudes(m, k)
        worst = max(
            worst,
            abs(a.pi_L), abs(a.sigma_G),
            abs(a.pi_G - 1.0 / math.sqrt(2.0 * d.omega_G)),
            abs(a.sigma_L - 1.0 / math.sqrt(2.0 * d.omega_L)),
        )
    return worst


def _check_sum_rules(sets) -> float:
    worst = 0.0
    for m in sets:
        for k in _k_grid(m.gap):
            d = spectrum.dispersion(m, float(k))
            a = spectrum.amplitudes(m, float(k))
            ws = (d.omega_G, d.omega_L)
            pis = (a.pi_G, a.pi_L)
            sgs = (a.sigma_G, a.sigma_L)
            worst = max(
                worst,
                abs(sum(2 * w * abs(x) ** 2 for w, x in zip(ws, pis)) - 1.0),
                abs(sum(2 * w * abs(x) ** 2 for w, x in zip(ws, sgs)) - 1.0),
                abs(sum((x * y.conjugate()).imag for x, y in zip(pis, sgs))),
                abs(sum(w * (x * y.conjugate()).real for w, x, y in zip(ws, pis, sgs))),
            )
    return worst


def _check_oracle(sets) -> float:
    worst = 0.0
    for m in sets:
        for k in _k_grid(m.gap):
            d, a = spectrum.dispersion(m, float(k)), spectrum.amplitudes(m, float(k))
            do, ao = spectrum.bogoliubov_oracle(m, float(k))
            worst = max(
                worst,
                abs(do.omega_G - d.omega_G) / m.gap,
                abs(do.omega_L - d.omega_L) / m.gap,
                abs(ao.pi_G - a.pi_G), abs(ao.pi_L - a.pi_L),
                abs(ao.sigma_G - a.sigma_G), abs(ao.sigma_L - a.sigma_L),
            )
    return worst


def _at_rest_legs(p: PhysicalParams) -> tuple[vertex.Leg, vertex.Leg, vertex.Leg]:
    kstar = rates.lambda_threshold_momentum(p)
    return (
        vertex.Leg(vertex.BranchLabel.L, (0.0, 0.0, 0.0)),
        vertex.Leg(vertex.BranchLabel.G, (0.0, 0.0, kstar)),
        vertex.Leg(vertex.BranchLabel.G, (0.0, 0.0, -kstar)),
    )


def _check_vertex_symmetry() -> float:
    p = PhysicalParams(1.0, 0.45, 1.0)
    parent, c1, c2 = _at_rest_legs(p)
    m12 = vertex.matrix_element(p, parent, c1, c2)
    m21 = vertex.matrix_element(p, parent, c2, c1)
    return abs(m12 - m21) / abs(m12)


def _check_vertex_rotation(seed: int) -> float:
    p = PhysicalParams(1.0, 0.5, 1.0)
    rng = np.random.default_rng(seed + 2)
    k1 = np.array([0.3, -0.2, 0.7])
    k2 = np.array([-0.1, 0.4, 0.2])
    parent = vertex.Leg(vertex.BranchLabel.G, k1 + k2)
    base = vertex.matrix_element(p, parent, vertex.Leg(vertex.BranchLabel.G, k1),
                                 vertex.Leg(vertex.BranchLabel.G, k2))
    # random rotation via QR of a Gaussian matrix
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    rot = vertex.matrix_element(
        p,
        vertex.Leg(vertex.BranchLabel.G, q @ (k1 + k2)),
        vertex.Leg(vertex.BranchLabel.G, q @ k1),
        vertex.Leg(vertex.BranchLabel.G, q @ k2),
    )
    return abs(base - rot) / abs(base)


def _check_vertex_omega_scaling() -> float:
    p1 = PhysicalParams(1.0, 0.7, 1.0)
    p2 = PhysicalParams(1.0, 0.7, 3.0)
    parent, c1, c2 = _at_rest_legs(p1)
    m1 = vertex.matrix_element(p1, parent, c1, c2)
    m2 = vertex.matrix_element(p2, parent, c1, c2)
    return abs(m2 * 9.0 - m1) / abs(m1)


def _at_rest_interference(cs: float) -> float:
    """Signed amplitude i M = 16 lambda3 w t of the at-rest decay, whose phase
    is -i (vertex.py); its sign flip, the bracket t's, is the rate zero."""
    p = PhysicalParams(1.0, cs, 1.0)
    return (1j * vertex.matrix_element(p, *_at_rest_legs(p))).real


def _check_vertex_cs_zero() -> float:
    lo, hi = 0.5, 0.7
    if not _at_rest_interference(lo) * _at_rest_interference(hi) < 0:
        return 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _at_rest_interference(lo) * _at_rest_interference(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return abs(0.5 * (lo + hi) - _SQ38)


def _check_thresholds() -> float:
    k05 = rates.lambda_threshold_momentum(PhysicalParams(1.0, 0.5, 1.0))
    k06 = rates.lambda_threshold_momentum(PhysicalParams(1.0, 0.6, 1.0))
    return max(
        abs(k05 - math.sqrt((1.0 + math.sqrt(13.0)) / 8.0)),
        abs(k06 - math.sqrt((0.56 + math.sqrt(12.3136)) / 8.0)),
    )


def _check_fig1_shape() -> float:
    grid = np.linspace(0.05, 0.99, 100)
    curve = rates.scan_lambda_rate(grid)
    r = np.array(curve.rates)
    neg = max(0.0, float(-r.min()))
    # endpoint suppression: left endpoint and the exact cs = 1 limit
    left = r[0] / r.max()
    at_one = rates.rate_lambda_to_2g(PhysicalParams(1.0, 1.0, 1.0)).rate
    # exactly one sign flip of the interference bracket inside the window
    signs = [_at_rest_interference(float(c)) > 0 for c in grid]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return max(neg, left - 1e-4, at_one, abs(flips - 1.0) * 1.0)


def _check_fig2_monotone() -> float:
    ks = np.linspace(0.1, 2.0, 16)
    worst = 0.0
    for cs in (0.35, 0.5, 0.65, 0.8, 0.95):
        curve = rates.scan_g_rate([cs], ks)[0]
        r = curve.rates
        top = max(r)
        for a, b in zip(r, r[1:]):
            worst = max(worst, (a - b) / top)
    return max(worst, 0.0)


def _check_small_k() -> float:
    return rates.rate_g_to_2g(PhysicalParams(1.0, 0.5, 1.0), 1e-4).rate


def _check_mc_agreement(seed: int) -> float:
    worst = 0.0
    p = PhysicalParams(1.0, 0.5, 1.0)
    quad_l = rates.rate_lambda_to_2g(p).rate
    mc_l = rates.mc_rate_oracle(p, "lambda-2g", seed=seed, samples=400_000).rate
    worst = max(worst, abs(quad_l - mc_l) / quad_l)
    quad_g = rates.rate_g_to_2g(p, 1.0).rate
    mc_g = rates.mc_rate_oracle(p, "g-2g", k=1.0, seed=seed, samples=800_000).rate
    return max(worst, abs(quad_g - mc_g) / quad_g)


def _check_rate_omega_scaling() -> float:
    r1 = rates.rate_lambda_to_2g(PhysicalParams(1.0, 0.4, 1.0)).rate
    r2 = rates.rate_lambda_to_2g(PhysicalParams(1.0, 0.4, 2.0)).rate
    g1 = rates.rate_g_to_2g(PhysicalParams(1.0, 0.4, 1.0), 1.2).rate
    g2 = rates.rate_g_to_2g(PhysicalParams(1.0, 0.4, 2.0), 1.2).rate
    return max(abs(r2 * 16.0 - r1) / r1, abs(g2 * 16.0 - g1) / g1)


def _check_quad_tolerance() -> float:
    p = PhysicalParams(1.0, 0.6, 1.0)
    a = rates.rate_g_to_2g(p, 1.5)
    b = rates.rate_g_to_2g(p, 1.5, rel_tol=5e-7)
    # must move by less than the reported error bound; report the excess ratio
    return abs(a.rate - b.rate) / a.estimated_error if a.estimated_error > 0 else 0.0


def _check_eft_sound_speed() -> float:
    worst = 0.0
    for cs in (0.3, 0.5, 0.8):
        rep = eftlimit.verify_long_wavelength(PhysicalParams(1.0, cs, 1.0))
        worst = max(worst, rep.cs_residual)
    return worst


def _check_eft_gap_identity() -> float:
    worst = 0.0
    for lam in (0.5, 1.0, 4.0):
        for cs in (0.2, 0.6123724, 0.95, 1.0):
            rep = eftlimit.verify_long_wavelength(PhysicalParams(lam, cs, 1.0))
            worst = max(worst, rep.gap_residual)
    return worst


def _check_alpha2_monotone() -> float:
    grid = np.linspace(-0.49, 10.0, 40)
    cs = [eftlimit.cs_from_alpha2(float(a)) for a in grid]
    worst = max((b - a) for a, b in zip(cs, cs[1:]))
    return max(worst, 0.0)


def _check_k2_scaling() -> float:
    worst = 0.0
    for cs in (0.3, 0.7):
        m = params_from_physical(PhysicalParams(1.0, cs, 1.0))
        res = [spectrum.dispersion(m, k).omega_G / k - cs for k in (1e-2, 1e-3, 1e-4)]
        for a, b in zip(res, res[1:]):
            worst = max(worst, abs(a / b / 100.0 - 1.0))
    return worst


def run_all(tol_scale: float = 1.0, seed: int = 0) -> list[CheckResult]:
    """Run every invariant; returns one CheckResult per item."""
    sets = _param_sets(seed)
    items: list[tuple[str, float, float]] = [
        ("model.roundtrip", _check_model_roundtrip(), 1e-14),
        ("model.orbit-norm", _check_orbit_norm(), 1e-14),
        ("model.cs-range", _check_cs_range(seed), 1e-15),
        ("spectrum.vieta", _check_vieta(sets), 1e-12),
        ("spectrum.quartic-residual", _check_dispersion_residual(sets), 1e-12),
        ("spectrum.monotone", _check_monotone(sets), 1e-15),
        ("spectrum.gap-limit", _check_gap_limit(sets), 1e-14),
        ("spectrum.decoupled", _check_decoupled(), 1e-14),
        ("spectrum.sum-rules", _check_sum_rules(sets), 1e-10),
        ("spectrum.oracle", _check_oracle(sets), 1e-8),
        ("vertex.bose-symmetry", _check_vertex_symmetry(), 1e-15),
        ("vertex.rotation", _check_vertex_rotation(seed), 1e-12),
        ("vertex.omega-scaling", _check_vertex_omega_scaling(), 1e-14),
        ("vertex.cs-zero", _check_vertex_cs_zero(), 5e-3),
        ("rates.thresholds", _check_thresholds(), 1e-10),
        ("rates.fig1-shape", _check_fig1_shape(), 1e-15),
        ("rates.fig2-monotone", _check_fig2_monotone(), 1e-9),
        ("rates.small-k-suppression", _check_small_k(), 1e-12),
        ("rates.mc-agreement", _check_mc_agreement(seed), 1e-2),
        ("rates.omega-scaling", _check_rate_omega_scaling(), 1e-12),
        ("rates.quad-tolerance", _check_quad_tolerance(), 1.0),
        ("eft.sound-speed", _check_eft_sound_speed(), 1e-6),
        ("eft.gap-identity", _check_eft_gap_identity(), 1e-14),
        ("eft.alpha2-monotone", _check_alpha2_monotone(), 1e-15),
        ("eft.k2-scaling", _check_k2_scaling(), 0.05),
    ]
    return [
        CheckResult(name=n, passed=bool(v <= t * tol_scale), measured=float(v), tolerance=t * tol_scale)
        for n, v, t in items
    ]
