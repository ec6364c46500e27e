"""Tree-level decay rates from the golden rule.

Both one-to-two channels share the normalization

    Gamma = (1/S) (2 pi)^4 / (2 w_p)
            Int d3p1/((2pi)^3 2 w_1) d3p2/((2pi)^3 2 w_2) |M|^2
            delta3(p - p1 - p2) delta(w_p - w_1 - w_2),

with S = 2 for the two identical gapless daughters.

Omega enters only through lambda3 ~ Lambda^3 / Omega^2, so both rates obey
Gamma(Lambda, cs, Omega; k) = Lambda^8 / Omega^4 Gamma(1, cs, 1; k/Lambda).  The
closed forms compute at Lambda = Omega = 1 and kappa = k/Lambda and apply the law
once (_scaled); the Monte-Carlo oracle computes at the caller's scale, so it checks it.

For the at-rest gapped parent the phase space collapses onto the sphere
|q| = k* with 2 w_G(k*) = Lambda, giving the closed evaluation

    Gamma = k*^2 |M(k*)|^2 / (8 pi Lambda^3 w_G'(k*)).

For a moving gapless parent the delta-functions reduce the integral to one
dimension: for each daughter magnitude q1 energy conservation fixes the
second daughter in closed form, q2 = k_G(w_k - w_G(q1)) (spectrum._k_of_omega),
weighted by the Jacobian |d w_2 / d cos|^(-1) = q2 / (k q1 w_G'(q2)), and

    Gamma = (1/S) (1/(4 pi w_k)) Int q1^2 [|M|^2/(4 w_1 w_2)]
            [q2/(k q1 w_G'(q2))] dq1

over the q1-window where the angle cos(theta) = (k^2 + q1^2 - q2^2)/(2 k q1)
lies in [-1, 1].  w_G is convex, so w_G(q1) + w_G(k - q1) <= w_G(k) and the
window is all of (0, k), where |k - q1| <= q2 <= k + q1: the integrand needs
no angle, and no root-finder trims the window (_g2g_window).  Both rates
take w_G' from the gapless amplitudes already evaluated at k* or q2
(spectrum._gapless_slope, the Hellmann-Feynman form) and |M|^2 from the
vertex kernels _bracket and _m2: this module only integrates.

The q1-integral is adaptive: the 21-point Gauss-Kronrod rule of QUADPACK
(Piessens et al., 1983; qk21) on each interval, whose error estimate is
QUADPACK's

    resasc * min(1, (200 |K - G| h / resasc)^1.5),  floored at 50 eps resabs,

from the Kronrod and embedded 10-point Gauss results K, G, the half-length h
and the integrals resabs of |f| and resasc of |f - K/2|; the interval with
the largest estimate is bisected until the estimates sum below the
tolerance.

An independent Monte-Carlo oracle estimates the same rates by sampling the
3-dimensional daughter phase space against a Gaussian-smeared energy delta
and extrapolating the width to zero; it shares only the matrix element with
the quadrature path.  Every width reads one grid of points: the ball of the
widest width's radius, cut into equal-volume radial strata (equal steps of
q1^3) times equal cells of the angle mu = cos(theta) to the parent momentum,
one jittered point per cell.  From |dE|/eps = _MC_SHELL on, the Gaussian
weight exp(-(dE/eps)^2 / 2) of a point's energy mismatch dE underflows to 0.0
in double precision, so such a point adds exactly 0.0 whatever its vertex,
and a narrower width's shell lies inside the widest one's.  The oracle
therefore draws only the cells that can reach the widest shell, found before
any resolvent runs.  A radial stratum r_a <= q1 <= r_b has on the shell of a
parent of energy w_p
w_p - w_G(r_b) - _MC_SHELL eps < w_G(q2) < w_p - w_G(r_a) + _MC_SHELL eps,
and these bounds, widened by one eps for rounding, give a band of
u2 = q2^2 (_shell_band).  As u2 = q1^2 + k^2 - 2 k q1 mu falls in mu, the band
is one run of the stratum's angle cells (_mu_runs).  Both parents take one
grid: the at-rest parent is the moving one at momentum 0, whose daughters
are back to back, so u2 = q1^2, a stratum is one cell, and a band serves a
block of strata.  Drawn points off the shell get the 0.0 weight of their
underflowed Gaussian, whose argument is sent to -inf from |z| = _MC_SHELL on:
the same bits, without exp's slow path through the subnormals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, PhysicalParams, params_from_physical
from .spectrum import (
    _TINY,
    _gapless,
    _gapless_from_roots,
    _gapless_slope,
    _gapped_at_rest,
    _k_of_omega,
    _omega_g,
    _resolvent,
)
from .vertex import _amplitude, _bracket, _m2, cubic_coupling

__all__ = [
    "DecayResult",
    "lambda_threshold_momentum",
    "rate_lambda_to_2g",
    "rate_g_to_2g",
    "mc_rate_oracle",
    "scan_lambda_rate",
    "scan_g_rate",
]

_DEFAULT_REL_TOL = 1e-6
_MC_WIDTHS = (0.03, 0.015, 0.0075)  # Gaussian widths as fractions of the parent energy
_EPS = sys.float_info.epsilon
_SQRT_EPS = math.sqrt(_EPS)  # smallest sigma ratio the width fit can weigh
_MC_MIN_EFFECTIVE = 10.0  # fewest effective samples (sum f)^2 / sum f^2 a rung's sigma is trusted on
_MC_REPLICATES = 8  # independent randomizations of the oracle's grid (mc_rate_oracle)
_MC_BLOCK = 1 << 13  # points per oracle batch over all replicates: a ~1.5 MB traced peak per call
_MC_SHELL = math.sqrt(2.0 * 748.0)  # |dE|/eps from which exp(-(dE/eps)^2 / 2) is 0.0 in double

# QUADPACK qk21 on [-1, 1]: the 21 Kronrod abscissae in increasing order with
# their weights, and the weights of the embedded 10-point Gauss rule, whose
# nodes are every second Kronrod node counted from either end (_GK21_GAUSS).
_GK21_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_GK21_X = np.concatenate([-_GK21_X, [0.0], _GK21_X[::-1]])
_GK21_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_GK21_WK = np.concatenate([_GK21_WK, [0.149445554002916905664936468389821], _GK21_WK[::-1]])
_GK21_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK21_WG = np.concatenate([_GK21_WG, _GK21_WG[::-1]])
_GK21_GAUSS = np.arange(1, 21, 2)


@dataclass(frozen=True)
class DecayResult:
    """A single decay rate in mass units, with an absolute error estimate."""

    rate: float
    kinematically_open: bool
    estimated_error: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"rate must be non-negative, got {self.rate}")
        if not self.kinematically_open and self.rate != 0.0:
            raise ValueError("closed channel must carry zero rate")


def _check_increasing(parameter: str, values: tuple[float, ...]) -> None:
    """Reject a scan grid that is not strictly increasing, naming its parameter."""
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{parameter} grid must be strictly increasing, got {values}")


def _check_momentum(k: float, Lambda: float = 1.0) -> float:
    """kappa = k / Lambda; a ValueError unless k and kappa are positive and finite."""
    if 0.0 < k < math.inf and 0.0 < float(k) / Lambda < math.inf:
        return float(k) / Lambda
    raise ValueError(f"parent momentum k must be positive and finite, got {k} at Lambda={Lambda}")


def _scaled(value: float, Lambda: float, Omega: float, inverse: bool = False) -> float:
    """value at Lambda = Omega = 1 times Lambda^8 / Omega^4 (divided when inverse), as two
    factors Lambda^4 / Omega^2: no Lambda^8 (0.0 or inf past Lambda ~ 1e-41 or 1e39) is
    formed.  A result past the float range, or a factor Lambda^4 / Omega^2 that
    leaves it (Lambda^4 overflows from Lambda ~ 1e77, Omega^2 underflows to 0.0
    from Omega ~ 1e-162), raises an OverflowError naming the value, Lambda and
    Omega."""
    try:
        half = Lambda**4 / Omega**2
        scaled = value / half / half if inverse else value * half * half
    except (OverflowError, ZeroDivisionError):  # Lambda**4 overflows or a divisor underflows to 0
        raise OverflowError(f"rate {value!r} cannot be scaled to Lambda={Lambda}, Omega={Omega}: "
                            f"Lambda^4 / Omega^2 leaves the double range") from None
    if math.isinf(scaled):
        raise OverflowError(f"rate {value!r} overflows scaled to Lambda={Lambda}, Omega={Omega}")
    return scaled


def lambda_threshold_momentum(p: PhysicalParams) -> float:
    """Root k* of 2 w_G(k*) = Lambda: daughter momentum of the at-rest decay.

    Unique because w_G is strictly increasing and unbounded; closed form
    k* = Lambda k_G(1/2) at Lambda = 1, where it is checked to
    |2 w_G(k*) - 1| <= 1e-12, so no power of Lambda leaves the double range.
    """
    m = params_from_physical(PhysicalParams(1.0, p.cs))
    kstar = _k_of_omega(m, 0.5)
    if not abs(2.0 * _omega_g(m, kstar) - 1.0) <= 1e-12:  # a NaN misses too
        raise RuntimeError(f"threshold momentum misses 2 w_G(k*) = Lambda at cs={p.cs}")
    return p.Lambda * kstar


def rate_lambda_to_2g(p: PhysicalParams) -> DecayResult:
    """Decay rate of an at-rest gapped mode into two gapless modes.

    Closed golden-rule evaluation on the threshold sphere; zero at c_s = 1
    (vanishing coupling) and at the destructive-interference point
    c_s = sqrt(3/8).
    """
    if p.cs >= 1.0:
        return DecayResult(rate=0.0, kinematically_open=True, estimated_error=0.0)
    p1 = PhysicalParams(1.0, p.cs)
    m = params_from_physical(p1)
    kstar = lambda_threshold_momentum(p1)
    w_g, pi_g, sg_g = _gapless(m, kstar)
    t = _bracket(*_gapped_at_rest(m, 1.0), pi_g, sg_g, pi_g, sg_g)  # back-to-back daughters
    amp = _amplitude(cubic_coupling(p1), w_g * w_g, t)
    slope = _gapless_slope(m, kstar, pi_g, sg_g)
    rate = _scaled(kstar * kstar * (amp * amp) / (8.0 * math.pi * slope), p.Lambda, p.Omega)
    return DecayResult(rate=rate, kinematically_open=True, estimated_error=rate * 1e-11)


def _cos_root(m: ModelParams, wk: float, k: float, q1: float) -> tuple[float, float] | None:
    """Solve w_k - w_G(q1) - w_G(q2(cos)) = 0 for cos in [-1, 1].

    Returns (cos, q2) at the root, or None when no sign change exists.  The
    energy deficit increases monotonically in cos, so plain bisection applies.
    The test reads w_G(q2) = sqrt(x_G) from the resolvent at q2^2 itself,
    without taking q2's square root only to square it again.
    """
    # formed once for the bisection's ~46 evaluations of f
    sumsq, twokq, deficit = k * k + q1 * q1, 2.0 * k * q1, wk - _omega_g(m, q1)

    def f(c: float) -> float:
        q2sq = sumsq - twokq * c
        return deficit - math.sqrt(_resolvent(m, q2sq if q2sq > 0.0 else 0.0)[0])

    lo, hi = -1.0, 1.0
    if not (f(lo) <= 0.0 <= f(hi)):
        return None
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    c = 0.5 * (lo + hi)
    q2sq = sumsq - twokq * c
    return c, math.sqrt(q2sq) if q2sq > 0.0 else 0.0


def _g2g_window(m: ModelParams, wk: float, k: float, Lambda: float) -> tuple[float, float]:
    """Daughter-magnitude interval (1e-9 k, k - 1e-9 k) of the q1 integral,
    at Lambda = 1 and k = kappa.

    w_G is convex, so w_G(q) + w_G(k - q) <= w_G(k) and every q1 in (0, k)
    has an angle that conserves energy: the window is all of the grid.  A
    grid flag reads False where rounding flips _cos_root's sign test; that
    trims nothing.  No flag is set from kappa ~ 1.2e77 on, where w_G(kappa)
    overflows (its root x_G holds kappa^4), nor below kappa ~ 1.5e-145, where
    the lower end squared is not a normal double (spectrum._checked_roots'
    rule) and the kernels would divide by 0; a RuntimeError names the
    caller's k and Lambda.
    """
    eps = 1e-9 * k
    grid = np.linspace(eps, k - eps, 257)
    normal = eps * eps >= _TINY
    flags = [normal and _cos_root(m, wk, k, float(q)) is not None for q in grid]
    if not any(flags):
        raise RuntimeError(f"G -> 2G kinematics leave the double range at "
                           f"k={k * Lambda:g}, Lambda={Lambda:g}")
    return float(grid[0]), float(grid[-1])


def _gk21(f, a: float, b: float) -> tuple[float, float]:
    """QUADPACK qk21 on [a, b]: (Kronrod estimate, error estimate).

    f is called once per node with a Python float.  The error is
    resasc * min(1, (200 |K - G| h / resasc)^1.5), floored at 50 eps resabs
    (module docstring).
    """
    centr, half = 0.5 * (a + b), 0.5 * (b - a)
    fv = np.array([f(float(x)) for x in centr + half * _GK21_X])
    resk = float(_GK21_WK @ fv)
    resg = float(_GK21_WG @ fv[_GK21_GAUSS])
    resabs = float(_GK21_WK @ np.abs(fv)) * abs(half)
    resasc = float(_GK21_WK @ np.abs(fv - 0.5 * resk)) * abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, max(50.0 * _EPS * resabs, err)


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int) -> tuple[float, float]:
    """Adaptive qk21 integral of f over [a, b] -> (value, absolute error estimate).

    Bisects the interval with the largest error estimate until the estimates
    sum to at most max(epsabs, epsrel |value|) or limit intervals are in use;
    at the limit it returns the estimate and its (too large) error, without a
    warning.  The result sum runs over the intervals in the order QUADPACK
    stores them: a bisected interval's slot keeps the half with the larger
    error, the other half is appended.
    """
    value, err = _gk21(f, a, b)
    intervals = [(a, b, value, err)]
    total, errsum = value, err
    while errsum > max(epsabs, epsrel * abs(total)) and len(intervals) < limit:
        i = max(range(len(intervals)), key=lambda j: intervals[j][3])
        lo, hi, value, err = intervals[i]
        mid = 0.5 * (lo + hi)
        left, right = (lo, mid, *_gk21(f, lo, mid)), (mid, hi, *_gk21(f, mid, hi))
        total = total + (left[2] + right[2]) - value
        errsum = errsum + (left[3] + right[3]) - err
        if right[3] > left[3]:
            left, right = right, left
        intervals[i] = left
        intervals.append(right)
    total = 0.0
    for interval in intervals:
        total += interval[2]
    return total, errsum


def _check_tolerances(rel_tol: float, abs_tol: float | None) -> None:
    """Reject a NaN, infinite or negative tolerance; zero asks for a purely
    absolute or purely relative one and is kept."""
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if tol is not None and not 0.0 <= tol < math.inf:
            raise ValueError(f"{name} must be non-negative and finite, got {tol}")


def rate_g_to_2g(
    p: PhysicalParams,
    k: float,
    rel_tol: float = _DEFAULT_REL_TOL,
    abs_tol: float | None = None,
) -> DecayResult:
    """Decay rate of a gapless mode of momentum k into two gapless modes.

    One-dimensional golden-rule reduction (module docstring): at each node q1
    the second daughter's momentum is q2 = k_G(w_k - w_G(q1)) in closed form.
    The kinematic window is (1e-9 k, k - 1e-9 k) (_g2g_window), and the
    quadrature is split at its midpoint to keep the integrable edge behavior
    away from the adaptive core.  The channel is open at every cs < 1 and
    closed only at cs = 1; from k/Lambda ~ 1.2e77 on, where w_G overflows,
    a RuntimeError names k and Lambda.  The absolute tolerance abs_tol
    defaults to 1e-10 Lambda^8 / Omega^4.
    """
    k = _check_momentum(k, p.Lambda)  # kappa = k / Lambda from here on
    _check_tolerances(rel_tol, abs_tol)
    if p.cs >= 1.0:
        # exactly linear dispersion: only the measure-zero collinear
        # configuration conserves energy, and the coupling vanishes
        return DecayResult(rate=0.0, kinematically_open=False, estimated_error=0.0)
    tol = 1e-10 if abs_tol is None else _scaled(abs_tol, p.Lambda, p.Omega, inverse=True)
    p1 = PhysicalParams(1.0, p.cs)
    m = params_from_physical(p1)
    wk, pi_k, sg_k = _gapless(m, k)
    lam3 = cubic_coupling(p1)

    lo, hi = _g2g_window(m, wk, k, p.Lambda)

    def integrand(q1: float) -> float:
        w1, pi_1, sg_1 = _gapless(m, q1)
        q2 = _k_of_omega(m, wk - w1)
        if q2 <= 0.0:
            return 0.0
        w2, pi_2, sg_2 = _gapless(m, q2)
        t = _bracket(pi_k, sg_k, pi_1, sg_1, pi_2, sg_2)
        amp = _amplitude(lam3, wk * w1 * w2, t)
        jac = q2 / (k * q1 * _gapless_slope(m, q2, pi_2, sg_2))
        return q1 * q1 * (amp * amp / (4.0 * w1 * w2)) * jac

    norm = 8.0 * math.pi * wk  # Gamma = integral / norm, S = 2 included
    mid = 0.5 * (lo + hi)
    # limit only stops a half whose tolerance is below the integrand's rounding (one that
    # can converge does so within 14 intervals); 50 or 200 there give the same accuracy
    val1, err1 = quad(integrand, lo, mid, epsabs=0.5 * tol * norm, epsrel=rel_tol, limit=200)
    val2, err2 = quad(integrand, mid, hi, epsabs=0.5 * tol * norm, epsrel=rel_tol, limit=200)
    rate, err = max((val1 + val2) / norm, 0.0), (err1 + err2) / norm
    return DecayResult(_scaled(rate, p.Lambda, p.Omega), True, _scaled(err, p.Lambda, p.Omega))


def _extrapolate_widths(vals: list[float], sigs: list[float], effective: list[float],
                        samples: int) -> tuple[float, float, float]:
    """Weighted least-squares fit vals ~ a0 + a2 x, x = width^2 -> (a0, sigma_a0, drift).

    x runs over the squared fractions _MC_WIDTHS (rungs 0, 1, 2, largest
    first); vals and sigs count in units of the largest sigma, so the fit is
    free of the scale of the rate and of the energy.  With W = 1/sig^2 and the
    W-means xm, dm of x and of d = v - v2, the normal equations give

        a2 = sum W (x - xm) d / Sxx,   Sxx = sum W (x - xm)^2,
        a0 = v2 + dm - a2 xm,          sigma_a0^2 = 1 / sum W + xm^2 / Sxx.

    drift = |a0 - a0_small|, with a0_small = v2 + x2 d1 / (x2 - x1) the line
    through rungs 1 and 2, measures how far the ladder is from the width^2
    regime; as a difference of offsets from v2 it holds no rounding of a0.  A
    rung with too few samples on the energy shell raises a RuntimeError naming
    it and samples: its effective sample count (sum f)^2 / sum f^2 is below
    _MC_MIN_EFFECTIVE (a sigma from a handful of samples understates the
    error), or its sigma is zero or below sqrt(machine epsilon) of the largest
    (its weight would make the fit singular).
    """
    unit = max(sigs)
    for i, (width, n_eff, sig) in enumerate(zip(_MC_WIDTHS, effective, sigs)):
        if n_eff < _MC_MIN_EFFECTIVE or not sig > _SQRT_EPS * unit:
            raise RuntimeError(f"width rung {i} (width fraction {width:.3g}) has {n_eff:.3g} effective "
                               f"samples and sigma {sig:.3g} against {unit:.3g}: too few of its "
                               f"samples={samples} reach the energy shell")
    xs = [w * w for w in _MC_WIDTHS]
    ws = [(unit / s) ** 2 for s in sigs]
    ds = [(v - vals[-1]) / unit for v in vals]
    total = sum(ws)
    xm, dm = (sum(w * y for w, y in zip(ws, ys)) / total for ys in (xs, ds))
    sxx = sum(w * (x - xm) ** 2 for w, x in zip(ws, xs))
    a2 = sum(w * (x - xm) * d for w, x, d in zip(ws, xs, ds)) / sxx
    offset = dm - a2 * xm  # a0 - v2
    drift = offset - xs[2] * ds[1] / (xs[2] - xs[1])  # a0 - a0_small
    return vals[-1] + offset * unit, math.sqrt(1.0 / total + xm * xm / sxx) * unit, abs(drift) * unit


def _shell_band(m: ModelParams, w_lo: np.ndarray, w_hi: np.ndarray, u_max: np.ndarray):
    """Bands [u_lo, u_hi] of u = q^2 in [0, u_max] outside which w_G(q) is not in
    (w_lo, w_hi), elementwise.

    Both edges bisect x_G(u) = w^2 on the resolvent alone and keep the outer
    end of the bracket: x_G(u_lo) < w_lo^2 or u_lo = 0, and x_G(u_hi) >= w_hi^2
    or u_hi = u_max.  Only the rounding of x_G can put a u of the interval
    outside its band, which the caller's margin covers.
    """
    x = np.square(np.maximum(np.concatenate([w_lo, w_hi]), 0.0))
    lo, hi = np.zeros_like(x), np.concatenate([u_max, u_max])
    for _ in range(60):  # to 2^-60 u_max: far inside the margin
        mid = 0.5 * (lo + hi)
        below = _resolvent(m, mid)[0] < x
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo[: len(w_lo)], hi[len(w_lo):]


def _mu_runs(k: float, r_a: np.ndarray, r_b: np.ndarray, u_lo: np.ndarray, u_hi: np.ndarray,
             n_mu: int) -> tuple[np.ndarray, np.ndarray]:
    """The angle cells [i0, i1) of radial strata r_a <= r <= r_b that can put
    u2 = r^2 + k^2 - 2 k r mu in [u_lo, u_hi], on n_mu equal cells of mu in [-1, 1).

    u2 falls in mu, so at each r the band holds mu from g(r, u_hi) to g(r, u_lo),
    g(r, c) = (r^2 + k^2 - c) / (2 k r).  In r, g is increasing where k^2 <= c and
    convex where k^2 > c: over the stratum g(., u_lo) is largest at an end, and
    g(., u_hi) smallest at sqrt(k^2 - u_hi) clipped to [r_a, r_b].  At r = 0 a
    0/0 counts as the whole of [-1, 1).
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # the first stratum starts at r = 0
        def g(r, c):
            return (r * r + k * k - c) / (2.0 * k * r)

        lo = g(np.clip(np.sqrt(np.maximum(k * k - u_hi, 0.0)), r_a, r_b), u_hi)
        hi = np.maximum(g(r_a, u_lo), g(r_b, u_lo))
    lo = np.where(np.isnan(lo), -np.inf, lo)
    hi = np.where(np.isnan(hi), np.inf, hi)
    i0 = np.clip(np.floor(0.5 * (lo + 1.0) * n_mu), 0, n_mu).astype(np.int64)
    i1 = np.clip(np.floor(0.5 * (hi + 1.0) * n_mu) + 1.0, 0, n_mu).astype(np.int64)
    return i0, i1


def _kept_cells(m: ModelParams, k: float, w_parent: float, pad: float, radius: float,
                n_r: int, n_mu: int):
    """Yield in increasing order the ranges [c0, c1) of grid cells c = j n_mu + i
    (radial stratum j, angle cell i) that can reach |dE| < pad, one chunk of
    radial strata at a time (module docstring).

    A moving parent's stratum keeps the run of its angle cells that _mu_runs
    finds in the stratum's band.  At rest a stratum is one cell and u2 = r^2,
    so _MC_BLOCK strata share one band and are drawn whole or not at all.
    """
    per_band = 1 if k else _MC_BLOCK
    span = per_band * _MC_BLOCK
    for first in range(0, n_r, span):
        last = min(first + span, n_r)
        j = np.append(np.arange(first, last, per_band), last)
        r = radius * np.cbrt(j / n_r)
        w = np.sqrt(_resolvent(m, r * r)[0])
        u_lo, u_hi = _shell_band(m, w_parent - w[1:] - pad, w_parent - w[:-1] + pad,
                                 2.0 * (k + r[1:]) ** 2)
        if k:
            i0, i1 = _mu_runs(k, r[:-1], r[1:], u_lo, u_hi, n_mu)
            c0, c1 = j[:-1] * n_mu + i0, j[:-1] * n_mu + i1
        else:
            reach = (u_lo <= r[1:] * r[1:]) & (u_hi >= r[:-1] * r[:-1])
            c0, c1 = j[:-1], np.where(reach, j[1:], j[:-1])
        keep = c1 > c0
        yield from zip(c0[keep].tolist(), c1[keep].tolist())


def _batches(ranges, size: int):
    """Cut increasing cell ranges [c0, c1) into lists of ranges of at most size
    cells in all; ranges that touch are joined into one."""
    batch, room = [], size
    for a, b in ranges:
        while a < b:
            stop = a + min(b - a, room)
            if batch and batch[-1][1] == a:
                batch[-1] = (batch[-1][0], stop)
            else:
                batch.append((a, stop))
            room -= stop - a
            a = stop
            if not room:
                yield batch
                batch, room = [], size
    if batch:
        yield batch


def _jitters(rngs, batch, dims: int, read: int) -> np.ndarray:
    """The jitters of a batch's cells in every replicate, (R, cells, dims): cell c
    reads draws dims c to dims c + dims - 1 of its replicate's stream, which
    has given read draws so far.  Skipped cells are stepped over with
    bit_generator.advance, so no cell's draws depend on which others are kept."""
    x = np.empty((len(rngs), dims * sum(b - a for a, b in batch)))
    for rng, row in zip(rngs, x):
        at, pos = 0, read
        for a, b in batch:
            if dims * a > pos:
                rng.bit_generator.advance(dims * a - pos)
            rng.random(out=row[at: at + dims * (b - a)])
            at, pos = at + dims * (b - a), dims * b
    return x.reshape(len(rngs), -1, dims)


def _cell_weights(m: ModelParams, lam3: float, k: float, parent, w_parent: float, epss,
                  radius: float, n_r: int, n_mu: int, cells: np.ndarray, x: np.ndarray):
    """Each rung's weights f exp(-z^2/2) / (eps sqrt(2 pi)) at the points of the
    cells (L,) with jitters x (R, L, dims), as (rungs, R, L), and each rung's
    count of nonzero Gaussians."""
    j, i = np.divmod(cells, n_mu)
    r = radius * np.cbrt((j + x[..., 0]) / n_r)  # equal-volume strata in r^3
    u1 = r * r
    u2 = u1 + k * k  # k^2 + r^2 - 2 k r mu, mu on n_mu equal cells of [-1, 1)
    if k:  # at rest q2 = -q1 needs no angle
        u2 -= 2.0 * k * r * ((i + x[..., 1]) * (2.0 / n_mu) - 1.0)
    np.maximum(u2, 1e-300, out=u2)
    w1, p1, s1 = _gapless_from_roots(m, u1, *_resolvent(m, u1))
    # at rest u2 = u1: the second daughter is the first
    w2, p2, s2 = _gapless_from_roots(m, u2, *_resolvent(m, u2)) if k else (w1, p1, s1)
    z0 = np.square((w_parent - w1 - w2) / epss[0])  # z^2 on the widest rung, z = dE/eps
    f = _m2(lam3, w_parent * w1 * w2, _bracket(*parent, p1, s1, p2, s2)) / (4.0 * w1 * w2)
    weights, shell = np.empty((len(epss),) + f.shape), []
    for out, eps in zip(weights, epss):
        z2 = np.multiply(z0, -0.5 * (epss[0] / eps) ** 2, out=out)  # -z^2/2
        # exp is 0.0 from |z| = _MC_SHELL on: -inf gives those bits without its slow
        # path through the subnormals
        z2[z2 <= -0.5 * _MC_SHELL**2] = -np.inf
        gauss = np.exp(z2, out=out)
        shell.append(np.count_nonzero(gauss))
        gauss *= f
        gauss *= 1.0 / (eps * math.sqrt(2.0 * math.pi))
    return weights, shell


def mc_rate_oracle(
    p: PhysicalParams,
    process: str,
    k: float | None = None,
    seed: int = 0,
    samples: int = 2_000_000,
) -> DecayResult:
    """Monte-Carlo phase-space estimate of a decay rate.

    process is "lambda-2g" (at-rest gapped parent) or "g-2g" (gapless parent
    of momentum k).  One sampler serves both: the at-rest parent is the
    moving one at k = 0, where q2 = -q1 needs no angle and the second
    daughter's resolvent is the first's.  The energy delta is smeared to a
    Gaussian of width eps = width * scale for each rung of the ladder
    _MC_WIDTHS, and the ladder is extrapolated to zero width by a weighted fit
    linear in eps^2.  The scale is the parent energy w_p, capped by the
    collinearity margin w_p - 2 w_G(k/2), which is w_p at rest: near-linear
    dispersion pushes the energy-conservation shell against the cos(theta) = 1
    boundary, and a width wider than the margin would clip it (an O(eps)
    boundary error that breaks the eps^2 ladder).  Deterministic for fixed
    seed.  A ladder whose extrapolation drifts by more than max(2%, 4 sigma)
    when the largest width is dropped raises rather than returning silently,
    and so does a rung with too few effective samples on the energy shell
    (_extrapolate_widths).

    All rungs read one grid over the ball of the widest rung's radius: n_r
    equal-volume radial strata (equal steps of r^3) times n_mu equal cells of
    mu = cos(theta) in [-1, 1), with n_mu = isqrt(n) and n_r = n // n_mu for
    n = samples // _MC_REPLICATES cells (at least one); at rest n_mu = 1.  Each
    of the _MC_REPLICATES replicates puts one jittered point in every cell,
    from its own stream rng([seed, t]).  The resolvents, amplitudes, bracket
    and |M|^2 run once per point, and each rung applies only its own
    Gaussian.  A rung's value is the mean of its replicates' estimates.  For a
    moving parent its sigma is their spread, the randomized quasi-Monte-Carlo
    error (Owen, Monte Carlo theory, methods and examples, 2013; L'Ecuyer &
    Lemieux, 2002), taken cell by cell: the cells' jitters are independent,
    so the variance of the mean is the sum over cells of each cell's variance
    over the replicates, which drops the replicates' zero-mean cross terms.
    At rest the integrand is radial, the estimate quasi-exact and that spread
    about 3e-5 of the rate at 1e5 samples: an error bar that small is not
    reproducible, since rounding the three rung values to doubles alone moves
    the width fit's drift by up to about 1e-11 of itself when Lambda is rescaled.
    The at-rest sigma is the i.i.d. one, volume std(f) / sqrt(points), a
    bound that stratification never exceeds (about 0.8% of the rate at 4e5
    samples, against deviations below 2e-5).

    Cells that cannot reach the widest rung's shell |dE|/eps < _MC_SHELL are
    never drawn (module docstring): every weight of theirs would be 0.0, so
    the estimate is that of drawing every cell up to the grouping of its
    sums.  At cs = 0.5, k = 1, 43% of the g-2g cells are drawn, and 96% of
    those carry a nonzero weight on the widest rung; at cs = 0.9, 3%.  A
    drawn cell reads its jitters at a fixed position of its replicate's
    stream (_jitters), so skipping a cell never changes another cell's
    draws.  A rung whose squared sample weights leave the double range raises
    a RuntimeError naming Lambda; they scale as Lambda^12, and at cs = 0.5
    overflow from Lambda = 1e26 on and underflow from 1e-26 down.

    The grid streams: the kept cells are formed chunk by chunk of radial
    strata (_kept_cells) and drawn in batches of _MC_BLOCK points over all
    replicates, so memory does not depend on samples, and no array of
    samples or of all kept cells is formed.  A call's traced peak at cs = 0.5
    is about 1.05 MB for lambda-2g and 1.4-1.5 MB for g-2g from 2e5 to 8e6
    samples (BENCH_mc_oracle.json).

    samples must be an int of at least 2, seed a non-negative int, and the
    g-2g momentum k positive and finite; the lambda-2g parent is at rest and
    takes no k.
    """
    if process not in ("lambda-2g", "g-2g"):
        raise ValueError(f"unknown process {process!r}; expected 'lambda-2g' or 'g-2g'")
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool) or samples < 2:
        raise ValueError(f"samples must be an int of at least 2, got {samples!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    samples, seed = int(samples), int(seed)  # advance() overflows on a numpy int
    if process == "g-2g" and (k is None or not 0.0 < k < math.inf):
        raise ValueError(f"process 'g-2g' needs a positive finite parent momentum k, got {k}")
    if process == "lambda-2g" and k is not None:
        raise ValueError(f"process 'lambda-2g' decays at rest and takes no parent momentum k, got {k}")
    if p.cs >= 1.0:
        open_ = process == "lambda-2g"
        return DecayResult(rate=0.0, kinematically_open=open_, estimated_error=0.0)
    m = params_from_physical(p)
    lam3 = cubic_coupling(p)
    lam = p.Lambda

    if process == "lambda-2g":  # the g-2g sampler at k = 0: back-to-back daughters
        k, centre = 0.0, lambda_threshold_momentum(p)
        w_parent, parent = lam, _gapped_at_rest(m, lam)
    else:
        centre = k
        w_parent, *parent = _gapless(m, k)
    margin = w_parent - 2.0 * _omega_g(m, 0.5 * k)
    # the widest rung is then 0.24 margins wide; 16 margins (0.48) moved no rate beyond the
    # oracle's noise, 64 (1.9) clipped the shell and biased cs = 0.9, k = 1 by -6.5%
    eps_scale = min(w_parent, 8.0 * margin) if margin > 0.0 else w_parent
    epss = [frac * eps_scale for frac in _MC_WIDTHS]
    radius = centre + 6.0 * epss[0] / p.cs  # the widest rung's: it holds every rung's shell

    n_cells = max(samples // _MC_REPLICATES, 1)
    n_mu = math.isqrt(n_cells) if k else 1
    n_r = n_cells // n_mu
    rngs = [np.random.default_rng([seed, t]) for t in range(_MC_REPLICATES)]
    dims = 2 if k else 1  # jitters per cell
    pad = (_MC_SHELL + 1.0) * epss[0]  # the widest shell, and one width for the rounding of dE
    ranges = _kept_cells(m, k, w_parent, pad, radius, n_r, n_mu)
    rungs = len(epss)
    # per rung, the sums over all points of the weights, of their squares, and of each
    # cell's squared deviations from its mean over the replicates
    total, sum_sq, cell_sq = np.zeros(rungs), np.zeros(rungs), np.zeros(rungs)
    shell = np.zeros(rungs, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the sums below
        read = 0  # draws taken from every replicate's stream so far
        for batch in _batches(ranges, max(_MC_BLOCK // _MC_REPLICATES, 1)):
            cells = np.concatenate([np.arange(a, b) for a, b in batch])
            weights, on_shell = _cell_weights(m, lam3, k, parent, w_parent, epss, radius, n_r,
                                              n_mu, cells, _jitters(rngs, batch, dims, read))
            read = dims * batch[-1][1]
            flat = weights.reshape(rungs, -1)
            total += flat.sum(axis=1)
            sum_sq += np.einsum("ij,ij->i", flat, flat)
            if k:
                for i, w in enumerate(weights):
                    dev = w - w.mean(axis=0)
                    cell_sq[i] += np.einsum("ij,ij->", dev, dev)
            shell += on_shell
    volume = 4.0 / 3.0 * math.pi * radius**3
    n = _MC_REPLICATES * n_r * n_mu  # points, drawn or skipped
    vals, sigs, effective = [], [], []
    for i in range(rungs):
        sq, mean = float(sum_sq[i]), float(total[i]) / n
        overflow = not math.isfinite(sq)
        if overflow or shell[i] and sq < _TINY:
            raise RuntimeError(
                f"width rung {i}: the |M|^2 moments of its {shell[i]} samples on the energy shell "
                f"{'overflowed' if overflow else 'underflowed'} double precision at Lambda={lam}"
            )
        # var / n is the variance of the mean weight
        if k:  # the replicates' spread, cell by cell: cells are independent
            var = float(cell_sq[i]) * _MC_REPLICATES / (_MC_REPLICATES - 1) / n
        else:  # at rest the i.i.d. bound (docstring)
            var = max(sq - float(total[i]) * mean, 0.0) / (n - 1)
        vals.append(volume * mean)
        sigs.append(volume * math.sqrt(var / n))
        effective.append((float(total[i]) / math.sqrt(sq)) ** 2 if sq > 0.0 else 0.0)

    a0, sig0, drift = _extrapolate_widths(vals, sigs, effective, samples)
    scale = 1.0 / (2.0 * 2.0 * w_parent * (2.0 * math.pi) ** 2)  # 1/S = 1/2 included
    rate = a0 * scale
    err = math.hypot(sig0, 0.5 * drift) * scale
    floor = _scaled(1e-8, p.Lambda, p.Omega)  # a rate this small is not held to the drift bound
    if abs(rate) > floor and drift * scale > max(0.02 * abs(rate), 4.0 * sig0 * scale):
        raise RuntimeError(
            f"width extrapolation not converged: rate={rate:.6e}, drift={drift * scale:.2e}"
        )
    return DecayResult(rate=max(rate, 0.0), kinematically_open=True, estimated_error=err)


def stored_rate(cs: float, Lambda: float, k: float | None = None,
                rel_tol: float = _DEFAULT_REL_TOL) -> DecayResult:
    """Gamma_{L->2G} (k None) or Gamma_{G->2G} at k as the scans and the command line
    store it, Gamma Omega^4 / Lambda^5 = Lambda^3 Gamma(1, cs, 1; k/Lambda): free of
    Omega, and never passing through Gamma itself (0.0 below Lambda ~ 1e-41)."""
    p, unit = PhysicalParams(1.0, cs), Lambda**3
    res = rate_lambda_to_2g(p) if k is None else rate_g_to_2g(p, _check_momentum(k, Lambda), rel_tol)
    return DecayResult(res.rate * unit, res.kinematically_open, res.estimated_error * unit)


def scan_lambda_rate(cs_grid, Lambda: float = 1.0) -> tuple[float, ...]:
    """Gamma_{L->2G} over a sound-speed grid at fixed Lambda: one rate per cs,
    in grid order, stored as Gamma * Omega^4 / Lambda^5 (stored_rate).

    Every grid point is validated before the first rate is computed: a bad
    Lambda or cs, or a grid that is not strictly increasing, raises the
    ValueError that names it.  A numerical failure raises a RuntimeError
    naming its cs.
    """
    PhysicalParams(Lambda)  # checks Lambda on an empty grid too
    params = [PhysicalParams(Lambda, float(cs)) for cs in cs_grid]
    _check_increasing("cs", tuple(p.cs for p in params))
    rates = []
    for p in params:
        try:
            rates.append(stored_rate(p.cs, Lambda).rate)
        except (RuntimeError, ArithmeticError) as exc:
            raise RuntimeError(f"lambda-rate scan failed at cs={p.cs}: {exc}") from exc
    return tuple(rates)


def scan_g_rate(
    cs_values,
    k_grid,
    Lambda: float = 1.0,
    rel_tol: float = _DEFAULT_REL_TOL,
) -> list[tuple[float, ...]]:
    """Gamma_{G->2G} over a k-grid for each sound speed: one tuple of rates
    per cs, in input order, each in k-grid order and stored as
    Gamma * Omega^4 / Lambda^5 (stored_rate).

    Every input is validated before the first rate is computed: a bad Lambda,
    cs, rel_tol or k, or a k grid that is not strictly increasing, raises the
    ValueError that names it.  A numerical failure raises a RuntimeError
    naming its cs and k.
    """
    PhysicalParams(Lambda)  # checks Lambda on an empty grid too
    _check_tolerances(rel_tol, None)
    params = [PhysicalParams(Lambda, float(cs)) for cs in cs_values]
    ks = tuple(float(k) for k in k_grid)
    for k in ks:
        _check_momentum(k, Lambda)
    _check_increasing("k", ks)
    curves = []
    for p in params:
        rates = []
        for k in ks:
            try:
                rates.append(stored_rate(p.cs, Lambda, k, rel_tol).rate)
            except (RuntimeError, ArithmeticError) as exc:
                raise RuntimeError(f"g-rate scan failed at cs={p.cs}, k={k}: {exc}") from exc
        curves.append(tuple(rates))
    return curves
