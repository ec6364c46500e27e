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
no angle, and the window is never trimmed.  _g2g_window still runs
_cos_root's full bisection at 257 grid points, but only to learn whether any
angle conserves energy in double precision (none does once w_G(k) overflows);
it discards every root.  Both rates take w_G' from the gapless amplitudes
already evaluated at k* or q2 (spectrum._gapless_slope, the Hellmann-Feynman
form) and |M|^2 from the vertex kernels _bracket and _m2: this module only
integrates.

The q1-integral is adaptive: the 21-point Gauss-Kronrod rule of QUADPACK
(Piessens et al., 1983; qk21) on each interval, whose error estimate is
QUADPACK's

    resasc * min(1, (200 |K - G| h / resasc)^1.5),  floored at 50 eps resabs,

from the Kronrod and embedded 10-point Gauss results K, G, the half-length h
and the integrals resabs of |f| and resasc of |f - K/2|; the interval with
the largest estimate is bisected until the estimates sum below the
tolerance.

An independent oracle (mc_rate_oracle) resolves the energy delta along rays:
with the parent on the z axis, mu = cos(theta) the direction of q1 and r* the
root of E(r) = w_p - w_G(r) - w_G(|p - r n|) on its ray,
Gamma = (1/(8 pi w_p)) Int dmu r*^2 f / |dE/dr|, f = |M|^2 / (4 w_1 w_2).  A
moving parent's ray has one root in (0, k) when mu > mu_min = cs / w_G'(k),
none below.  With t = r / k, y = 1 - mu, s^2 = (1 - t)^2 + 2 t y and
w_G(q) = q (cs + nu(q^2)), nu and sigma = w_G' - cs from
spectrum._sound_excess, no term cancels the sound line:

    E / k = nu_k - t nu_1 - s nu_2 - 2 cs t y / ((1 - t) + s),
    |dE/dr| = cs y (1 + 2 t / ((1 - t) + s)) / s + sigma_1 - sigma_2 (1 - t - y) / s.

t is bisected (_bisect), so the estimate scales exactly with Lambda.  y runs
over (0, 1 - mu_min] as y_max expm1(L v) / expm1(L), L = 2 log1p(k / Lambda),
on equal cells of v: linear for a soft parent, geometric where a hard one's
weight sits (1 - mu ~ y_max Lambda / k).  Each of _MC_REPLICATES replicates
draws one jittered ray per cell from rng([seed, j]); the rate is their mean
and its error their spread, formed from their ratios to the mean (randomized
quasi-Monte-Carlo; Owen, Monte Carlo theory, methods and examples, 2013), in
quadrature with _MC_ROUNDING_ULPS ulps of the rays' rate-weighted bracket
condition number (vertex._bracket_scale).  At rest every ray has the root
2 w_G(r*) = Lambda: the error is that term plus the root's bracket.  The
oracle shares the resolvent, amplitudes, bracket and |M|^2 with the closed
forms; not q1, _k_of_omega, the Jacobian, the window or quad.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, PhysicalParams, params_from_physical
from .spectrum import (
    _TINY,
    _checked_roots,
    _gapless,
    _gapless_from_roots,
    _gapless_slope,
    _gapped_at_rest,
    _k_of_omega,
    _omega_g,
    _resolvent,
    _sound_excess,
)
from .vertex import _amplitude, _bracket, _bracket_scale, _m2, cubic_coupling

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
_EPS = sys.float_info.epsilon
_MC_REPLICATES = 8  # independent randomizations of the oracle's angle cells (mc_rate_oracle)
_MC_BLOCK = 1 << 13  # rays per oracle batch over all replicates
_MC_MIN_CELLS = 16  # fewest angle cells per replicate a spread is formed on
_MC_HALVINGS = 64  # bisection steps of a root t in (0, 1): below an ulp of any t above 2^-11
_MC_ROUNDING_ULPS = 16.0  # rounding units per unit of bracket condition in the oracle's error

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
    """A single decay rate in mass units, with an absolute error estimate.

    A positive error below the smallest normal double, where it would keep
    fewer digits, is reported as that double: rounded up, it is still a bound."""

    rate: float
    kinematically_open: bool
    estimated_error: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"rate must be non-negative, got {self.rate}")
        if not self.kinematically_open and self.rate != 0.0:
            raise ValueError("closed channel must carry zero rate")
        if 0.0 < self.estimated_error < _TINY:
            object.__setattr__(self, "estimated_error", _TINY)


_NUMERICAL_FAILURES = (RuntimeError, ArithmeticError, np.linalg.LinAlgError)  # before ValueError


@contextmanager
def _name_failure(where: str):
    """Re-raise a numerical failure as a RuntimeError `where: <its message>`."""
    try:
        yield
    except _NUMERICAL_FAILURES as exc:
        raise RuntimeError(f"{where}: {exc}") from exc


def _check_increasing(parameter: str, values: tuple[float, ...]) -> None:
    """Reject a scan grid that is not strictly increasing, naming its parameter."""
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{parameter} grid must be strictly increasing, got {values}")


def _check_momentum(k: float, Lambda: float = 1.0) -> float:
    """kappa = k / Lambda; a ValueError unless k and kappa are positive and finite."""
    if 0.0 < k < math.inf and 0.0 < float(k) / Lambda < math.inf:
        return float(k) / Lambda
    raise ValueError(f"parent momentum k must be positive and finite, got {k} at Lambda={Lambda}")


def _scaled(value: float, Lambda: float, Omega: float, inverse: bool = False,
            floor: bool = False) -> float:
    """value at Lambda = Omega = 1 times Lambda^8 / Omega^4 (divided when inverse), as two
    factors Lambda^4 / Omega^2: no Lambda^8 (0.0 or inf past Lambda ~ 1e-41 or 1e39) is
    formed.  A result past the float range, or a factor Lambda^4 / Omega^2 that
    leaves it (Lambda^4 overflows from Lambda ~ 1e77, Omega^2 underflows to 0.0
    from Omega ~ 1e-162), raises an OverflowError naming the value, Lambda and
    Omega; with floor (a rate) so does a nonzero value that scales below the
    smallest normal double, which both rates do at cs = 0.5, Omega = 1 below
    Lambda ~ 1.5e-38 (L -> 2G) and 1.8e-38 (G -> 2G at k = Lambda)."""
    try:
        half = Lambda**4 / Omega**2
        scaled = value / half / half if inverse else value * half * half
    except (OverflowError, ZeroDivisionError):  # Lambda**4 overflows or a divisor underflows to 0
        raise OverflowError(f"rate {value!r} cannot be scaled to Lambda={Lambda}, Omega={Omega}: "
                            f"Lambda^4 / Omega^2 leaves the double range") from None
    return _in_range(value, scaled, f"to Lambda={Lambda}, Omega={Omega}", floor)


def _in_range(value: float, scaled: float, where: str, floor: bool = True) -> float:
    """scaled, value moved to another scale, unless it overflows or, with floor,
    a nonzero value falls below the smallest normal double, where it would
    keep fewer digits or read 0.0: then an OverflowError names value and where."""
    if math.isinf(scaled):
        raise OverflowError(f"rate {value!r} overflows scaled {where}")
    if floor and value > 0.0 and scaled < _TINY:
        raise OverflowError(f"rate {value!r} underflows scaled {where}")
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
    c_s = sqrt(3/8), where a bracket of exactly 0.0 gives rate 0.0.  Any other
    rate below the smallest normal double at Lambda = Omega = 1 (below c_s ~
    1e-76, where it would keep fewer digits or read 0.0) raises an
    OverflowError naming c_s; so does one that _scaled cannot bring to the
    caller's Lambda and Omega.
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
    rate = kstar * kstar * (amp * amp) / (8.0 * math.pi * slope)
    if rate < _TINY and t != 0.0:  # t = 0.0 is the interference zero, a true 0.0
        raise OverflowError(f"rate {rate!r} at Lambda = Omega = 1 underflows the normal doubles "
                            f"at cs={p.cs}")
    rate = _scaled(rate, p.Lambda, p.Omega, floor=True)
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


def _g2g_window(m: ModelParams, wk: float, k: float) -> tuple[float, float]:
    """Daughter-magnitude interval (1e-9 k, k - 1e-9 k) of the q1 integral,
    at Lambda = 1 (so cs = M) and k = kappa.

    w_G is convex, so w_G(q) + w_G(k - q) <= w_G(k) and every q1 in (0, k)
    has an angle that conserves energy: the window is all of the grid.  A
    grid flag reads False where rounding flips _cos_root's sign test; that
    trims nothing.  No flag is set from kappa ~ 1.2e77 on, where w_G(kappa)
    overflows (its root x_G holds kappa^4), nor below kappa ~ 1.5e-145, where
    the lower end squared is not a normal double (spectrum._checked_roots'
    rule) and the kernels would divide by 0; a RuntimeError names cs and
    k/Lambda.
    """
    eps = 1e-9 * k
    grid = np.linspace(eps, k - eps, 257)
    normal = eps * eps >= _TINY
    flags = [normal and _cos_root(m, wk, k, float(q)) is not None for q in grid]
    if not any(flags):
        raise RuntimeError(f"G -> 2G kinematics leave the double range at cs={m.M}, k/Lambda={k:g}")
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
    a RuntimeError names cs and k/Lambda.  An open channel's rate below the
    smallest normal double at Lambda = Omega = 1 (at k = Lambda below cs ~
    1e-76; at cs = 0.5 below k/Lambda ~ 1e-57, where it drops from 7e-265 to
    0.0) raises an OverflowError naming cs and k/Lambda.  The absolute tolerance
    abs_tol defaults to 1e-10 Lambda^8 / Omega^4.
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

    lo, hi = _g2g_window(m, wk, k)

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
    if rate < _TINY:
        raise OverflowError(f"rate {rate!r} at Lambda = Omega = 1 underflows the normal doubles "
                            f"at cs={p.cs}, k/Lambda={k:g}")
    return DecayResult(_scaled(rate, p.Lambda, p.Omega, floor=True), True,
                       _scaled(err, p.Lambda, p.Omega))


def _bisect(above, shape=()) -> np.ndarray:
    """t in (0, 1) where above(t) turns False, elementwise, after _MC_HALVINGS halvings."""
    lo, hi = np.zeros(shape), np.ones(shape)
    for _ in range(_MC_HALVINGS):
        t = 0.5 * (lo + hi)
        up = above(t)
        np.copyto(lo, t, where=up)
        np.copyto(hi, t, where=~up)
    return 0.5 * (lo + hi)


def _daughter(m: ModelParams, u):
    """(omega_G, |pi_G|, |sigma_G|, slope excess sigma) at u = k^2 from one resolvent."""
    roots = _resolvent(m, u)
    return (*_gapless_from_roots(m, u, *roots), _sound_excess(m, u, *roots[1:], slope=True)[1])


def _ray_weights(m: ModelParams, lam3: float, cs: float, k: float, parent, nu_k: float, y):
    """r*^2 f / |dE/dr| and the bracket's condition number on the rays 1 - mu = y of
    a parent (w_k, |pi_k|, |sigma_k|) of momentum k, and the largest |M|^2."""
    kk = k * k

    def above(t):  # E / k > 0
        s2 = (1.0 - t) ** 2 + 2.0 * t * y
        s = np.sqrt(s2)
        nu1, nu2 = (_sound_excess(m, u, *_resolvent(m, u)[1:]) for u in (kk * t * t, kk * s2))
        return nu_k - t * nu1 - s * nu2 > 2.0 * cs * t * y / (1.0 - t + s)

    t = _bisect(above, y.shape)
    a = 1.0 - t
    s2 = a * a + 2.0 * t * y
    s = np.sqrt(s2)
    (w1, pi1, sg1, sl1), (w2, pi2, sg2, sl2) = _daughter(m, kk * t * t), _daughter(m, kk * s2)
    legs = (parent[1], parent[2], pi1, sg1, pi2, sg2)
    bracket = _bracket(*legs)
    m2 = _m2(lam3, parent[0] * w1 * w2, bracket)
    slope = cs * (y * (1.0 + 2.0 * t / (a + s)) / s) + sl1 - (a - y) / s * sl2
    return (kk * t * t * (m2 / (4.0 * w1 * w2)) / slope, _bracket_scale(*legs) / np.abs(bracket),
            float(m2.max()))


def _rest_rate(m: ModelParams, lam3: float, lam: float, cs: float):
    """(rate, stated error bound, |M|^2) of the at-rest parent (module docstring)."""
    unit = 0.5 * lam / cs  # omega_G(r) >= cs r puts the root below
    t = float(_bisect(lambda t: 4.0 * _resolvent(m, (unit * t) ** 2)[0] < lam * lam))
    u = (unit * t) ** 2
    w, pi_g, sg_g, sigma = _daughter(m, u)
    legs = (*_gapped_at_rest(m, lam), pi_g, sg_g, pi_g, sg_g)
    bracket = _bracket(*legs)
    m2 = _m2(lam3, lam * w * w, bracket)
    rate = u * (m2 / (4.0 * w * w)) / (8.0 * math.pi * lam * (cs + sigma))
    condition = _bracket_scale(*legs) / abs(bracket) if bracket else math.inf
    width = math.ldexp(1.0, -_MC_HALVINGS) / t + _MC_ROUNDING_ULPS * _EPS  # t's bracket, rounding
    return rate, rate * condition * width, m2


def _moving_rate(m: ModelParams, lam3: float, lam: float, cs: float, k: float, u: float, roots,
                 seed: int, n_mu: int):
    """(rate, error, largest |M|^2) of a gapless parent at its checked u = k^2 and roots."""
    parent = _gapless_from_roots(m, u, *roots)
    nu_k, sigma_k = _sound_excess(m, u, *roots[1:], slope=True)
    big = 2.0 * math.log1p(k / lam)
    y_unit = sigma_k / (cs + sigma_k) / math.expm1(big)  # (1 - mu_min) / expm1(L)
    rngs = [np.random.default_rng([seed, j]) for j in range(_MC_REPLICATES)]
    partials, conditioned, peak = [[] for _ in rngs], [], 0.0
    step = max(_MC_BLOCK // _MC_REPLICATES, 1)
    for first in range(0, n_mu, step):
        cells = np.arange(first, min(first + step, n_mu))
        # one ray per cell in (i, i + 1] / n_mu: v = 0 would be the collinear ray
        v = (cells + (1.0 - np.stack([rng.random(cells.size) for rng in rngs]))) / n_mu
        y = y_unit * np.expm1(big * v)
        weights, condition, top = _ray_weights(m, lam3, cs, k, parent, nu_k, y)
        # dy/dv / (8 pi w_k n_mu), divided by n_mu before the sum: no sum exceeds its largest term
        values = weights * (y_unit * big / (8.0 * math.pi * parent[0] * n_mu) * np.exp(big * v))
        peak = max(peak, top)
        if not np.isfinite(values).all():
            return math.nan, math.nan, peak
        for acc, row in zip(partials, values):
            acc.append(math.fsum(row.tolist()))
        conditioned.append(float(np.sum(values * condition, where=values != 0.0)))  # t = 0: no weight
    estimates = [math.fsum(acc) for acc in partials]
    mean = math.fsum(estimates) / _MC_REPLICATES
    if not mean > 0.0:
        return mean, math.nan, peak
    spread = math.fsum((e / mean - 1.0) ** 2 for e in estimates) / (_MC_REPLICATES - 1)
    rounding = _MC_ROUNDING_ULPS * _EPS * math.fsum(conditioned) / (mean * _MC_REPLICATES)
    return mean, mean * math.hypot(math.sqrt(spread / _MC_REPLICATES), rounding), peak


def mc_rate_oracle(
    p: PhysicalParams,
    process: str,
    k: float | None = None,
    seed: int = 0,
    samples: int = 2_000_000,
) -> DecayResult:
    """Ray-by-ray phase-space estimate of a decay rate (module docstring),
    deterministic for a seed: "lambda-2g" (at-rest gapped parent, no k) or
    "g-2g" (gapless parent of positive finite momentum k).  Each replicate
    draws a ray in each of isqrt(samples // _MC_REPLICATES) angle cells; fewer
    than _MC_MIN_CELLS raise a RuntimeError naming samples.  A parent outside
    spectrum._checked_roots' normal range (at k, or Lambda at rest), or an
    |M|^2 or rate outside the normal doubles, raises one naming Lambda."""
    if process not in ("lambda-2g", "g-2g"):
        raise ValueError(f"unknown process {process!r}; expected 'lambda-2g' or 'g-2g'")
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool) or samples < 2:
        raise ValueError(f"samples must be an int of at least 2, got {samples!r}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    if process == "g-2g" and (k is None or not 0.0 < k < math.inf):
        raise ValueError(f"process 'g-2g' needs a positive finite parent momentum k, got {k}")
    if process == "lambda-2g" and k is not None:
        raise ValueError(f"process 'lambda-2g' decays at rest and takes no parent momentum k, got {k}")
    n_mu = math.isqrt(samples // _MC_REPLICATES)
    if n_mu < _MC_MIN_CELLS:
        raise RuntimeError(f"samples={samples} gives {n_mu} cells per replicate, too few for a spread")
    if p.cs >= 1.0:
        return DecayResult(rate=0.0, kinematically_open=k is None, estimated_error=0.0)
    m, lam3, lam = params_from_physical(p), cubic_coupling(p), p.Lambda
    try:
        u, roots = _checked_roots(m, lam if k is None else k)
    except RuntimeError as exc:
        raise RuntimeError(f"the parent is out of range at Lambda={lam}: {exc}") from None
    with np.errstate(all="ignore"):  # a value that leaves the double range is named below
        rate, err, peak = (_rest_rate(m, lam3, lam, p.cs) if k is None else
                           _moving_rate(m, lam3, lam, p.cs, k, u, roots, seed, n_mu))
    if not (_TINY <= peak < math.inf and _TINY <= rate < math.inf and math.isfinite(err)):
        flow = "underflowed" if peak < _TINY or rate < _TINY else "overflowed"
        raise RuntimeError(f"|M|^2 (largest {peak!r}) or the rate ({rate!r}) {flow} "
                           f"double precision at Lambda={lam}, Omega={p.Omega}")
    return DecayResult(rate=rate, kinematically_open=True, estimated_error=err)


def stored_rate(cs: float, Lambda: float, k: float | None = None,
                rel_tol: float = _DEFAULT_REL_TOL) -> DecayResult:
    """Gamma_{L->2G} (k None) or Gamma_{G->2G} at k as the scans and the command line
    store it, Gamma Omega^4 / Lambda^5 = Lambda^3 Gamma(1, cs, 1; k/Lambda): free of
    Omega, and never passing through Gamma itself (not a normal double below Lambda ~
    1.5e-38).  A nonzero rate whose Lambda^3 product leaves the normal doubles (below
    Lambda ~ 1.5e-101 at cs = 0.5), or a Lambda^3 that overflows, raises an
    OverflowError naming Lambda."""
    p = PhysicalParams(1.0, cs)
    try:
        unit = Lambda**3
    except OverflowError:
        raise OverflowError(f"Lambda^3 overflows at Lambda={Lambda}, out of range of the "
                            "doubles") from None
    res = rate_lambda_to_2g(p) if k is None else rate_g_to_2g(p, _check_momentum(k, Lambda), rel_tol)
    rate = _in_range(res.rate, res.rate * unit, f"by Lambda^3 at Lambda={Lambda}")
    return DecayResult(rate, res.kinematically_open, res.estimated_error * unit)


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
        with _name_failure(f"lambda-rate scan failed at cs={p.cs}"):
            rates.append(stored_rate(p.cs, Lambda).rate)
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
            with _name_failure(f"g-rate scan failed at cs={p.cs}, k={k}"):
                rates.append(stored_rate(p.cs, Lambda, k, rel_tol).rate)
        curves.append(tuple(rates))
    return curves
