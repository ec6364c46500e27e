"""Tree-level decay rates from the golden rule.

Both one-to-two channels share the normalization

    Gamma = (1/S) (2 pi)^4 / (2 w_p)
            Int d3p1/((2pi)^3 2 w_1) d3p2/((2pi)^3 2 w_2) |M|^2
            delta3(p - p1 - p2) delta(w_p - w_1 - w_2),

with S = 2 for the two identical gapless daughters.

For the at-rest gapped parent the phase space collapses onto the sphere
|q| = k* with 2 w_G(k*) = Lambda, giving the closed evaluation

    Gamma = k*^2 |M(k*)|^2 / (8 pi Lambda^3 w_G'(k*)).

For a moving gapless parent the delta-functions reduce the integral to one
dimension: for each daughter magnitude q1 the angular energy-conservation
condition is solved for cos(theta) by bisection, weighted by the Jacobian
|d w_2 / d cos|^(-1) = q2 / (k q1 w_G'(q2)), and

    Gamma = (1/S) (1/(4 pi w_k)) Int q1^2 [|M|^2/(4 w_1 w_2)]
            [q2/(k q1 w_G'(q2))] dq1

over the q1-window where a root exists.  Both rates take w_G' from the
gapless amplitudes already evaluated at k* or q2 (spectrum._gapless_slope,
the Hellmann-Feynman form) and |M|^2 from the vertex kernels _bracket and
_m2: this module only integrates.

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
the quadrature path.  It computes the energy mismatch dE of every sample but
the vertex only where the Gaussian weight is nonzero: from |dE|/eps = _MC_SHELL
on, exp(-(dE/eps)^2 / 2) underflows to 0.0 in double precision, so such a
sample adds exactly 0.0 whatever its vertex, and skipping it leaves every bit
of the estimate as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, PhysicalParams, params_from_physical
from .spectrum import (
    _gapless,
    _gapless_from_roots,
    _gapless_slope,
    _gapped_at_rest,
    _k_of_omega,
    _omega_g,
    _resolvent,
)
from .vertex import _bracket, _m2, cubic_coupling

__all__ = [
    "DecayResult",
    "RateCurve",
    "lambda_threshold_momentum",
    "rate_lambda_to_2g",
    "rate_g_to_2g",
    "mc_rate_oracle",
    "scan_lambda_rate",
    "scan_g_rate",
]

_DEFAULT_REL_TOL = 1e-6
_MC_WIDTHS = (0.03, 0.015, 0.0075)  # Gaussian widths as fractions of the parent energy
_SQRT_EPS = math.sqrt(np.finfo(float).eps)  # smallest sigma ratio the width fit can weigh
_MC_MIN_EFFECTIVE = 10.0  # fewest effective samples (sum f)^2 / sum f^2 a rung's sigma is trusted on
_MC_BLOCK = 1 << 13  # samples per oracle block: a ~2 MB traced peak per call (mc_rate_oracle)
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
_EPS = float(np.finfo(float).eps)


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


@dataclass(frozen=True)
class RateCurve:
    """A rate scan over one parameter; rates stored as Gamma * Omega^4 / Lambda^5."""

    parameter: str
    values: tuple[float, ...]
    rates: tuple[float, ...]
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.values) != len(self.rates):
            raise ValueError("values and rates must have equal length")
        _check_increasing(self.parameter, self.values)


def _check_increasing(parameter: str, values: tuple[float, ...]) -> None:
    """Reject a scan grid that is not strictly increasing, naming its parameter."""
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{parameter} grid must be strictly increasing, got {values}")


def _check_momentum(k: float) -> None:
    """Reject a parent momentum that is not positive and finite."""
    if not 0.0 < k < math.inf:
        raise ValueError(f"parent momentum k must be positive and finite, got {k}")


def _rate_unit(Lambda: float, Omega: float) -> float:
    """Lambda^5 / Omega^4: the unit of stored rates and of the rate tolerances."""
    return Lambda**5 / Omega**4


def lambda_threshold_momentum(p: PhysicalParams) -> float:
    """Root k* of 2 w_G(k*) = Lambda: daughter momentum of the at-rest decay.

    Unique because w_G is strictly increasing and unbounded; closed form
    k* = k_G(Lambda / 2), checked to |2 w_G(k*) - Lambda| <= 1e-12 Lambda.
    """
    m = params_from_physical(p)
    lam = p.Lambda
    kstar = _k_of_omega(m, 0.5 * lam)
    if abs(2.0 * _omega_g(m, kstar) - lam) > 1e-12 * lam:
        raise RuntimeError(f"threshold momentum misses 2 w_G(k*) = Lambda at cs={p.cs}")
    return kstar


def rate_lambda_to_2g(p: PhysicalParams) -> DecayResult:
    """Decay rate of an at-rest gapped mode into two gapless modes.

    Closed golden-rule evaluation on the threshold sphere; zero at c_s = 1
    (vanishing coupling) and at the destructive-interference point
    c_s = sqrt(3/8).
    """
    if p.cs >= 1.0:
        return DecayResult(rate=0.0, kinematically_open=True, estimated_error=0.0)
    m = params_from_physical(p)
    kstar = lambda_threshold_momentum(p)
    w_g, pi_g, sg_g = _gapless(m, kstar)
    lam = p.Lambda
    t = _bracket(*_gapped_at_rest(m, lam), pi_g, sg_g, pi_g, sg_g)  # back-to-back daughters
    m2 = _m2(cubic_coupling(p), lam * w_g * w_g, t)
    slope = _gapless_slope(m, kstar, pi_g, sg_g)
    rate = kstar * kstar * m2 / (8.0 * math.pi * lam**3 * slope)
    return DecayResult(rate=rate, kinematically_open=True, estimated_error=rate * 1e-11)


def _cos_root(m: ModelParams, wk: float, k: float, q1: float) -> tuple[float, float] | None:
    """Solve w_k - w_G(q1) - w_G(q2(cos)) = 0 for cos in [-1, 1].

    Returns (cos, q2) at the root, or None when no sign change exists.  The
    energy deficit increases monotonically in cos, so plain bisection applies.
    """
    w1 = _omega_g(m, q1)

    def f(c: float) -> float:
        q2sq = k * k + q1 * q1 - 2.0 * k * q1 * c
        q2 = math.sqrt(q2sq) if q2sq > 0.0 else 0.0
        return wk - w1 - _omega_g(m, q2)

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
    q2sq = k * k + q1 * q1 - 2.0 * k * q1 * c
    return c, math.sqrt(q2sq) if q2sq > 0.0 else 0.0


def _g2g_window(m: ModelParams, wk: float, k: float) -> tuple[float, float] | None:
    """Daughter-magnitude interval where the angular root exists.

    Scans a grid over (0, k), then refines both edges to 1e-12 k by bisection
    on the root-existence predicate.  Convexity of w_G makes the window a
    single interval (in fact all of (0, k) for these dispersions).
    """
    eps = 1e-9 * k
    grid = np.linspace(eps, k - eps, 257)
    flags = [_cos_root(m, wk, k, float(q)) is not None for q in grid]
    if not any(flags):
        return None
    first = flags.index(True)
    last = len(flags) - 1 - flags[::-1].index(True)

    def refine(q_out: float, q_in: float) -> float:
        for _ in range(60):
            mid = 0.5 * (q_out + q_in)
            if _cos_root(m, wk, k, mid) is None:
                q_out = mid
            else:
                q_in = mid
        return q_in

    lo = grid[first] if first == 0 else refine(float(grid[first - 1]), float(grid[first]))
    hi = grid[last] if last == len(grid) - 1 else refine(float(grid[last + 1]), float(grid[last]))
    return float(lo), float(hi)


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

    One-dimensional golden-rule reduction (module docstring); the kinematic
    window is scanned and edge-refined, the quadrature is split at the window
    midpoint to keep the integrable edge behavior away from the adaptive core.
    Returns a closed result when no angular solution exists anywhere.
    """
    _check_momentum(k)
    _check_tolerances(rel_tol, abs_tol)
    if p.cs >= 1.0:
        # exactly linear dispersion: only the measure-zero collinear
        # configuration conserves energy, and the coupling vanishes
        return DecayResult(rate=0.0, kinematically_open=False, estimated_error=0.0)
    if abs_tol is None:
        abs_tol = 1e-10 * _rate_unit(p.Lambda, p.Omega)
    m = params_from_physical(p)
    wk, pi_k, sg_k = _gapless(m, k)
    lam3 = cubic_coupling(p)

    window = _g2g_window(m, wk, k)
    if window is None:
        return DecayResult(rate=0.0, kinematically_open=False, estimated_error=0.0)
    lo, hi = window

    def integrand(q1: float) -> float:
        root = _cos_root(m, wk, k, q1)
        if root is None:
            return 0.0
        _, q2 = root
        if q2 <= 0.0:
            return 0.0
        w1, pi_1, sg_1 = _gapless(m, q1)
        w2, pi_2, sg_2 = _gapless(m, q2)
        m2 = _m2(lam3, wk * w1 * w2, _bracket(pi_k, sg_k, pi_1, sg_1, pi_2, sg_2))
        jac = q2 / (k * q1 * _gapless_slope(m, q2, pi_2, sg_2))
        return q1 * q1 * (m2 / (4.0 * w1 * w2)) * jac

    norm = 8.0 * math.pi * wk  # Gamma = integral / norm, S = 2 included
    eps_val = abs_tol * norm
    mid = 0.5 * (lo + hi)
    val1, err1 = quad(integrand, lo, mid, epsabs=0.5 * eps_val, epsrel=rel_tol, limit=200)
    val2, err2 = quad(integrand, mid, hi, epsabs=0.5 * eps_val, epsrel=rel_tol, limit=200)
    rate = (val1 + val2) / norm
    return DecayResult(
        rate=max(rate, 0.0),
        kinematically_open=True,
        estimated_error=(err1 + err2) / norm,
    )


def _extrapolate_widths(
    widths: np.ndarray, vals: np.ndarray, sigs: np.ndarray, effective: np.ndarray, samples: int
) -> tuple[float, float, float]:
    """Weighted least-squares fit vals ~ a0 + a2 width^2 -> (a0, sigma_a0, drift).

    drift is the shift of a0 when the largest width is dropped; it measures
    how far the ladder is from the asymptotic width^2 regime.  A rung has had
    too few of its samples on the energy shell, and raises a RuntimeError
    naming the rung and samples, when its effective sample count
    (sum f)^2 / sum f^2 is below _MC_MIN_EFFECTIVE (its sigma, taken from a
    handful of samples, would understate the error), or when its sigma is zero
    or below sqrt(machine epsilon) of the largest (its weight would make the
    fit singular).
    """
    bad = (effective < _MC_MIN_EFFECTIVE) | ~(sigs > _SQRT_EPS * sigs.max())
    if bad.any():
        i = int(np.argmax(bad))
        raise RuntimeError(
            f"width rung {i} (width {widths[i]:.3g}) has {effective[i]:.3g} effective samples "
            f"and sigma {sigs[i]:.3g} against {sigs.max():.3g}: too few of its "
            f"samples={samples} reach the energy shell"
        )

    def fit(w, v, s):
        a = np.vstack([np.ones_like(w), w * w]).T / s[:, None]
        coef, *_ = np.linalg.lstsq(a, v / s, rcond=None)
        cov = np.linalg.inv(a.T @ a)
        return float(coef[0]), math.sqrt(cov[0, 0])

    a0, sig0 = fit(widths, vals, sigs)
    a0_small, _ = fit(widths[1:], vals[1:], sigs[1:])
    return a0, sig0, abs(a0 - a0_small)


def _merge_moments(
    moments: tuple[int, float, float], block: np.ndarray
) -> tuple[int, float, float]:
    """Fold a block into running (count, mean, sum of squared deviations).

    Pairwise update of Chan, Golub & LeVeque (1979): exact, and free of the
    cancellation of a raw sum of squares.
    """
    count, mean, sq_dev = moments
    n = block.size
    block_mean = float(block.mean())
    block_sq_dev = float(np.square(block - block_mean).sum())
    total = count + n
    delta = block_mean - mean
    return (
        total,
        mean + delta * n / total,
        sq_dev + block_sq_dev + delta * delta * count * n / total,
    )


def mc_rate_oracle(
    p: PhysicalParams,
    process: str,
    k: float | None = None,
    seed: int = 0,
    samples: int = 2_000_000,
) -> DecayResult:
    """Monte-Carlo phase-space estimate of a decay rate.

    process is "lambda-2g" (at-rest gapped parent) or "g-2g" (gapless parent
    of momentum k).  The energy delta is smeared to a Gaussian of width
    eps = width * scale for each rung of the ladder _MC_WIDTHS, each
    estimated on its own substream rng([seed, i]), and the ladder is
    extrapolated to zero width by a weighted fit linear in eps^2.  The scale
    is the parent energy, capped for the gapless parent by the collinearity
    margin w_k - 2 w_G(k/2): near-linear dispersion pushes the
    energy-conservation shell against the cos(theta) = 1 boundary, and a width
    wider than the margin would clip it (an O(eps) boundary error that breaks
    the eps^2 ladder).  Deterministic for fixed seed.  A ladder whose
    extrapolation drifts by more than max(2%, 4 sigma) when the largest width
    is dropped raises rather than returning silently, and so does a rung with
    too few effective samples on the energy shell (_extrapolate_widths).

    Each rung streams its samples in blocks of _MC_BLOCK and merges the
    blocks' means and squared deviations exactly, so memory does not depend
    on samples.  The blocks do not change the draws: the radial jitters are
    read block after block from rng([seed, i]), and the g-2g angles from a
    second rng([seed, i]) advanced by samples, which is where drawing all
    the jitters at once leaves the first.  Every sample's energy mismatch dE
    comes from the resolvents alone; the amplitudes, bracket, |M|^2 and
    Gaussian run only on the samples with |dE|/eps < _MC_SHELL, and the others
    enter the block as the 0.0 their underflowed weight gives them, so the
    result is bit for bit that of evaluating every sample.

    A g-2g block keeps about 30 block-sized float64 temporaries alive at
    its peak (the shell subsets, both legs' roots and amplitudes), so memory
    grows with the block and the per-block overhead shrinks with it.
    _MC_BLOCK = 2^13 keeps a call's traced peak near 2 MB at a time per
    sample within 2% of 2^15's below; on the same host in a 2.3x slower
    state it cost 6-14% more than 2^15, and 2^12 13-35% more.  Measured on
    a 2-vCPU Xeon, Python 3.11, numpy 2.4, at cs = 0.5, k = 1, seed 7;
    times are medians of 9 runs interleaved in one process:

        block   traced peak per call   one verify pass   s per 1e6 samples
                (2e5 and 2e6 samples)  peak RSS          lambda-2g   g-2g
        2^12    0.9 - 1.6 MB           39.2 MB           0.115       0.142
        2^13    1.7 - 2.4 MB           40.3 MB           0.105       0.125
        2^14    3.4 - 4.5 MB           42.6 MB           0.106       0.122
        2^15    6.5 - 9.0 MB           47.7 MB           0.106       0.122

    samples must be an int of at least 2, and the g-2g momentum k positive
    and finite; the lambda-2g parent is at rest and takes no k.
    """
    if process not in ("lambda-2g", "g-2g"):
        raise ValueError(f"unknown process {process!r}; expected 'lambda-2g' or 'g-2g'")
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool) or samples < 2:
        raise ValueError(f"samples must be an int of at least 2, got {samples!r}")
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

    if process == "lambda-2g":
        w_parent, parent = lam, _gapped_at_rest(m, lam)
        eps_scale = lam
        kstar = lambda_threshold_momentum(p)
    else:
        w_parent, *parent = _gapless(m, k)
        margin = w_parent - 2.0 * _omega_g(m, 0.5 * k)
        eps_scale = min(w_parent, 8.0 * margin) if margin > 0.0 else w_parent

    vals, sigs, effective = [], [], []
    for i, frac in enumerate(_MC_WIDTHS):
        eps = frac * eps_scale
        radius = (kstar if process == "lambda-2g" else k) + 6.0 * eps / p.cs
        rng = np.random.default_rng([seed, i])
        if process == "g-2g":
            # the angles continue the rung's stream after its last radial
            # jitter, where one rng.random(samples) call would leave it
            angles = np.random.default_rng([seed, i])
            angles.bit_generator.advance(samples)
        moments = (0, 0.0, 0.0)
        for start in range(0, samples, _MC_BLOCK):
            n = min(_MC_BLOCK, samples - start)
            # stratified-jittered radii (equal-volume strata) tame the radial noise
            strata = (np.arange(start, start + n, dtype=float) + rng.random(n)) / samples
            r = radius * strata ** (1.0 / 3.0)
            u1 = r * r
            roots1 = _resolvent(m, u1)
            if process == "lambda-2g":
                z = (lam - 2.0 * np.sqrt(roots1[0])) / eps
            else:
                mu = 2.0 * angles.random(n) - 1.0
                q2 = np.sqrt(np.maximum(k * k + r * r - 2.0 * k * r * mu, 1e-300))
                u2 = q2 * q2
                roots2 = _resolvent(m, u2)
                z = (w_parent - np.sqrt(roots1[0]) - np.sqrt(roots2[0])) / eps
            # off the shell exp(-z^2/2) is 0.0: the vertex runs on the rest only
            on = np.flatnonzero(np.abs(z) < _MC_SHELL)
            w1, p1, s1 = _gapless_from_roots(m, u1[on], *(x[on] for x in roots1))
            if process == "lambda-2g":
                w2, p2, s2 = w1, p1, s1  # back-to-back daughters
            else:
                w2, p2, s2 = _gapless_from_roots(m, u2[on], *(x[on] for x in roots2))
            f = _m2(lam3, w_parent * w1 * w2, _bracket(*parent, p1, s1, p2, s2)) / (4.0 * w1 * w2)
            gauss = np.exp(-0.5 * z[on] ** 2) / (eps * math.sqrt(2.0 * math.pi))
            block = np.zeros(n)
            block[on] = f * gauss
            moments = _merge_moments(moments, block)
        _, mean, sq_dev = moments
        volume = 4.0 / 3.0 * math.pi * radius**3
        vals.append(volume * mean)
        sigs.append(volume * math.sqrt(sq_dev / (samples - 1)) / math.sqrt(samples))
        sum_sq = sq_dev + samples * mean * mean  # sum of f^2, from the merged moments
        effective.append(samples * mean * samples * mean / sum_sq if sum_sq > 0.0 else 0.0)

    a0, sig0, drift = _extrapolate_widths(
        np.array(_MC_WIDTHS) * eps_scale, np.array(vals), np.array(sigs), np.array(effective), samples
    )
    scale = 1.0 / (2.0 * 2.0 * w_parent * (2.0 * math.pi) ** 2)  # 1/S = 1/2 included
    rate = a0 * scale
    err = math.hypot(sig0, 0.5 * drift) * scale
    floor = 1e-8 * _rate_unit(p.Lambda, p.Omega)
    if abs(rate) > floor and drift * scale > max(0.02 * abs(rate), 4.0 * sig0 * scale):
        raise RuntimeError(
            f"width extrapolation not converged: rate={rate:.6e}, drift={drift * scale:.2e}"
        )
    return DecayResult(rate=max(rate, 0.0), kinematically_open=True, estimated_error=err)


def scan_lambda_rate(cs_grid, Lambda: float = 1.0, Omega: float = 1.0) -> RateCurve:
    """Gamma_{L->2G} over a sound-speed grid at fixed Lambda, Omega.

    Every grid point is validated before the first rate is computed: a bad
    Lambda, Omega or cs, or a grid that is not strictly increasing, raises the
    ValueError that names it.  A numerical failure raises a RuntimeError
    naming its cs.
    """
    PhysicalParams(Lambda, 1.0, Omega)  # checks Lambda and Omega on an empty grid too
    params = [PhysicalParams(Lambda, float(cs), Omega) for cs in cs_grid]
    values = tuple(p.cs for p in params)
    _check_increasing("cs", values)
    unit = _rate_unit(Lambda, Omega)
    rates = []
    for p in params:
        try:
            rates.append(rate_lambda_to_2g(p).rate / unit)
        except Exception as exc:
            raise RuntimeError(f"lambda-rate scan failed at cs={p.cs}: {exc}") from exc
    return RateCurve(
        parameter="cs", values=values, rates=tuple(rates),
        fixed={"Lambda": Lambda, "Omega": Omega},
    )


def scan_g_rate(
    cs_values,
    k_grid,
    Lambda: float = 1.0,
    Omega: float = 1.0,
    rel_tol: float = _DEFAULT_REL_TOL,
    abs_tol: float | None = None,
) -> list[RateCurve]:
    """Gamma_{G->2G} over a k-grid for each sound speed; one curve per cs.

    Every input is validated before the first rate is computed: a bad Lambda,
    Omega, cs, tolerance or k, or a k grid that is not strictly increasing,
    raises the ValueError that names it.  A numerical failure raises a
    RuntimeError naming its cs and k.
    """
    PhysicalParams(Lambda, 1.0, Omega)  # checks Lambda and Omega on an empty grid too
    _check_tolerances(rel_tol, abs_tol)
    params = [PhysicalParams(Lambda, float(cs), Omega) for cs in cs_values]
    ks = tuple(float(k) for k in k_grid)
    for k in ks:
        _check_momentum(k)
    _check_increasing("k", ks)
    unit = _rate_unit(Lambda, Omega)
    curves = []
    for p in params:
        rates = []
        for k in ks:
            try:
                rates.append(rate_g_to_2g(p, k, rel_tol, abs_tol).rate / unit)
            except Exception as exc:
                raise RuntimeError(f"g-rate scan failed at cs={p.cs}, k={k}: {exc}") from exc
        curves.append(
            RateCurve(
                parameter="k", values=ks, rates=tuple(rates),
                fixed={"Lambda": Lambda, "Omega": Omega, "cs": p.cs},
            )
        )
    return curves
