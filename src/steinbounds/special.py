"""Scalar special-function kernel.

Everything here is a thin, contract-checked layer over ``scipy.special``:
gamma and log-gamma, double factorials, Pochhammer products, modified
Bessel functions and the standard normal pdf/cdf/Mill's-ratio triple.  The confluent
hypergeometric U function on the parameter slice we actually use is a
fixed double-exponential quadrature rule of its own.  ``integrate``, over
``scipy.integrate.quad``, is the package's one adaptive quadrature rule.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _sp

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)

_GAMMA_OVERFLOW = 171.62  # gamma(x) overflows double precision above this


def integrate(fn, a: float, b: float, breaks=(), epsabs: float = 1.49e-8, epsrel: float = 1.49e-8):
    """(value, error estimate) of the integral of fn (float to float) from
    a to b, either end infinite or the larger.  The range is split at every
    break point strictly inside it, so QUADPACK meets each singular or
    kinked point at the end of a piece.  IntegrationWarning is silenced:
    the summed error estimate is returned instead."""
    lo, hi = sorted((a, b))
    sign = 1.0 if a <= b else -1.0
    edges = [lo, *sorted(p for p in breaks if lo < p < hi), hi] if lo < hi else []
    total, err = 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _integrate.IntegrationWarning)
        for left, right in zip(edges[:-1], edges[1:]):
            val, e = _integrate.quad(fn, left, right, limit=400, epsabs=epsabs, epsrel=epsrel)
            total += val
            err += e
    return sign * total, err


def gamma_fn(x: float) -> float:
    """Gamma function for real ``x`` away from the non-positive integers.

    Relative error <= 1e-12 on [1e-3, 170]. Raises instead of returning
    inf/nan so pole and overflow bugs surface at the call site; use
    :func:`log_gamma` above the representable range.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma_fn pole at non-positive integer x={x}")
    if x > _GAMMA_OVERFLOW:
        raise OverflowError(f"gamma_fn({x}) overflows double precision; use log_gamma")
    return float(_sp.gamma(x))


def log_gamma(x: float) -> float:
    """log(Gamma(x)) for x > 0."""
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return float(_sp.gammaln(x))


def double_factorial(n: int) -> int:
    """n!! with the conventions (-1)!! = 0!! = 1.

    Returns an exact Python integer (callers needing floats coerce).
    """
    if n < -1:
        raise ValueError(f"double_factorial requires n >= -1, got {n}")
    if n in (-1, 0):
        return 1
    return math.prod(range(n, 0, -2))


def pochhammer_k(x: float, n: int, k: float) -> float:
    """Step-k rising product x (x+k) (x+2k) ... (x+(n-1)k); 1 when n = 0.

    Falls back to log-space accumulation with sign tracking when the
    running product leaves double range (factorial-type growth shows up
    in high-order bound sweeps).
    """
    if n < 0:
        raise ValueError(f"pochhammer_k requires n >= 0, got {n}")
    out = 1.0
    for i in range(n):
        out *= x + i * k
        if math.isinf(out):
            return _signed_exp_sum(x + j * k for j in range(n))
    return out


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n; the k = 1 Pochhammer product."""
    return pochhammer_k(x, n, 1.0)


def _signed_exp_sum(factors) -> float:
    """Product of reals via sum of logs, tracking sign; inf on true overflow."""
    sign = 1.0
    logs = []
    for f in factors:
        if f == 0.0:
            return 0.0
        if f < 0.0:
            sign = -sign
            f = -f
        logs.append(math.log(f))
    total = math.fsum(logs)
    if total > 709.0:
        return sign * math.inf
    return sign * math.exp(total)


def product(factors) -> float:
    """Overflow-guarded product of nonnegative factors (empty product = 1)."""
    factors = list(factors)
    out = 1.0
    for f in factors:
        out *= f
    if math.isinf(out) or (out == 0.0 and all(f != 0.0 for f in factors)):
        return _signed_exp_sum(factors)
    return out


def bessel_i(nu: float, x):
    """Modified Bessel function of the first kind I_nu(x), x >= 0.

    Relative error <= 1e-10 for 1e-8 <= x <= 700 and |nu| <= 60; larger
    arguments overflow.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("bessel_i requires x >= 0")
    out = _sp.iv(nu, x_arr)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def bessel_k(nu: float, x):
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    K is symmetric in the order (K_nu = K_{-nu}); diverges as x -> 0.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise ValueError("bessel_k requires x > 0 (K diverges at the origin)")
    out = _sp.kv(nu, x_arr)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


# Parameter slice on which hyp_u is validated: a = s - 1, b = 1/2 with
# s in {1/2} union [1, 20]. Generality is a non-goal.
_HYP_U_B = 0.5


# Double-exponential trapezoid rule (Takahasi & Mori, 1974) for the
# integral representation of U(a, 1/2, x), a > 0.
_DE_STEP = 0.02
_DE_LOG_TAIL = 745.0  # tau^a = e^-745 at the left end: below the smallest double
_DE_LOG_MAX = 709.0  # largest log(tau): exp overflows past ~709.78
# abscissae x nodes per block: at most 122 abscissae (a = 19 has the
# fewest nodes, 536), fewer for small a, whose rule has more nodes
_DE_CELLS = 1 << 16


def _hyp_u_de(a: float, x: np.ndarray) -> np.ndarray:
    """U(a, 1/2, x) for a > 0 and x > 0 by one fixed rule for every x.

    With t = tau/(1+x), U = (1+x)^-a / Gamma(a) int_0^inf e^(-x tau/(1+x))
    tau^(a-1) (1 + tau/(1+x))^(-a-1/2) dtau, whose integrand has its bulk
    at tau of order 1 for every x.  The substitution tau = exp(pi/2
    sinh sigma) makes it decay double-exponentially in sigma; the
    trapezoid rule runs from tau^a = e^-745 to log tau = 709.
    """
    lo = -math.asinh(2.0 * _DE_LOG_TAIL / (math.pi * a))
    hi = math.asinh(2.0 * _DE_LOG_MAX / math.pi)
    sigma = lo + _DE_STEP * np.arange(int((hi - lo) / _DE_STEP) + 1)
    log_tau = 0.5 * math.pi * np.sinh(sigma)
    tau = np.exp(log_tau)
    # tau^(a-1) dtau/dsigma, in log form
    log_w = a * log_tau + np.log(0.5 * math.pi * np.cosh(sigma))
    flat = x.ravel()
    out = np.empty(flat.shape)
    rows = max(1, _DE_CELLS // sigma.size)
    for i in range(0, flat.size, rows):
        xb = flat[i:i + rows, None]
        expo = log_w - (xb / (1.0 + xb)) * tau - (a + 0.5) * np.log1p(tau / (1.0 + xb))
        out[i:i + rows] = np.exp(expo).sum(axis=1)
    out *= _DE_STEP * np.exp(-a * np.log1p(flat) - _sp.gammaln(a))
    return out.reshape(x.shape)


def hyp_u(a: float, b: float, x) -> float:
    """Confluent hypergeometric U(a, b, x) on the validated slice.

    b = 1/2, a in {-1/2} U [0, 19], x > 0.  a = 0 and a = -1/2 are the
    closed forms 1 and sqrt(x); a > 0 is one double-exponential trapezoid
    rule over the integral representation, evaluated for all x at once
    (see _hyp_u_de).  Against 40-digit mpmath it is within 2.3e-14
    relative for a in [1e-3, 19] and x in [1e-300, 1e7] (the tests hold it
    to 1e-12).  Anything else raises: accuracy is only certified there.
    """
    if b != _HYP_U_B:
        raise ValueError(f"hyp_u validated only for b = {_HYP_U_B}, got b={b}")
    if not (a == -0.5 or 0.0 <= a <= 19.0):
        raise ValueError(f"hyp_u validated only for a in {{-1/2}} U [0, 19], got a={a}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise ValueError("hyp_u requires x > 0")
    if a == 0.0:
        out = np.ones_like(x_arr)
    elif a == -0.5:
        out = np.sqrt(x_arr)
    else:
        out = _hyp_u_de(a, x_arr)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def norm_pdf(x):
    x_arr = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x_arr * x_arr) / SQRT_2PI
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def norm_cdf(x):
    out = _sp.ndtr(np.asarray(x, dtype=float))
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def mills_ratio(x):
    """(1 - Phi(x)) / phi(x) through erfcx: accurate arbitrarily far into
    the right tail (overflows to inf deep in the left tail)."""
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        out = SQRT_PI_OVER_2 * _sp.erfcx(x_arr / math.sqrt(2.0))
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out

