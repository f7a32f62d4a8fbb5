"""Numerical kernel: special functions, one adaptive quadrature rule and
piecewise Hermite interpolation, on numpy and scipy.special's compiled
ufuncs only.

The special functions are a thin, contract-checked layer over
``scipy.special``: gamma and log-gamma, double factorials, Pochhammer
products, modified Bessel functions and the standard normal
pdf/cdf/Mill's-ratio triple.  The confluent hypergeometric U function on
the parameter slice we actually use is a fixed double-exponential
quadrature rule of its own, which also gives dU/dx.  ``integrate`` is the
package's one adaptive quadrature rule: QUADPACK's QAGS and QAGI ported to
numpy, each rule application one call of the integrand on an array of
nodes; ``gauss_jacobi`` gives the fixed rules with a power-law weight
that the solver uses at the finite support ends instead.  ``Hermite``
interpolates by cubics from values and derivatives without a linear
solve, at points whose interval the caller names, without a search;
``taylor_step`` is its Horner rule, which also sums catalog's PRR U
series about sparse anchors.
``retain_freed_memory`` sets the C allocator's policy for the solver's
large node arrays (glibc's mallopt, through ctypes).

This module is the package's one importer of scipy.  It also hands
catalog, solver and verifier the raw ufuncs they call (``betainc`` ...
``stdtrit``, ``ive``, ``kve``).  All of them come from the extension
module ``scipy.special._ufuncs``, imported without scipy.special's
package ``__init__`` (see ``_scipy_special_ufuncs``): that ``__init__``'s
array-API layer imports numpy.f2py, numpy.testing, numpy.ma and
numpy.random, none of which the package uses, and costs about 0.19 s,
half of ``import steinbounds`` (2-core Xeon, scipy 1.17).  The
package never imports scipy.integrate or scipy.interpolate either, whose
import pulls in scipy.linalg, sparse, optimize and fft and would double
the start-up time of every CLI call.

All functions but ``retain_freed_memory``, which sets process state, are
pure and reentrant.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
import types

import numpy as np
import scipy


def _scipy_special_ufuncs():
    """The module that holds scipy.special's compiled ufuncs:
    ``scipy.special._ufuncs``, imported with the extension modules it
    imports itself (``_ufuncs_cxx``, ``_special_ufuncs``, ``_gufuncs``,
    ``_ellip_harm_2``) but without scipy.special's package ``__init__``.

    If scipy.special is already imported, its ``_ufuncs`` is taken as it
    is.  Otherwise a bare package module with scipy.special's ``__path__``
    stands in for it while ``_ufuncs`` is imported, and is removed again.
    Either way the package calls the raw ufuncs, whatever the import
    order.  A later ``import scipy.special`` runs the real ``__init__``;
    in scipy's default setting its public names are the very same ufunc
    objects (with SCIPY_ARRAY_API=1 scipy wraps several of them in
    array-API dispatchers instead).  A scipy whose private layout differs
    (pyproject allows scipy >= 1.10) raises ImportError there and gets the
    public package instead.

    Caveat: for the duration of that one extension import, inside this
    package's own import, ``sys.modules["scipy.special"]`` is the
    stand-in, which has no attribute but the extension modules.
    """
    if "scipy.special" in sys.modules:
        return sys.modules["scipy.special"]._ufuncs
    stand_in = types.ModuleType("scipy.special")
    stand_in.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
    sys.modules["scipy.special"] = stand_in
    try:
        from scipy.special import _ufuncs

        return _ufuncs
    except ImportError:
        pass
    finally:
        del sys.modules["scipy.special"]
    from scipy import special

    return special


_sp = _scipy_special_ufuncs()
# the ufuncs that catalog, solver and verifier call as scipy defines them
betainc, betaincinv, gammainc, gammaincc = _sp.betainc, _sp.betaincinv, _sp.gammainc, _sp.gammaincc
gammainccinv, gammaincinv, ndtr, ndtri = _sp.gammainccinv, _sp.gammaincinv, _sp.ndtr, _sp.ndtri
rgamma, stdtr, stdtrit, ive, kve = _sp.rgamma, _sp.stdtr, _sp.stdtrit, _sp.ive, _sp.kve

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)

_GAMMA_OVERFLOW = 171.62  # gamma(x) overflows double precision above this

# mallopt(3) parameters: glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, the
# ceiling of its own dynamic mmap threshold, and twice it for the trim
# threshold, the ratio that rule keeps
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def retain_freed_memory() -> bool:
    """Keep freed blocks of up to 32 MiB, and up to 64 MiB of free heap
    top, in the process, so that arrays of a few MB are recycled from the
    heap instead of being unmapped on free and faulted in again, page by
    page, when the next one is allocated.  glibc's dynamic thresholds
    start the mmap threshold at 128 KiB and raise it only to the largest
    mmapped block freed so far, so every mesh of the solver (node arrays
    of 1-2 MB each, a working set of 4-10 MB) would otherwise fault its
    pages in afresh.  Acts on glibc only, where it returns whether both
    mallopt calls succeeded; elsewhere it does nothing and returns False.
    Peak memory does not grow: only what is freed is kept."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False
    if not (libc or "").startswith("glibc"):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    trim = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    return mmap == 1 and trim == 1


def integrate(fn, a: float, b: float, breaks=(), *, epsabs: float, epsrel: float):
    """(value, error estimate) of the integral of fn from a to b, either
    end infinite or the larger.  fn maps an array of points to the array
    of its values there.  The range is split at every break point strictly
    inside it, so the rule meets each singular or kinked point at the end
    of a piece; each finite piece is QAGS and each infinite one QAGI, and
    the error estimates of the pieces are summed.  QUADPACK's failure
    codes are not reported: a piece that misses its tolerance gives its
    best value and its error estimate."""
    lo, hi = sorted((a, b))
    sign = 1.0 if a <= b else -1.0
    edges = [lo, *sorted(p for p in breaks if lo < p < hi), hi] if lo < hi else []
    total, err = 0.0, 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        if math.isinf(left) or math.isinf(right):
            # QAGI: x = bound + (1 - t) / t maps (0, 1] onto [bound, inf),
            # bound - (1 - t) / t onto (-inf, bound]; over the whole line
            # both halves about 0 share the t nodes
            if math.isinf(left) and math.isinf(right):
                rule = functools.partial(_kronrod15_inf, fn, 0.0, 2)
            elif math.isinf(right):
                rule = functools.partial(_kronrod15_inf, fn, left, 1)
            else:
                rule = functools.partial(_kronrod15_inf, fn, right, -1)
            val, e = _qags(rule, 0.0, 1.0, epsabs, epsrel)
        else:
            val, e = _qags(functools.partial(_kronrod21, fn), left, right, epsabs, epsrel)
        total += val
        err += e
    return sign * total, err


# QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, 1983),
# dqagse and dqagie with their rules dqk21 and dqk15i, in numpy: each rule
# application is one call of the integrand on the nodes of the intervals it
# sums.  The bookkeeping keeps QUADPACK's 1-based numbering (slot 0 of each
# list is unused), so every step can be read against the Fortran.
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
_OFLOW = float(np.finfo(float).max)
_LIMIT = 400  # subintervals per piece
_LIMEXP = 50  # entries of the epsilon table


def _gauss_kronrod(abscissae, kronrod, gauss):
    """The nodes on [-1, 1] of a Gauss-Kronrod rule, from its abscissae in
    descending order (the last being the centre 0), and its weights, one
    column Kronrod and one Gauss (0 at the Kronrod-only nodes)."""
    xs = np.asarray(abscissae)
    weights = np.array([kronrod, gauss]).T
    return np.r_[-xs[:-1], xs[::-1]], np.r_[weights[:-1], weights[::-1]]


# G10/K21: the 21-point Kronrod extension of 10-point Gauss-Legendre
_K21_NODES, _K21_WEIGHTS = _gauss_kronrod(
    [0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
     0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
     0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
     0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
     0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0],
    [0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
     0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
     0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
     0.123491976262065851077208292238880, 0.134709217311473325928054001771707,
     0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
     0.149445554002916905664936468389821],
    [0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
     0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
     0.0, 0.295524224714752870173892994651338, 0.0],
)
# G7/K15, the rule of QAGI
_K15_NODES, _K15_WEIGHTS = _gauss_kronrod(
    [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
     0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
     0.207784955007898467600689403773245, 0.0],
    [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
     0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
     0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
     0.204432940075298892414161999234649, 0.209482141084727828012999174891714],
    [0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
     0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327],
)


def _nodes(lo, hi, nodes):
    """The half-lengths of the intervals [lo[i], hi[i]] and the rule's
    nodes in each (one row per interval)."""
    half = [0.5 * (b - a) for a, b in zip(lo, hi)]
    centre = [0.5 * (a + b) for a, b in zip(lo, hi)]
    return half, np.array(centre)[:, None] + np.multiply.outer(half, nodes)


def _kronrod_sums(values, half, weights):
    """dqk21's and dqk15i's sums for each interval: values holds the
    integrand at the rule's nodes (one row per interval) and half each
    half-length.  Returns the lists (integral, error estimate, integral of
    |f|, integral of |f - its mean|)."""
    sums = values @ weights
    dev = np.abs(np.concatenate([values, values - 0.5 * sums[:, :1]])) @ weights[:, 0]
    out = []
    for (resk, resg), resabs, resasc, h in zip(sums.tolist(), dev[:len(half)].tolist(), dev[len(half):].tolist(), half):
        resabs, resasc = resabs * abs(h), resasc * abs(h)
        abserr = abs((resk - resg) * h)
        if resasc != 0.0 and abserr != 0.0:
            # min(1, r^1.5) as min(1, r)^1.5, which cannot overflow
            abserr = resasc * min(1.0, 200.0 * abserr / resasc) ** 1.5
        if resabs > _UFLOW / (50.0 * _EPMACH):
            abserr = max(50.0 * _EPMACH * resabs, abserr)
        out.append((resk * h, abserr, resabs, resasc))
    return tuple(zip(*out))


def _kronrod21(fn, lo, hi):
    """dqk21 on the intervals [lo[i], hi[i]]: one call of fn on all nodes."""
    half, x = _nodes(lo, hi, _K21_NODES)
    values = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    return _kronrod_sums(values, half, _K21_WEIGHTS)


def _kronrod15_inf(fn, bound, inf, lo, hi):
    """dqk15i on the intervals [lo[i], hi[i]] of (0, 1]: the 15-point rule
    on f(bound + s (1 - t) / t) / t^2, s = -1 for inf = -1, else 1, plus
    the mirror image f(-x) for inf = 2 (bound 0)."""
    half, t = _nodes(lo, hi, _K15_NODES)
    x = (bound + min(1, inf) * (1.0 - t) / t).ravel()
    if inf == 2:
        x = np.concatenate([x, -x])
    values = np.asarray(fn(x), dtype=float)
    if inf == 2:
        values = values[:t.size] + values[t.size:]
    values = (values.reshape(t.shape) / t) / t
    return _kronrod_sums(values, half, _K15_WEIGHTS)


def _qags(rule, a, b, epsabs, epsrel):
    """dqagse (dqagie when rule is _kronrod15_inf on [0, 1]): globally
    adaptive bisection of the interval with the largest error estimate,
    with Wynn's epsilon algorithm (dqelg) extrapolating the sequence of
    area sums once the small intervals dominate.  Returns (result, abserr);
    ier, QUADPACK's failure code, steers the choice of the result only."""
    # as dqagse names them: defabs integrates |f|, resabs |f - its mean|
    (result,), (abserr,), (defabs,), (resabs,) = rule([a], [b])
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        return result, abserr  # roundoff at the first application
    if (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr
    alist, blist = [0.0, a] + [0.0] * _LIMIT, [0.0, b] + [0.0] * _LIMIT
    rlist, elist = [0.0, result] + [0.0] * _LIMIT, [0.0, abserr] + [0.0] * _LIMIT
    iord = [0, 1] + [0] * _LIMIT
    rlist2, res3la = [0.0] * (_LIMEXP + 3), [0.0] * 4
    rlist2[1] = result
    errmax, maxerr, area, errsum = abserr, 1, result, abserr
    abserr = _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    ier = ierro = iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    for last in range(2, _LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b2 = alist[maxerr], blist[maxerr]
        b1 = 0.5 * (a1 + b2)
        a2 = b1
        erlast = errmax
        (area1, area2), (error1, error2), _, (defab1, defab2) = rule([a1, a2], [b1, b2])
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        # roundoff (ier 2, 3), the limit (1), an interval too small to halve (4)
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == _LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last], blist[last] = a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last] = a2
            blist[maxerr], blist[last] = b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _sum(rlist, last), errsum
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg, ertest = errsum, errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # test whether the interval to be bisected next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # bisect the large intervals before extrapolating again
            jupbnd = _LIMIT + 3 - last if last > 2 + _LIMIT // 2 else last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr, result, correc = abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum
    # the extrapolated result, unless the plain sum is the better one
    if abserr == _OFLOW:
        return _sum(rlist, last), errsum
    if ier + ierro != 0:
        if ierro == 3:
            abserr += correc
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _sum(rlist, last), errsum
        elif abserr > errsum:
            return _sum(rlist, last), errsum
    return result, abserr


def _sum(rlist, last):
    """The area of the last subintervals, summed in QUADPACK's order."""
    total = 0.0
    for k in range(1, last + 1):
        total += rlist[k]
    return total


def _qpsrt(last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord, the subintervals by decreasing error estimate
    (all of them while at most _LIMIT / 2 + 2 exist, fewer as the last
    bisections near), after interval maxerr was halved into maxerr and
    last.  Returns the next interval to bisect, its error and nrmax."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        # a halving that raised the error moves maxerr up the list
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = _LIMIT + 3 - last if last > _LIMIT // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax here, then errmin from the bottom up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of Wynn's epsilon algorithm on the table epstab[1:n
    + 1] of area sums, whose last entry is the newest.  Returns the new
    table length, the extrapolated limit, its error estimate (from the
    last three limits) and the count of calls."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        k2, k3 = k1 - 1, k1 - 2
        res = epstab[k1 + 2]
        e0, e1, e2 = epstab[k3], epstab[k2], res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two entries too close: drop the rest of the table
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if abs(ss * e1) <= 1e-4:
            n = i + i - 1  # irregular behaviour: drop the rest of the table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error <= abserr:
            abserr, result = error, res
    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


@functools.lru_cache(maxsize=None)
def gauss_jacobi(n: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss rule on [0, 1]
    with weight u^gamma, gamma > -1: the rule integrates u^gamma times a
    polynomial of degree 2n - 1 exactly, so the power-law factor of an
    integrand is taken analytically, not sampled.  Golub & Welsch (Math.
    Comp. 23, 1969): the nodes are the eigenvalues of the Jacobi matrix
    of the shifted Jacobi polynomials P_k^(0, gamma)(2u - 1), and each
    weight is 1 / (gamma + 1) times the squared first component of its
    eigenvector.  Against 40-digit integrals of smooth factors the
    20-point rule is within 4e-15 relative for gamma = -0.7 to 2.  The
    arrays are read-only (cached)."""
    if not gamma > -1.0:
        raise ValueError(f"the Jacobi weight u^gamma needs gamma > -1, got {gamma}")
    k = np.arange(n, dtype=float)
    s = 2.0 * k + gamma  # 2k + alpha + beta on [-1, 1], alpha = 0 and beta = gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = gamma * gamma / (s * (s + 2.0))
    diag[0] = gamma / (gamma + 2.0)
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * k * (k + gamma) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    # u = (1 + x) / 2 halves the matrix and shifts its diagonal
    matrix = np.diag(0.5 * (1.0 + diag)) + np.diag(0.5 * off, 1) + np.diag(0.5 * off, -1)
    nodes, vectors = np.linalg.eigh(matrix)
    weights = vectors[0] ** 2 / (gamma + 1.0)
    for arr in (nodes, weights):
        arr.flags.writeable = False
    return nodes, weights


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


def _hyp_u_de(a: float, x: np.ndarray):
    """U(a, 1/2, x) and dU/dx for a > 0 and x > 0 by one fixed rule for
    every x.

    With t = tau/(1+x), U = (1+x)^-a / Gamma(a) int_0^inf e^(-x tau/(1+x))
    tau^(a-1) (1 + tau/(1+x))^(-a-1/2) dtau, whose integrand has its bulk
    at tau of order 1 for every x.  The substitution tau = exp(pi/2
    sinh sigma) makes it decay double-exponentially in sigma; the
    trapezoid rule runs from tau^a = e^-745 to log tau = 709.  dU/dx is
    minus the same integral with the extra factor t, from the same
    exponentials; its bulk moves out to t ~ 1/x as x falls (see
    hyp_u_with_slope).
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
    moment = np.empty(flat.shape)
    rows = max(1, _DE_CELLS // sigma.size)
    for i in range(0, flat.size, rows):
        xb = flat[i:i + rows, None]
        expo = log_w - (xb / (1.0 + xb)) * tau - (a + 0.5) * np.log1p(tau / (1.0 + xb))
        terms = np.exp(expo)
        out[i:i + rows] = terms.sum(axis=1)
        moment[i:i + rows] = terms @ tau
    scale = _DE_STEP * np.exp(-a * np.log1p(flat) - _sp.gammaln(a))
    return (out * scale).reshape(x.shape), (-moment * scale / (1.0 + flat)).reshape(x.shape)


def hyp_u_with_slope(a: float, b: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Confluent hypergeometric U(a, b, x) and dU/dx on the validated
    slice, from one evaluation of the rule.

    b = 1/2, a in {-1/2} U [0, 19], x > 0.  a = 0 and a = -1/2 are the
    closed forms 1 and sqrt(x); a > 0 is one double-exponential trapezoid
    rule over the integral representation, evaluated for all finite x at
    once (see _hyp_u_de), and U = dU/dx = 0 at x = inf; NaN gives NaN on
    every branch.  Against 40-digit mpmath U is within 2.3e-14 relative
    for a in [1e-3, 19] and x in [1e-300, 1e7] (the tests hold it to
    1e-12).  dU/dx = -a U(a + 1, b + 1, x) grows like x^(-1/2) at 0; it is
    within 2.3e-14 relative for x in [1e-4, 1e7], but only 2e-7 at x =
    1e-12: near 0 a caller takes the limit of what it needs instead.
    Anything else raises: accuracy is only certified there.
    """
    if b != _HYP_U_B:
        raise ValueError(f"hyp_u validated only for b = {_HYP_U_B}, got b={b}")
    if not (a == -0.5 or 0.0 <= a <= 19.0):
        raise ValueError(f"hyp_u validated only for a in {{-1/2}} U [0, 19], got a={a}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise ValueError("hyp_u requires x > 0")
    if a == 0.0:
        u = np.where(np.isnan(x_arr), np.nan, 1.0)
        return u, 0.0 * u
    if a == -0.5:
        root = np.sqrt(x_arr)
        return root, 0.5 / root
    # U and dU/dx vanish at infinity, where the rule's x / (1 + x) is NaN
    far = x_arr == math.inf
    u, slope = np.zeros_like(x_arr), np.zeros_like(x_arr)
    u[~far], slope[~far] = _hyp_u_de(a, x_arr[~far])
    return u, slope


def hyp_u(a: float, b: float, x) -> float:
    """U(a, b, x) as hyp_u_with_slope gives it: a float for a scalar x."""
    out = hyp_u_with_slope(a, b, x)[0]
    return float(out) if np.ndim(out) == 0 else out


class Hermite:
    """The piecewise cubic Hermite interpolant of a function from its
    values and first derivatives at the nodes x.  Interval i carries its
    polynomial in t = (y - x_i) / (x_(i+1) - x_i); building it takes no
    linear solve, and the caller names each point's interval, so no
    search runs."""

    def __init__(self, x, values, slopes):
        self.x = x = np.asarray(x, dtype=float)
        self.width = h = np.diff(x)
        p0, p1 = values[:-1], values[1:]
        m0, m1 = h * slopes[:-1], h * slopes[1:]
        jump = p1 - p0
        self.coeffs = np.stack([p0, m0, 3.0 * jump - 2.0 * m0 - m1, m0 + m1 - 2.0 * jump])

    def at(self, y, i):
        """The interpolant at y by the polynomial of interval i, an index
        array that broadcasts against y (a column gives each row of y one
        interval); past the end nodes the end intervals' polynomials
        continue."""
        return taylor_step(self.coeffs, i, (y - self.x[i]) / self.width[i])


def taylor_step(coeffs, near, t):
    """The polynomial sum_k coeffs[k][near] t^k, by Horner one coefficient
    row at a time (no (degree, points) temporary).  coeffs holds one array
    per power of t, over the anchors (or intervals) a series is taken
    about; near indexes each point's own, and broadcasts against t."""
    series = np.zeros_like(t)
    for c in coeffs[::-1]:
        series *= t
        series += c[near]
    return series


def taylor_slope(coeffs, near, t):
    """d/dt of taylor_step(coeffs, near, t): the same Horner on the
    coefficients k coeffs[k]."""
    return taylor_step([k * c for k, c in enumerate(coeffs)][1:], near, t)


def norm_pdf(x):
    x_arr = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x_arr * x_arr) / SQRT_2PI
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def norm_cdf(x):
    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def mills_ratio(x):
    """(1 - Phi(x)) / phi(x) through erfcx: accurate arbitrarily far into
    the right tail (overflows to inf deep in the left tail)."""
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        out = SQRT_PI_OVER_2 * _sp.erfcx(x_arr / math.sqrt(2.0))
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out

