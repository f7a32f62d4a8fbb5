"""The operator algebra derived by catalog._pearson.

With tau(x) = q2 x^2 + q1 x + q0 and level-k operator L_k f = tau f' +
A_k f, differentiating gives d/dx[L_k f] = tau f'' + (tau' + A_k) f' +
A_k' f.  Matching coefficients of f'', f' and f against L_{k+1} f' - T_k f
is a polynomial identity in x: tau is the same at every level,
A_{k+1} = tau' + A_k and T_k = -A_k'.  The right-hand-side coefficients
then obey c_{k+1} = c_k + T_k (c_0 = 0), and the chain weights are
a(j) = |c_{j+1}|.

Parameters are multiples of 1/8, so every value below is computed exactly
and the identities hold with ==.  tau and A_k have degree <= 2, so their
derivatives are the exact central differences (g(x+1) - g(x-1)) / 2, and
an identity that holds at five points holds for every x.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from steinbounds.catalog import _pearson

EIGHTHS = st.integers(-400, 400).map(lambda n: n / 8.0)
XS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
MAX_LEVEL = 6


def _d(g, x):
    return (g(x + 1.0) - g(x - 1.0)) / 2.0


@given(q2=EIGHTHS, q1=EIGHTHS, q0=EIGHTHS, b0=EIGHTHS, m=EIGHTHS)
def test_differentiating_level_k_gives_level_k_plus_one(q2, q1, q0, b0, m):
    a, fields = _pearson(q2, q1, q0, b0, m)
    op, t, rhs = fields["op_coeffs"], fields["t_coeffs"], fields["rhs_terms"]
    _, tau, drift = op(0)
    assert np.array_equal(tau(XS), q2 * XS * XS + q1 * XS + q0)
    assert np.array_equal(drift(XS), b0 - m * XS)

    c = 0.0
    for k in range(MAX_LEVEL + 1):
        a2, tau_k, a_k = op(k)
        a2_next, tau_next, a_next = op(k + 1)
        t0, t1 = t(k)
        assert a2 is None and a2_next is None
        assert np.array_equal(tau_next(XS), tau_k(XS))  # f''
        assert np.array_equal(a_next(XS), _d(tau_k, XS) + a_k(XS))  # f'
        assert np.array_equal(t0(XS), -_d(a_k, XS))  # f
        assert np.array_equal(t1(XS), np.zeros_like(XS))
        [(offset, c_next)] = rhs(k + 1)
        assert offset == -1
        c_next = float(c_next(0.0))
        assert c_next == c + float(t0(0.0))
        assert a(k) == abs(c_next)
        c = c_next
