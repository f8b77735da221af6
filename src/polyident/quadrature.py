"""Self-refining trapezoidal quadrature for even, fast-decaying integrands.

The full-line integral of an even f is taken in the variable s of
x = sinh s, as 2 int_0^inf g(s) ds with g(s) = f(sinh s) cosh s.  An f
that decays like exp(-c|x|) gives a g that decays like exp(-c e^s / 2):
the substitution turns single-exponential decay into double-exponential
decay, so the cutoff in s is a few units where the one in x would be
tens (Takahasi & Mori, "Double exponential formulas for numerical
integration", Publ. RIMS 9 (1974); Mori & Sugihara, "The double-
exponential transformation in numerical analysis", J. Comput. Appl.
Math. 127 (2001)).

For an integrand analytic on the strip |Im s| < d with super-polynomial
decay, the trapezoidal rule with step h is off by O(exp(-2 pi d / h))
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Rev. 56 (2014), Thm 5.1).  The caller states the integrand's poles
in x as one corner ``pole`` = X + i d: X the largest |Re| and d the
smallest |Im| of its poles.  A pole x0 lies at s = asinh(x0), and
Im asinh(X + i d) falls as X grows and rises as d grows, so that corner
bounds the mapped strip: d_s = Im asinh(pole).  The step is halved on
one fixed dyadic ladder, reusing previous nodes, until either two
successive estimates agree to the tolerance or, once their differences
shrink at the rate d_s predicts, the error that rate gives the finer
estimate is below STRIP_STOP_SHARE of the tolerance.
"""

from __future__ import annotations

import math
from typing import Callable

import mpmath as mp

from .errors import DomainError, PrecisionError


#: points per unit of s on the first level, whose step 1/POINTS_PER_UNIT
#: every integral halves: integrals at one precision share their nodes,
#: whatever their cutoffs
POINTS_PER_UNIT = 4
#: largest cutoff S tried, in unit steps: the last with |x| = sinh S <= 256
MAX_S = int(math.asinh(256))
#: step halvings before the refinement budget is exhausted
MAX_DOUBLINGS = 16
#: the strip stop returns once the predicted error is below this share of
#: the tolerance: on the continuous suite's integrals at 46 to 100 digits,
#: the error at a level whose rate guard held was up to 8.1 times its
#: prediction, and at a share of 1/10 eq13 keeps under four digits of margin
STRIP_STOP_SHARE = mp.mpf(1) / 100


def self_refining_integral(f: Callable[[mp.mpf], mp.mpf], tolerance, pole) -> mp.mpf:
    """Integrate an even integrand over the whole real line.

    ``pole`` is X + i d, where X is the largest |Re| and d the smallest
    |Im| of the poles of ``f``; an entire ``f`` may state any corner, since
    the rate guard below keeps an overstated strip from stopping early.
    The integral is taken in s, x = sinh s, on the strip of half-width
    d_s = Im asinh(pole); DomainError if that is not positive.

    The cutoff S is the first integer with |f(sinh S) cosh S| <
    tolerance * 1e-5.  The step h starts at 1/POINTS_PER_UNIT (4S points
    on (0, S]) and is halved, reusing previous nodes and f(0), until one of
    two stops holds:

    - difference stop: |T(h) - T(2h)| < tolerance;
    - strip stop: |T(h) - T(2h)| exp(-pi d_s / h) < STRIP_STOP_SHARE *
      tolerance.  The difference estimates the error of T(2h), and the
      error shrinks by exp(-pi d_s / h) from step 2h to step h
      (Trefethen-Weideman Thm 5.1).  The stop is taken only when the rate
      guard holds: the last two differences shrank by a ratio of at most
      10 exp(-pi d_s / (2h)), ten times the ratio d_s predicts for them.
      Where they shrink more slowly (an overstated strip, or rounding
      noise), only the difference stop applies.

    Computes at mpmath's context precision.  Raises PrecisionError, with
    the last two estimates attached, if the refinement budget is exhausted.
    """
    tolerance = mp.mpf(tolerance)
    strip = mp.im(mp.asinh(mp.mpc(pole)))
    if not strip > 0:
        raise DomainError(f"pole {pole} maps to a strip of half-width {strip}, not positive")

    def g(s):
        return f(mp.sinh(s)) * mp.cosh(s)

    # the probes at integer s are nodes of the first level, kept for its sum
    probes = [g(mp.mpf(1))]
    while abs(probes[-1]) >= tolerance * mp.mpf(10) ** -5:
        if len(probes) == MAX_S:
            raise PrecisionError(
                f"integrand does not decay below {tolerance}*1e-5 by s = {MAX_S}"
            )
        probes.append(g(mp.mpf(len(probes) + 1)))
    h = mp.mpf(1) / POINTS_PER_UNIT
    n = len(probes) * POINTS_PER_UNIT
    # interior sum of g on (0, S]; g(0)/2 enters the trapezoid weightings
    total = mp.fsum(probes) + mp.fsum(
        g(k * h) for k in range(1, n + 1) if k % POINTS_PER_UNIT
    )
    half_g0 = f(mp.mpf(0)) / 2  # cosh 0 = 1
    estimate = refined = 2 * h * (half_g0 + total)
    difference = None
    for _ in range(MAX_DOUBLINGS):
        h /= 2
        n *= 2
        total += mp.fsum(g(k * h) for k in range(1, n + 1, 2))
        refined = 2 * h * (half_g0 + total)
        previous, difference = difference, abs(refined - estimate)
        if difference < tolerance:
            return refined
        if (
            previous is not None
            and difference <= 10 * previous * mp.exp(-mp.pi * strip / (2 * h))
            and difference * mp.exp(-mp.pi * strip / h) < STRIP_STOP_SHARE * tolerance
        ):
            return refined
        estimate = refined
    raise PrecisionError(f"no convergence to {tolerance} within {MAX_DOUBLINGS} step halvings")
