"""Self-refining trapezoidal quadrature for even, fast-decaying integrands.

For an integrand analytic on the strip |Im x| < d around the real line
with super-polynomial decay, the trapezoidal rule with step h is off by
O(exp(-2 pi d / h)) (Trefethen & Weideman, "The exponentially convergent
trapezoidal rule", SIAM Rev. 56 (2014), Thm 5.1).  The step is halved,
reusing previous nodes, until either two successive estimates agree to
the tolerance or, once their differences shrink at the rate d predicts,
the error that rate gives the finer estimate is below a tenth of the
tolerance.  The caller states d as the distance to the integrand's
nearest pole.  The full-line integral of an even function is evaluated
as twice the [0, L] rule.
"""

from __future__ import annotations

from typing import Callable

import mpmath as mp

from .errors import DomainError, PrecisionError


#: trapezoid points on [0, L] before the first halving
INITIAL_POINTS = 64
#: largest cutoff L tried, in steps of 8
MAX_L = 256
#: step halvings before the refinement budget is exhausted
MAX_DOUBLINGS = 16


def self_refining_integral(f: Callable[[mp.mpf], mp.mpf], tolerance, strip) -> mp.mpf:
    """Integrate an even integrand over the whole real line.

    ``strip`` is the half-width d of the strip |Im x| < d on which ``f``
    is analytic, that is the distance from the real line to its nearest
    pole; DomainError if it is not positive.

    The cutoff L grows until |f(L)| < tolerance * 1e-5; the step h is then
    halved, reusing previous nodes and f(0), until one of two stops holds:

    - difference stop: |T(h) - T(2h)| < tolerance;
    - strip stop: |T(h) - T(2h)| exp(-pi d / h) < tolerance / 10.  The
      difference estimates the error of T(2h), and the error shrinks by
      exp(-pi d / h) from step 2h to step h (Trefethen-Weideman Thm 5.1).
      The stop is taken only when the rate guard holds: the last two
      differences shrank by a ratio of at most 10 exp(-pi d / (2h)), ten
      times the ratio d predicts for them.  Where they shrink more slowly
      (an overstated strip, or rounding noise), only the difference stop
      applies.

    Computes at mpmath's context precision.  Raises PrecisionError, with
    the last two estimates attached, if the refinement budget is exhausted.
    """
    tolerance = mp.mpf(tolerance)
    strip = mp.mpf(strip)
    if not strip > 0:
        raise DomainError(f"strip half-width must be positive, got {strip}")
    L = 8
    while abs(f(mp.mpf(L))) >= tolerance * mp.mpf(10) ** -5:
        L += 8
        if L > MAX_L:
            raise PrecisionError(
                f"integrand does not decay below {tolerance}*1e-5 by |x| = {MAX_L}",
                diagnostics={"last_value": f(mp.mpf(L - 8))},
            )
    n = INITIAL_POINTS
    h = mp.mpf(L) / n
    # interior sum of f on (0, L]; f(0)/2 enters the trapezoid weightings
    total = mp.fsum(f(k * h) for k in range(1, n + 1))
    half_f0 = f(mp.mpf(0)) / 2
    estimate = refined = 2 * h * (half_f0 + total)
    difference = None
    for _ in range(MAX_DOUBLINGS):
        h /= 2
        n *= 2
        total += mp.fsum(f(k * h) for k in range(1, n + 1, 2))
        refined = 2 * h * (half_f0 + total)
        previous, difference = difference, abs(refined - estimate)
        if difference < tolerance:
            return refined
        if (
            previous is not None
            and difference <= 10 * previous * mp.exp(-mp.pi * strip / (2 * h))
            and difference * mp.exp(-mp.pi * strip / h) < tolerance / 10
        ):
            return refined
        estimate = refined
    raise PrecisionError(
        f"no convergence to {tolerance} within {MAX_DOUBLINGS} step halvings",
        diagnostics={"last_two": (estimate, refined)},
    )
