"""Evaluation of surd-ring elements at rational points, for the tests.

Sampling both sides of a ring identity at points on the circles
u^2 = 1 - x^2 and v^2 = 1 - y^2 is an oracle that does not rest on the
ring's canonical form.
"""

from fractions import Fraction
from typing import Mapping

from polyident.errors import RelationViolationError
from polyident.exact import SURD_VARS, SurdPoly


def substitute(p: SurdPoly, bindings: Mapping[str, Fraction | int]) -> Fraction:
    """Exact value of ``p`` at a point satisfying the quotient relations.

    ``bindings`` must assign every variable appearing in ``p``; whenever
    (x, u) or (y, v) are both bound, u^2 = 1 - x^2 and v^2 = 1 - y^2 are
    required exactly.
    """
    vals = {k: Fraction(v) for k, v in bindings.items()}
    for sq, base in (("u", "x"), ("v", "y")):
        if sq in vals and base in vals:
            if vals[sq] ** 2 != 1 - vals[base] ** 2:
                raise RelationViolationError(
                    f"{sq}^2 != 1 - {base}^2 for {sq}={vals[sq]}, {base}={vals[base]}"
                )
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        term = coeff
        for exp, name in zip(mono, SURD_VARS):
            if exp == 0:
                continue
            if name not in vals:
                raise RelationViolationError(f"no binding for variable {name!r}")
            term *= vals[name] ** exp
        total += term
    return total
