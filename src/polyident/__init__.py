"""polyident: exact and high-precision verification of orthogonal-polynomial identities.

The exact side (rationals, polynomials, the surd quotient ring, Racah
machinery, dual addition formulas, Hermite limits) proves identities by
canonical-form equality; the continuous side (Jacobi/Gegenbauer functions,
Wilson polynomials, gamma-weight quadrature) checks integral identities to
a configured number of decimal digits.  The `polyident` command line runs
the bundled verification suites and emits structured reports.
"""

from .errors import (
    ConfigError,
    DegenerateParameterError,
    DomainError,
    IdentityViolationError,
    PolyidentError,
    PrecisionError,
)
from .exact import (
    Rational,
    SurdPoly,
    UniPoly,
    format_rational,
    parse_rational,
    poch_quotient,
    pochhammer,
    terminating_hyp,
)

__all__ = [
    "ConfigError",
    "DegenerateParameterError",
    "DomainError",
    "IdentityViolationError",
    "PolyidentError",
    "PrecisionError",
    "Rational",
    "SurdPoly",
    "UniPoly",
    "format_rational",
    "parse_rational",
    "poch_quotient",
    "pochhammer",
    "terminating_hyp",
]

__version__ = "0.1.0"
