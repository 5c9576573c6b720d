"""Scalar coefficients: exact rationals throughout.

Every criterion in this package is ultimately a zero test (or sign test) of
some determinant, so all arithmetic is exact and zero tests are literal:
each is written where it is made, as `x == 0`, `x != 0`, `any(v)` or
`sign(x)`.  A jet holds integer numerators over one shared denominator
(`jets.Jet2`); every scalar read out of a jet, and every scalar in a
certificate, is a `fractions.Fraction`.  The vectors at the origin that the
frame guards, solves and criteria use are read as integers over a positive
scaling (`jets.scaled_coeffs`), so those tests see ints as often as
Fractions; either way the test is exact.  The one irrational input the
package accepts, a folding angle given as a float, is read as an exact
rational point on the unit circle (`applications._theta_pair`) before any
jet is built, so no float reaches the arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError


def as_exact(value) -> Fraction:
    """Coerce an int/Fraction to Fraction; reject floats."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("float coefficient %r: coefficients must be exact" % value)
    return Fraction(value)


def is_exponent_pair(key, n: int) -> bool:
    """Whether key is the exponent tuple of a monomial in n variables, (i, j) for
    u^i v^j when n = 2: a tuple of n non-negative ints, not bools."""
    if type(key) is not tuple or len(key) != n:
        return False
    for e in key:
        if type(e) is not int or e < 0:
            return False
    return True


def exact_table(table, lo, hi, label) -> dict:
    """The nonzero entries of a coefficient table keyed (i, j), each made exact.

    Rejects a key that is not an exponent pair (as `Jet2` does), a key
    outside degree lo..hi, and a float value (`as_exact`).
    """
    out = {}
    for key, c in table.items():
        if not is_exponent_pair(key, 2):
            raise PreconditionError("%s index %r is not a pair of non-negative ints"
                                    % (label, key))
        i, j = key
        if not lo <= i + j <= hi:
            raise PreconditionError("%s index (%d,%d) outside degree %d..%d"
                                    % (label, i, j, lo, hi))
        c = as_exact(c)
        if c:
            out[(i, j)] = c
    return out


def sign(x) -> int:
    """-1, 0 or 1 as the exact scalar x is negative, zero or positive."""
    return (x > 0) - (x < 0)


class ZeroCtx:
    """Unused: perfbench's tracer wraps these two methods by name, so it goes with those rows."""

    __slots__ = ()

    def is_zero(self, x: Fraction) -> bool:
        return x == 0

    def sign(self, x: Fraction) -> int:
        if self.is_zero(x):
            return 0
        return 1 if x > 0 else -1


def fmt_scalar(x: Fraction) -> str:
    """Print a scalar exactly, as `p/q` (or an integer).

    Python refuses to print an integer longer than its digit limit; such
    a value is reported as an input error rather than a traceback.
    """
    try:
        return str(x)
    except ValueError:
        raise PreconditionError("exact value has too many digits to print")
