"""Scalar coefficients: exact rationals throughout.

Every criterion in this package is ultimately a zero test (or sign test) of
some determinant, so all arithmetic is exact and zero tests are literal.
A jet holds integer numerators over one shared denominator (`jets.Jet2`);
every scalar read out of a jet, and every scalar in a certificate, is a
`fractions.Fraction`.  The vectors at the origin that the frame guards,
solves and criteria use are read as integers over a positive scaling
(`jets.scaled_coeffs`), so `ZeroCtx` tests ints as often as Fractions;
either way the test is exact.  The one irrational input the package accepts, a
folding angle given as a float, is read as an exact rational point on the
unit circle (`applications._theta_pair`) before any jet is built, so no
float reaches the arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError

Scalar = Fraction


def as_exact(value) -> Fraction:
    """Coerce an int/Fraction to Fraction; reject floats."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("float coefficient %r: coefficients must be exact" % value)
    return Fraction(value)


def exact_table(table, lo, hi, label) -> dict:
    """The nonzero entries of a coefficient table keyed (i, j), each made exact.

    Rejects a key outside degree lo..hi, and a float value (`as_exact`).
    """
    out = {}
    for (i, j), c in table.items():
        if not lo <= i + j <= hi:
            raise PreconditionError("%s index (%d,%d) outside degree %d..%d"
                                    % (label, i, j, lo, hi))
        c = as_exact(c)
        if c:
            out[(i, j)] = c
    return out


class ZeroCtx:
    """Zero and sign tests of exact scalars; the one place they are made."""

    __slots__ = ()

    def is_zero(self, x: Scalar) -> bool:
        return x == 0

    def is_zero_vec(self, xs) -> bool:
        return all(self.is_zero(x) for x in xs)

    def sign(self, x: Scalar) -> int:
        if self.is_zero(x):
            return 0
        return 1 if x > 0 else -1


EXACT = ZeroCtx()


def fmt_scalar(x: Scalar) -> str:
    """Print a scalar exactly, as `p/q` (or an integer).

    Python refuses to print an integer longer than its digit limit; such
    a value is reported as an input error rather than a traceback.
    """
    try:
        return str(x)
    except ValueError:
        raise PreconditionError("exact value has too many digits to print")
