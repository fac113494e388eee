"""Sparse multivariate polynomials over Q, their packed keys and their text form.

A polynomial is stored as integer numerators over one common denominator:
a dict mapping packed exponent keys to nonzero ints, plus a positive int,
in lowest terms (the gcd of the denominator and every numerator is 1, and
the zero polynomial has denominator 1).  A rational scalar is read as the
int pair (numerator, denominator) of any value that has them, so an int or
a fractions.Fraction; a float has neither and raises TypeError.  No
arithmetic here builds a Fraction.  Every polynomial lives in one fixed
variable universe:

  VARIABLES = (t, r, R, c1, c2, c3, h, s, u, a1, a2, a3, x, y)

h is the hyperplane class: a Chow-ring class on P^n is a polynomial in h
reduced mod h^(n+1) (see chow.truncate).

A monomial key is one int (the packed exponent vectors of Monagan and
Pearce): one FIELD_BITS-wide field per variable in the order above, t the
most significant, and the total degree in one more field above them all.
So the key of a product of monomials is the sum of their keys, and plain
int order is graded lexicographic order: higher total degree first, then
lexicographic on the exponents in the order above.  Every stored field,
the degree field included, stays below EXPONENT_LIMIT = 2^15: pack rejects
larger exponents with ValueError and a product whose total degree would
reach the limit raises EngineError, so two fields never add into a carry.
Exponent tuples appear only at the edges: the constructor packs them and
format_poly unpacks them.  Integer consumers of numerators() read one
field of a key with exponent().
All values are immutable after construction and safe to share.

format_poly prints the text form of the reports, e.g.
``(1/2)*t^2 + (3/2)*t + 1``; multistruct.grammar.parse_poly reads it back.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Protocol, Tuple

from . import EngineError, _kernels

Exponent = Tuple[int, ...]


class Scalar(Protocol):
    """An exact rational: an int, a fractions.Fraction, or any value with these."""

    numerator: int
    denominator: int

VARIABLES = ("t", "r", "R", "c1", "c2", "c3", "h", "s", "u", "a1", "a2", "a3", "x", "y")
NVARS = len(VARIABLES)

FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_MASK = (1 << FIELD_BITS) - 1
_SHIFT = {name: FIELD_BITS * (NVARS - 1 - i) for i, name in enumerate(VARIABLES)}
_DEGREE_SHIFT = FIELD_BITS * NVARS
_DEGREE_ONE = 1 << _DEGREE_SHIFT
_DEGREE_CAP = EXPONENT_LIMIT << _DEGREE_SHIFT


def pack(exp: Exponent) -> int:
    """The key of an exponent tuple; ValueError unless every field fits."""
    if len(exp) != NVARS:
        raise ValueError(f"exponent tuple of length {len(exp)}, expected {NVARS}")
    key = 0
    for e in exp:
        if not 0 <= e < EXPONENT_LIMIT:
            raise ValueError(f"exponent {e} outside 0..{EXPONENT_LIMIT - 1}")
        key = key << FIELD_BITS | e
    degree = sum(exp)
    if degree >= EXPONENT_LIMIT:
        raise ValueError(f"total degree {degree} outside 0..{EXPONENT_LIMIT - 1}")
    return degree << _DEGREE_SHIFT | key


def unpack(key: int) -> Exponent:
    """The exponent tuple of a key, in VARIABLES order."""
    return tuple(key >> shift & _MASK for shift in _SHIFT.values())


def exponent(key: int, name: str) -> int:
    """The exponent of one variable in a key."""
    return key >> _SHIFT[name] & _MASK


def _rational(value) -> tuple[int, int] | None:
    """(numerator, denominator > 0) of an exact rational scalar, or None."""
    if type(value) is int:
        return value, 1
    n = getattr(value, "numerator", None)
    d = getattr(value, "denominator", None)
    if not isinstance(n, int) or not isinstance(d, int) or not d:
        return None
    return (n, d) if d > 0 else (-n, -d)


def _pair(value: Scalar) -> tuple[int, int]:
    """(numerator, denominator > 0) of an exact rational scalar; TypeError otherwise."""
    pair = _rational(value)
    if pair is None:
        raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")
    return pair


class MultiPoly:
    """Sparse multivariate polynomial over the rationals.

    Stored as integer numerators over one common denominator: ``_num`` maps
    packed exponent keys (see the module docstring) to nonzero ints and
    ``_den`` is a positive int, kept in lowest terms (gcd of ``_den`` and
    every numerator is 1; the zero polynomial has ``_den == 1``).  The form is unique, so equality and
    hashing compare ints, and products go to the integer kernel as stored.
    Nothing writes ``_num`` or ``_den`` after construction, so the hash is
    computed on first use and kept in ``_hash``.

    Construct via the factory function ``var`` or the classmethods
    below; ``grammar.parse_poly`` reads the report text back.
    Arithmetic never mutates operands.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, terms: Mapping[Exponent, Scalar] | None = None):
        if not terms:
            self._num, self._den = {}, 1
            return
        monomials = []
        for exp, coeff in terms.items():
            key = pack(exp)
            n, d = _pair(coeff)
            monomials.append(MultiPoly._reduced({key: n} if n else {}, d))
        total = MultiPoly.sum(monomials)
        self._num, self._den = total._num, total._den

    @classmethod
    def _reduced(cls, num: dict, den: int) -> "MultiPoly":
        """Wrap nonzero int numerators over den > 0, dividing out their common factor."""
        if not num:
            den = 1
        elif den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {exp: c // g for exp, c in num.items()}
        res = cls.__new__(cls)
        res._num = num
        res._den = den
        return res

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        n, d = _pair(value)
        return cls._reduced({0: n} if n else {}, d)

    # -- inspection --------------------------------------------------------

    def numerators(self) -> tuple[dict[int, int], int]:
        """The stored form ({packed key: numerator}, denominator); the dict is read-only."""
        return self._num, self._den

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return not self._num or (len(self._num) == 1 and 0 in self._num)

    def constant_pair(self) -> tuple[int, int]:
        """(numerator, denominator) of a constant polynomial; error when non-constant."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._num.get(0, 0), self._den

    def degree(self, name: str | None = None) -> int:
        """Total degree, or the degree in one variable; zero poly has -1."""
        if not self._num:
            return -1
        if name is None:
            return max(self._num) >> _DEGREE_SHIFT
        shift = _SHIFT[name]
        return max(key >> shift & _MASK for key in self._num)

    def variables_used(self) -> tuple[str, ...]:
        used = 0
        for key in self._num:
            used |= key
        return tuple(name for name in VARIABLES if used >> _SHIFT[name] & _MASK)

    def coeff_of(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name**power, as a polynomial in the other variables."""
        shift = _SHIFT[name]
        drop = (power << shift) + (power << _DEGREE_SHIFT)
        out = {key - drop: c for key, c in self._num.items() if key >> shift & _MASK == power}
        return MultiPoly._reduced(out, self._den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den != other._den:
            return MultiPoly.sum((self, other))
        out = dict(self._num)
        for exp, c in other._num.items():
            c += out.get(exp, 0)
            if c:
                out[exp] = c
            else:
                del out[exp]
        return MultiPoly._reduced(out, self._den)

    __radd__ = __add__

    @staticmethod
    def sum(terms: Iterable["MultiPoly | Scalar"]) -> "MultiPoly":
        """The sum of polynomials and scalars, reduced once.

        Every numerator dict is scaled to the common denominator and merged
        into one dict, so no partial sum is built or reduced.
        """
        polys = [as_poly(p) for p in terms]
        den = math.lcm(*[p._den for p in polys])
        out: dict = {}
        get = out.get
        for p in polys:
            f = den // p._den
            for key, c in p._num.items():
                out[key] = get(key, 0) + c * f
        return MultiPoly._reduced({key: c for key, c in out.items() if c}, den)

    def __neg__(self) -> "MultiPoly":
        res = MultiPoly.__new__(MultiPoly)
        res._num = {exp: -c for exp, c in self._num.items()}
        res._den = self._den
        return res

    def __sub__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            pair = _rational(other)
            if pair is None:
                return NotImplemented
            n, d = pair
            if not n:
                return MultiPoly()
            return MultiPoly._reduced({exp: v * n for exp, v in self._num.items()}, self._den * d)
        if not self._num or not other._num:
            return MultiPoly()
        # Every stored field is below EXPONENT_LIMIT, so the two top keys add
        # without carry, and their sum reaches _DEGREE_CAP when the degree does.
        top = max(self._num) + max(other._num)
        if top >= _DEGREE_CAP:
            raise EngineError(
                f"product of total degree {top >> _DEGREE_SHIFT} exceeds {EXPONENT_LIMIT - 1}"
            )
        prod = _kernels.mul_int_dicts(self._num, other._num)
        return MultiPoly._reduced(prod, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        # Square-and-multiply from the first factor, so no product by one;
        # n == 0 alone leaves result unset.
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.const(1) if result is None else result

    def scalar_div(self, value: Scalar) -> "MultiPoly":
        """Exact division by a nonzero scalar; never builds rational functions."""
        n, d = _pair(value)
        if not n:
            raise ZeroDivisionError("scalar division by zero")
        if n < 0:
            n, d = -n, -d
        return MultiPoly._reduced({exp: v * d for exp, v in self._num.items()}, self._den * n)

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[str, "MultiPoly | Scalar"]) -> "MultiPoly":
        """Exact simultaneous substitution of polynomials or scalars for variables.

        Every value is read in the variables of self before any binding, so
        a polynomial value may name a variable that another binding replaces.
        A scalar value n/d (an int, a Fraction or a constant polynomial)
        stays in integers: a term holding the variable to the power e has
        its numerator multiplied by n**e * d**(top - e), with top the
        variable's degree in self, and its key loses e in the variable's
        field and in the degree field; the denominator gains d**top once.
        A polynomial value multiplies each term by its power, each power
        built once per call.
        """
        if not bindings:
            return self
        scalars = []  # (field shift, n, d, top) per scalar value
        polys = []  # (field shift, value) per polynomial value
        den = self._den
        for name, value in bindings.items():
            if name not in _SHIFT:
                raise ValueError(f"unknown variable {name!r}")
            value = as_poly(value)
            if value.is_constant():
                n, d = value.constant_pair()
                top = max(self.degree(name), 0) if d != 1 else 0
                den *= d**top
                scalars.append((_SHIFT[name], n, d, top))
            else:
                polys.append((_SHIFT[name], value))
        powers: dict = {}
        out: dict = {}
        pieces = []
        for key, c in self._num.items():
            for shift, n, d, top in scalars:
                e = key >> shift & _MASK
                key -= (e << shift) + (e << _DEGREE_SHIFT)
                c *= n**e
                if d != 1:
                    c *= d ** (top - e)
            factors = []
            for shift, value in polys:
                e = key >> shift & _MASK
                if e:
                    key -= (e << shift) + (e << _DEGREE_SHIFT)
                    if (shift, e) not in powers:
                        powers[shift, e] = value**e
                    factors.append(powers[shift, e])
            if not c:
                continue
            if factors:
                piece = MultiPoly._reduced({key: c}, den)
                for factor in factors:
                    piece = piece * factor
                pieces.append(piece)
            else:
                out[key] = out.get(key, 0) + c
        total = MultiPoly._reduced({key: c for key, c in out.items() if c}, den)
        return MultiPoly.sum((total, *pieces)) if pieces else total

    # -- equality and display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self._den == other._den and self._num == other._num
        pair = _rational(other)
        if pair is None:
            return NotImplemented
        n, d = pair
        return self.is_constant() and self._num.get(0, 0) * d == n * self._den

    def __hash__(self) -> int:
        """hash((den, frozenset(numerator items))), computed on first use and kept."""
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self._den, frozenset(self._num.items())))
            return h

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)})"


def _coerce(value) -> "MultiPoly":
    if isinstance(value, MultiPoly):
        return value
    pair = _rational(value)
    if pair is None:
        return NotImplemented
    n, d = pair
    return MultiPoly._reduced({0: n} if n else {}, d)


def as_poly(value: "MultiPoly | Scalar") -> MultiPoly:
    """A MultiPoly as it is, an int or Fraction as a constant; TypeError otherwise."""
    return value if isinstance(value, MultiPoly) else MultiPoly.const(value)


def var(name: str) -> MultiPoly:
    if name not in _SHIFT:
        raise ValueError(f"unknown variable {name!r}; known: {', '.join(VARIABLES)}")
    return MultiPoly._reduced({_DEGREE_ONE | 1 << _SHIFT[name]: 1}, 1)


def binomial_poly(n: int) -> MultiPoly:
    """The integer-valued basis polynomial C(t+n, n) = (t+n)...(t+1)/n!."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("binomial_poly needs n >= 0")
    return shifted_binomial(0, n)


# (s, n) -> C(t-s+n, n): each binomial is built once per process
_BINOMIALS: dict = {}


def shifted_binomial(s: int, n: int) -> MultiPoly:
    """C(t-s+n, n) = (t-s+1)...(t-s+n)/n!, built from its linear factors, for n >= 0."""
    key = (s, n)
    if key not in _BINOMIALS:
        t = var("t")
        prod = MultiPoly.const(1)
        for j in range(1, n + 1):
            prod = prod * (t + (j - s))
        _BINOMIALS[key] = prod.scalar_div(math.factorial(n))
    return _BINOMIALS[key]


# -- serialization ----------------------------------------------------------


def _format_monomial(exp: Exponent) -> str:
    parts = []
    for i, e in enumerate(exp):
        if e == 1:
            parts.append(VARIABLES[i])
        elif e > 1:
            parts.append(f"{VARIABLES[i]}^{e}")
    return "*".join(parts)


def format_poly(p: MultiPoly) -> str:
    """Canonical text form; graded-lex term order, highest terms first."""
    num, den = p.numerators()
    if not num:
        return "0"
    pieces = []
    for key in sorted(num, reverse=True):
        c = num[key]
        g = math.gcd(c, den)
        mag, d = abs(c) // g, den // g
        magnitude = str(mag) if d == 1 else f"({mag}/{d})"
        mono = _format_monomial(unpack(key))
        if not mono:
            body = magnitude
        elif mag == 1 and d == 1:
            body = mono
        else:
            body = f"{magnitude}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces)
