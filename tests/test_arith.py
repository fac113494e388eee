"""Unit tests for the exact polynomial layer."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from conftest import as_fraction, random_poly, sorted_terms
from multistruct import EngineError
from multistruct.arith import (
    EXPONENT_LIMIT,
    NVARS,
    VARIABLES,
    MultiPoly,
    as_poly,
    binomial_poly,
    exponent,
    format_poly,
    pack,
    shifted_binomial,
    unpack,
    var,
)
from multistruct.grammar import parse_poly

t = var("t")
r = var("r")


class TestConstruction:
    def test_zero_and_const(self):
        assert MultiPoly.zero().is_zero()
        assert MultiPoly.const(0).is_zero()
        assert as_fraction(MultiPoly.const(5)) == 5
        assert as_fraction(MultiPoly.const(Fraction(2, 3))) == Fraction(2, 3)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            var("q")

    def test_int_coercion(self):
        assert (t + 1) - 1 == t
        assert 2 * t == t + t
        assert 1 - t == -(t - 1)

    def test_equality_against_scalars(self):
        assert MultiPoly.const(7) == 7
        assert MultiPoly.const(Fraction(1, 2)) == Fraction(1, 2)
        assert t != 1

    def test_as_poly(self):
        assert as_poly(t) is t
        assert as_poly(3) == MultiPoly.const(3)
        assert as_poly(Fraction(-1, 4)) == MultiPoly.const(Fraction(-1, 4))
        for other in ("1", 1.5, None):
            with pytest.raises(TypeError):
                as_poly(other)


class TestArithmetic:
    def test_product_expansion(self):
        assert (t + 1) * (t - 1) == t * t - 1
        assert (t + r) ** 2 == t * t + 2 * t * r + r * r

    def test_pow(self):
        assert (t + 1) ** 0 == 1
        assert (t + 1) ** 3 == t**3 + 3 * t * t + 3 * t + 1
        with pytest.raises(ValueError):
            (t + 1) ** -1

    def test_pow_is_the_repeated_product(self):
        sample = (
            MultiPoly.zero(),
            MultiPoly.const(Fraction(-2, 3)),
            t.scalar_div(2) - Fraction(1, 3) * r,
            (t + 1) * r.scalar_div(5),
        )
        for p in sample:
            assert (p**0).numerators() == ({0: 1}, 1)
            product = MultiPoly.const(1)
            for n in range(8):
                assert (p**n).numerators() == product.numerators()
                product = product * p

    def test_scalar_div(self):
        assert (2 * t).scalar_div(2) == t
        assert t.scalar_div(Fraction(1, 3)) == 3 * t
        with pytest.raises(ZeroDivisionError):
            t.scalar_div(0)

    def test_degree(self):
        p = t**3 * r + 1
        assert p.degree() == 4
        assert p.degree("t") == 3
        assert p.degree("r") == 1
        assert MultiPoly.zero().degree() == -1

    def test_variables_used(self):
        assert (t * r + 1).variables_used() == ("t", "r")
        assert MultiPoly.const(3).variables_used() == ()


class TestSubstitution:
    def test_scalar_substitution(self):
        p = t * t + r * t + 1
        assert p.substitute({"t": 2}) == 2 * r + 5

    def test_polynomial_substitution(self):
        p = t * t + 1
        assert p.substitute({"t": r + 1}) == r * r + 2 * r + 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            t.substitute({"q": 1})


class TestPolynomialsInT:
    def test_coeff_extraction(self):
        p = 3 * t * t + r * t + 7
        assert p.coeff_of("t", 2) == 3
        assert p.coeff_of("t", 1) == r
        assert p.coeff_of("t", 0) == 7
        assert p.degree("t") == 2

    def test_arithmetic_mirrors_poly(self):
        p = t + 1
        q = p * p - 2 * p + 1
        assert q == t * t

    def test_binomial_poly(self):
        assert binomial_poly(0) == 1
        assert binomial_poly(1) == t + 1
        assert binomial_poly(2) == ((t + 2) * (t + 1)).scalar_div(2)
        # integer values on a window
        for n in range(4):
            p = binomial_poly(n)
            for value in range(-6, 7):
                got = as_fraction(p.substitute({"t": value}))
                assert got.denominator == 1


class TestFormatParse:
    def test_canonical_examples(self):
        assert format_poly(MultiPoly.zero()) == "0"
        assert format_poly(2 * t + 1) == "2*t + 1"
        assert format_poly(-t + Fraction(1, 2)) == "-t + (1/2)"
        assert format_poly(t**2 * r) == "t^2*r"

    def test_round_trip_random(self):
        rng = random.Random(20260815)
        for _ in range(100):
            p = random_poly(rng, names=("t", "r", "s"), max_degree=4)
            assert parse_poly(format_poly(p)) == p

    def test_parse_rejects_garbage(self):
        for bad in ("", "t +", "2 ** t", "q + 1", "t^(2)"):
            with pytest.raises(ValueError):
                parse_poly(bad)


# -- the stored form against a Fraction-dict reference ---------------------------

def _exp(**powers: int) -> tuple[int, ...]:
    return tuple(powers.get(name, 0) for name in VARIABLES)


def _ref_random(rng: random.Random) -> dict:
    """A random {exponent: nonzero Fraction} dict in t, r, s."""
    out = {}
    for _ in range(rng.randint(0, 5)):
        exp = _exp(t=rng.randint(0, 3), r=rng.randint(0, 2), s=rng.randint(0, 1))
        c = out.get(exp, Fraction(0)) + Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 6, 35)))
        out[exp] = c
    return {e: c for e, c in out.items() if c}


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_pow(a: dict, n: int) -> dict:
    out = {_exp(): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_substitute(a: dict, name: str, value: dict) -> dict:
    idx = VARIABLES.index(name)
    out: dict = {}
    for e, c in a.items():
        rest = {e[:idx] + (0,) + e[idx + 1 :]: c}
        out = _ref_add(out, _ref_mul(rest, _ref_pow(value, e[idx])))
    return out


def _as_ref(p: MultiPoly) -> dict:
    return dict(sorted_terms(p))


def _assert_lowest_terms(p: MultiPoly) -> None:
    num, den = p.numerators()
    assert isinstance(den, int) and den > 0
    # every key is a valid packed key: its fields repack to the same int
    assert all(type(k) is int and isinstance(c, int) and c != 0 for k, c in num.items())
    assert all(len(unpack(k)) == NVARS and pack(unpack(k)) == k for k in num)
    assert math.gcd(den, *num.values()) == 1
    if not num:
        assert den == 1


class TestStoredForm:
    def test_random_operations_match_reference(self):
        rng = random.Random(2024)
        for _ in range(300):
            ra, rb = _ref_random(rng), _ref_random(rng)
            a, b = MultiPoly(ra), MultiPoly(rb)
            scalar = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 9)))
            n = rng.randint(0, 3)
            value = _ref_random(rng)
            results = [
                (a, ra),
                (a + b, _ref_add(ra, rb)),
                (a - b, _ref_add(ra, {e: -c for e, c in rb.items()})),
                (-a, {e: -c for e, c in ra.items()}),
                (a * b, _ref_mul(ra, rb)),
                (a * scalar, {e: c * scalar for e, c in ra.items()}),
                (a**n, _ref_pow(ra, n)),
                (a.scalar_div(scalar), {e: c / scalar for e, c in ra.items()}),
                (a.substitute({"t": MultiPoly(value)}), _ref_substitute(ra, "t", value)),
                (a.substitute({"r": scalar}), _ref_substitute(ra, "r", {_exp(): scalar})),
                (
                    a.coeff_of("t", 1),
                    {(0,) + e[1:]: c for e, c in ra.items() if e[0] == 1},  # t is first
                ),
            ]
            for got, want in results:
                _assert_lowest_terms(got)
                assert _as_ref(got) == want
                assert got == MultiPoly(want)
                assert hash(got) == hash(MultiPoly(want))

    def test_items_are_fractions(self):
        p = parse_poly("(1/2)*t^2 + (3/2)*t + 1")
        assert p.numerators() == ({pack(_exp(t=2)): 1, pack(_exp(t=1)): 3, pack(_exp()): 2}, 2)
        assert dict(sorted_terms(p)) == {
            _exp(t=2): Fraction(1, 2),
            _exp(t=1): Fraction(3, 2),
            _exp(): Fraction(1),
        }
        assert all(type(c) is Fraction for _, c in sorted_terms(p))

    @pytest.mark.parametrize(
        "left, right",
        [
            (t.scalar_div(2) * 2, t),
            (t * Fraction(1, 3) + t * Fraction(1, 6), t.scalar_div(2)),
            (MultiPoly.const(Fraction(3, 6)), MultiPoly.const(1).scalar_div(2)),
            ((t + 1) ** 2 - 2 * t, t * t + 1),
            (t.scalar_div(4) * (4 * r), t * r),
            ((t - r).coeff_of("t", 1), MultiPoly.const(1)),
            (t - t, MultiPoly.zero()),
            (MultiPoly({_exp(t=1): Fraction(2, 4)}), MultiPoly({_exp(t=1): 1}).scalar_div(2)),
            (MultiPoly._reduced({pack(_exp(t=2)): 3, 0: -6}, 4), parse_poly("(3/4)*t^2 - (3/2)")),
            (parse_poly("(1/2)*t*r + 1"), MultiPoly({_exp(t=1, r=1): Fraction(1, 2), _exp(): 1})),
            (parse_poly("t^2 - 1"), (t + 1) * (t - 1)),
        ],
    )
    def test_equal_by_different_routes(self, left, right):
        _assert_lowest_terms(left)
        _assert_lowest_terms(right)
        assert left == right
        assert hash(left) == hash(right)
        assert left.numerators() == right.numerators()

    def test_zero_has_denominator_one(self):
        built = (MultiPoly(), MultiPoly({}), MultiPoly({_exp(t=1): 0}), MultiPoly.zero())
        for zero in (*built, t.scalar_div(3) - t.scalar_div(3), 0 * t.scalar_div(7)):
            assert zero.numerators() == ({}, 1)

    def test_hash_is_the_documented_one_before_and_after_first_use(self):
        for p in (MultiPoly(), t.scalar_div(3) + r, parse_poly("(1/2)*t^2 - 3"), t**5, -t):
            num, den = p.numerators()
            want = hash((den, frozenset(num.items())))
            assert hash(p) == want
            assert hash(p) == want


# -- the int-pair scalar path against Fraction arithmetic -------------------------


class _BarePair:
    """A rational as a bare numerator/denominator pair, not normalized."""

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator


def _scalars(rng: random.Random) -> list:
    """Ints and Fractions with random signs, zero, and reducible pairs."""
    out = [0, Fraction(0), 1, -1, Fraction(6, 4), Fraction(-6, 4), Fraction(-10, 15), -12]
    for _ in range(12):
        n = rng.choice((-1, 1)) * rng.randint(0, 40)
        out += [n, Fraction(n, rng.randint(1, 12)), Fraction(n * 6, 4)]
    return out


def _format_reference(p: MultiPoly) -> str:
    """The report text of p, printed term by term from Fraction coefficients."""
    pieces = []
    for exp, coeff in sorted_terms(p):
        mag = abs(coeff)
        magnitude = str(mag) if mag.denominator == 1 else f"({mag})"
        mono = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(VARIABLES, exp) if e
        )
        body = mono if mono and mag == 1 else f"{magnitude}*{mono}" if mono else magnitude
        sign = ("" if coeff > 0 else "-") if not pieces else (" + " if coeff > 0 else " - ")
        pieces.append(sign + body)
    return "".join(pieces) or "0"


class TestIntPairs:
    """const, scalar_div, scalar * and == read each scalar as an int pair."""

    def test_scalar_operations_match_fraction_arithmetic(self):
        rng = random.Random(2121)
        zero = _exp()
        for _ in range(60):
            p = random_poly(rng, names=("t", "r", "c1"), max_degree=3)
            terms = sorted_terms(p)
            for c in _scalars(rng):
                q = Fraction(c)
                const = MultiPoly.const(c)
                products = (p * c, c * p)
                results = [const, *products]
                assert sorted_terms(const) == ([(zero, q)] if q else [])
                for product in products:
                    assert sorted_terms(product) == [(e, v * q) for e, v in terms if v * q]
                if q:
                    quotient = p.scalar_div(c)
                    results.append(quotient)
                    assert sorted_terms(quotient) == [(e, v / q) for e, v in terms]
                else:
                    with pytest.raises(ZeroDivisionError):
                        p.scalar_div(c)
                for result in results:
                    _assert_lowest_terms(result)
                assert const == c and not const == c + Fraction(1, 3)
                assert (p == c) == (dict(terms) == ({zero: q} if q else {}))
                assert (const + p == c + p) and (p - c == p + (-const))

    def test_bare_pairs_are_normalized(self):
        for n, d in ((3, -6), (-4, -8), (0, -5), (12, 4), (7, 1)):
            pair, want = _BarePair(n, d), Fraction(n, d)
            built = ((MultiPoly.const(pair), _exp()), (t * pair, _exp(t=1)), (MultiPoly({_exp(r=2): pair}), _exp(r=2)))
            for got, exp in built:
                _assert_lowest_terms(got)
                assert sorted_terms(got) == ([(exp, want)] if n else [])
            if n:
                quotient = t.scalar_div(pair)
                _assert_lowest_terms(quotient)
                assert sorted_terms(quotient) == [(_exp(t=1), 1 / want)]
            assert MultiPoly.const(want) == pair

    @pytest.mark.parametrize("bad", [1.5, 2.0, "1", None, complex(1, 0), _BarePair(1, 0), _BarePair(1.0, 2)])
    def test_non_rationals_raise_type_error(self, bad):
        # no float is read as a rational, not even an integral one
        ops = (MultiPoly.const, t.scalar_div, lambda c: t * c, lambda c: c * t, lambda c: t + c, as_poly)
        for op in ops:
            with pytest.raises(TypeError):
                op(bad)
        with pytest.raises(TypeError):
            MultiPoly({_exp(): bad})
        assert MultiPoly.const(2) != bad and not MultiPoly.const(2) == bad

    def test_format_matches_the_fraction_reference(self):
        rng = random.Random(2122)
        cases = [MultiPoly.zero(), -t + Fraction(1, 2), t.scalar_div(-6), MultiPoly.const(Fraction(-6, 4))]
        cases += [random_poly(rng, names=("t", "r", "s"), max_degree=4) for _ in range(300)]
        for p in cases:
            assert format_poly(p) == _format_reference(p)


# -- packed exponent keys against the tuple reference -----------------------------


def _random_exp(rng: random.Random, top: int) -> tuple[int, ...]:
    """A random exponent tuple on a few variables, each exponent at most top."""
    exp = [0] * NVARS
    for i in rng.sample(range(NVARS), rng.randint(0, 4)):
        exp[i] = rng.randint(0, top)
    return tuple(exp)


class TestPackedKeys:
    def test_round_trip_and_order(self):
        rng = random.Random(31)
        exps = [_random_exp(rng, rng.choice((3, 200, EXPONENT_LIMIT // 4 - 1))) for _ in range(400)]
        exps += [_exp(), _exp(y=EXPONENT_LIMIT - 1), _exp(t=EXPONENT_LIMIT - 1)]
        for e in exps:
            assert unpack(pack(e)) == e
            assert all(exponent(pack(e), name) == e[i] for i, name in enumerate(VARIABLES))
        by_key = sorted(exps, key=pack)
        assert by_key == sorted(exps, key=lambda e: (sum(e), e))
        for a, b in zip(exps, reversed(exps)):
            assert (pack(a) < pack(b)) == ((sum(a), a) < (sum(b), b))

    def test_key_sum_is_tuple_sum(self):
        rng = random.Random(32)
        for _ in range(400):
            a = _random_exp(rng, EXPONENT_LIMIT // 8 - 1)
            b = _random_exp(rng, EXPONENT_LIMIT // 8 - 1)
            assert pack(a) + pack(b) == pack(tuple(x + y for x, y in zip(a, b)))

    def test_inspection_matches_reference(self):
        rng = random.Random(33)
        for _ in range(200):
            ref = {}
            for _ in range(rng.randint(1, 6)):
                ref[_random_exp(rng, 5)] = Fraction(rng.choice((-3, -1, 1, 4)), rng.choice((1, 2, 7)))
            p = MultiPoly(ref)
            assert p.degree() == max(sum(e) for e in ref)
            used = tuple(n for i, n in enumerate(VARIABLES) if any(e[i] for e in ref))
            assert p.variables_used() == used
            assert sorted_terms(p) == sorted(ref.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
            for i, name in enumerate(VARIABLES):
                assert p.degree(name) == max(e[i] for e in ref)
                power = rng.randint(0, 2)
                want = {e[:i] + (0,) + e[i + 1 :]: c for e, c in ref.items() if e[i] == power}
                assert _as_ref(p.coeff_of(name, power)) == want
            name = rng.choice(VARIABLES)
            value = {_random_exp(rng, 2): Fraction(rng.randint(1, 5)), _exp(): Fraction(-1, 3)}
            assert _as_ref(p.substitute({name: MultiPoly(value)})) == _ref_substitute(ref, name, value)


class TestExponentGuards:
    @pytest.mark.parametrize(
        "exp",
        [
            _exp(t=-1),
            _exp(r=EXPONENT_LIMIT),
            _exp(y=EXPONENT_LIMIT),
            _exp(t=EXPONENT_LIMIT // 2, r=EXPONENT_LIMIT // 2),  # total degree 2^15
            (0,) * (NVARS - 1),
        ],
    )
    def test_constructor_rejects_fields_that_do_not_fit(self, exp):
        with pytest.raises(ValueError):
            MultiPoly({exp: 1})

    def test_largest_fields_are_accepted(self):
        top = EXPONENT_LIMIT - 1
        assert MultiPoly({_exp(y=top): 1}).degree("y") == top
        assert MultiPoly({_exp(t=top - 5, u=5): 1}).degree() == top
        assert (t ** (top - 1) * t).degree() == top

    def test_product_degree_guard(self):
        half = t ** (EXPONENT_LIMIT // 2)
        with pytest.raises(EngineError):
            half * half
        with pytest.raises(EngineError):
            MultiPoly({_exp(t=EXPONENT_LIMIT - 1): 1}) * (r + 1)
        with pytest.raises(EngineError):
            t**EXPONENT_LIMIT


class TestFastPaths:
    """The n-ary sum and the cached binomials against the slow exact paths."""

    def test_sum_matches_repeated_addition(self):
        rng = random.Random(31)
        for _ in range(200):
            terms = [
                random_poly(rng, names=("t", "r", "h"))
                if rng.random() < 0.8
                else Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for _ in range(rng.randint(1, 6))
            ]
            expected = MultiPoly.zero()
            for term in terms:
                expected = expected + term
            got = MultiPoly.sum(terms)
            assert got == expected
            assert got.numerators() == expected.numerators()

    def test_sum_of_nothing_scalars_and_cancellation(self):
        assert MultiPoly.sum([]) == MultiPoly.zero()
        assert MultiPoly.sum(iter(())).numerators() == ({}, 1)
        assert MultiPoly.sum([Fraction(1, 2), 3, Fraction(-1, 6)]) == Fraction(10, 3)
        p = t.scalar_div(6) + r.scalar_div(4)
        zero = MultiPoly.sum([p, -p, Fraction(1, 3), Fraction(-1, 3)])
        assert zero.is_zero()
        assert zero.numerators() == ({}, 1)
        with pytest.raises(TypeError):
            MultiPoly.sum([t, 1.5])

    def test_shifted_binomial_matches_the_substitution_route(self):
        # two degrees per shift, so a cache that ignored n would return a wrong one
        for n in (0, 1, 2, 3, 5):
            for s in range(-3, 7):
                got = shifted_binomial(s, n)
                assert got == binomial_poly(n).substitute({"t": t - s})
                assert got.degree("t") == n
                for value in range(s, s + 4):
                    assert as_fraction(got.substitute({"t": value})) == math.comb(value - s + n, n)
                assert shifted_binomial(s, n) is got

    @pytest.mark.parametrize("bad", [-1, 1.5, [1]])
    def test_binomial_poly_rejects_bad_degrees_on_every_call(self, bad):
        for _ in range(2):
            with pytest.raises(ValueError):
                binomial_poly(bad)
