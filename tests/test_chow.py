"""Unit tests for the truncated Chow-ring layer."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from conftest import as_fraction, random_poly
from multistruct import chow
from multistruct.arith import MultiPoly, var
from multistruct.chow import (
    BundleClass,
    adams_operation,
    chern_character,
    chern_from_character,
    euler_characteristic,
    koszul_complete_intersection,
    koszul_euler,
    line_bundle,
    split_bundle,
    splitting_oracle,
    todd_class,
    truncate,
    truncated_product,
    twisted_todd,
    wedge_powers,
)

t = var("t")
c1, c2, c3 = var("c1"), var("c2"), var("c3")
h = var("h")


class TestTruncate:
    def test_hyperplane_powers_on_p3(self):
        assert truncate(h**4, 3).is_zero()
        assert truncate(h**3, 3).coeff_of("h", 3) == 1
        assert truncate((1 + h) ** 5, 3) == 1 + 5 * h + 10 * h**2 + 10 * h**3

    def test_keeps_the_other_variables(self):
        p = (c1 + t * h) ** 3 + Fraction(1, 3) * h**2
        assert truncate(p, 1) == c1**3 + 3 * c1 * c1 * t * h

    def test_truncated_product_matches_truncating_the_full_product(self):
        rng = random.Random(31)
        names = ("t", "h", "c1")
        for _ in range(60):
            a = random_poly(rng, names, max_degree=4)
            b = random_poly(rng, names, max_degree=4)
            for n in range(chow.MAX_AMBIENT + 1):
                got = truncated_product(a, b, n)
                assert got == truncate(a * b, n)
                assert got.numerators() == truncate(a * b, n).numerators()

    def test_truncating_only_at_the_end_agrees(self):
        # reduction mod h^(n+1) is a ring map, so the untruncated products read
        # at degrees 0..n give the classes that truncate after every product
        series = [1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720), 0, Fraction(1, 30240)]

        def untruncated_todd(n):
            return sum(c * h**k for k, c in enumerate(series[: n + 1])) ** (n + 1)

        for n in range(1, 7):
            full = untruncated_todd(n)
            assert todd_class(n).degree("h") == n
            for k in range(n + 1):
                assert todd_class(n).coeff_of("h", k) == full.coeff_of("h", k)
        for B in (BundleClass(3, [c1, c2, c3], 5), split_bundle([2, -1], 4), line_bundle(t, 1)):
            n = B.ambient_dim
            exp_th = sum((t * h) ** k * Fraction(1, math.factorial(k)) for k in range(n + 1))
            full = chern_character(B) * exp_th * untruncated_todd(n)
            assert euler_characteristic(B) == full.coeff_of("h", n)


class TestBundleClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            BundleClass(0, [], 5)
        with pytest.raises(ValueError):
            BundleClass(2, [c1], 5)
        with pytest.raises(ValueError):
            BundleClass(3, [c1, c2, c3], 2)  # c3 beyond the truncation

    def test_compared_and_hashed_by_value(self):
        # the integrality verdicts and the symbolic classes are cached per bundle
        B = BundleClass(3, [c1, 2, c3], 5)
        same = BundleClass(3, [c1, MultiPoly.const(2), c3], 5)
        assert B == same and B is not same and hash(B) == hash(same)
        assert {B: 1}[same] == 1
        assert B != BundleClass(3, [c1, 2, c3], 4)
        assert B != split_bundle([1, 2, 3], 5)

    def test_split_bundle_elementary_symmetric(self):
        B = split_bundle([1, 2, 3], 5)
        assert [as_fraction(c) for c in B.chern] == [6, 11, 6]

    def test_character_round_trip_symbolic(self):
        B = BundleClass(3, [c1, c2, c3], 5)
        ch = chern_character(B)
        recovered = chern_from_character(ch, 3, 5)
        assert recovered[0] == c1
        assert recovered[1] == c2
        assert recovered[2] == c3
        assert all(c.is_zero() for c in recovered[3:])

    def test_character_rank_checked(self):
        B = split_bundle([1, -1], 4)
        with pytest.raises(ValueError):
            chern_from_character(chern_character(B), 3, 4)


class TestAdamsAndWedge:
    def test_adams_on_line_bundle(self):
        # psi^k on O(d) is O(kd)
        L = line_bundle(var("c1"), 5)
        scaled = adams_operation(3, chern_character(L))
        assert scaled == chern_character(line_bundle(3 * var("c1"), 5))

    def test_wedge_symbolic(self):
        B = BundleClass(3, [c1, c2, c3], 5)
        lam2, lam3 = wedge_powers(B)
        assert lam2.chern[0] == 2 * c1
        assert lam2.chern[1] == c1 * c1 + c2
        assert lam2.chern[2] == c1 * c2 - c3
        assert lam3.rank == 1
        assert lam3.chern[0] == c1

    def test_wedge_split_random(self):
        rng = random.Random(99)
        for _ in range(50):
            d = [rng.randint(-5, 5) for _ in range(3)]
            lam2, lam3 = wedge_powers(split_bundle(d, 5))
            pairwise = [d[0] + d[1], d[0] + d[2], d[1] + d[2]]
            assert lam2 == split_bundle(pairwise, 5)
            assert lam3 == split_bundle([sum(d)], 5)

    def test_wedge_needs_rank3(self):
        with pytest.raises(ValueError):
            wedge_powers(split_bundle([1, 2], 5))


class TestEulerCharacteristic:
    def test_structure_sheaf_is_one(self):
        for n in range(1, 6):
            chi = euler_characteristic(line_bundle(0, n))
            assert chi.substitute({"t": 0}) == 1

    def test_line_bundle_binomial(self):
        # chi(O(t)) on P^n is C(t+n, n)
        from multistruct.arith import binomial_poly

        for n in range(1, 6):
            assert euler_characteristic(line_bundle(0, n)) == binomial_poly(n)

    def test_serre_duality_window(self):
        # chi(O(d)) = (-1)^n chi(O(-d-n-1)) on P^n
        for n in range(1, 6):
            chi = euler_characteristic(line_bundle(0, n))
            for d in range(-12, 13):
                lhs = as_fraction(chi.substitute({"t": d}))
                rhs = as_fraction(chi.substitute({"t": -d - n - 1}))
                assert lhs == (-1) ** n * rhs

    def test_additivity(self):
        B = split_bundle([2, -1], 4)
        total = euler_characteristic(B)
        parts = euler_characteristic(line_bundle(2, 4)) + euler_characteristic(
            line_bundle(-1, 4)
        )
        assert total == parts

    def test_todd_degree_zero_is_one(self):
        for n in range(1, 6):
            assert todd_class(n).coeff_of("h", 0) == 1

    def test_todd_class_cached_and_exact(self):
        # h / (1 - exp(-h)) = 1 + h/2 + h^2/12 - h^4/720 + ... (Bernoulli numbers)
        series = [1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720), 0]
        for n in range(1, 6):
            base = sum(c * h**k for k, c in enumerate(series[: n + 1]))
            assert todd_class(n) == todd_class(n) == truncate(base ** (n + 1), n)
            assert todd_class(n) is todd_class(n)

    def test_twisted_todd_cached_and_equal_to_the_product(self):
        for n in range(1, chow.MAX_AMBIENT + 1):
            exp_th = sum(Fraction(1, math.factorial(k)) * (t * h) ** k for k in range(n + 1))
            assert twisted_todd(n) == truncate(exp_th * todd_class(n), n)
            assert twisted_todd(n) is twisted_todd(n)


class TestKoszul:
    def test_quadric_surface_section(self):
        chi = koszul_euler(split_bundle([-1, -1, -2], 5))
        assert chi == ((t + 1) * (t + 1))

    def test_all_ci_triples(self):
        triples = [
            (d1, d2, d3)
            for d1 in range(1, 4)
            for d2 in range(d1, 4)
            for d3 in range(d2, 4)
        ]
        assert len(triples) == 10
        for degrees in triples:
            direct = koszul_complete_intersection(degrees)
            via_chern = koszul_euler(split_bundle([-d for d in degrees], 5))
            assert direct == via_chern

    def test_ci_oracle_equals_the_substitution_route(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the complete-intersection oracle must stay independent")

        monkeypatch.setattr(chow, "koszul_euler", forbidden)
        monkeypatch.setattr(chow, "specialize", forbidden)
        triples = [(d1, d2, d3) for d1 in range(1, 4) for d2 in range(d1, 4) for d3 in range(d2, 4)]
        for n in (3, 5):
            # C(t+n, n) = (t+1)...(t+n)/n! from its linear factors, built here and
            # not read from arith's binomial cache, which the oracle uses
            binomial = MultiPoly.const(1)
            for j in range(1, n + 1):
                binomial = binomial * (t + j)
            binomial = binomial.scalar_div(math.factorial(n))
            for degrees in triples:
                by_substitution = MultiPoly.zero()
                for mask in range(8):
                    shift = sum(d for i, d in enumerate(degrees) if mask >> i & 1)
                    sign = (-1) ** bin(mask).count("1")
                    by_substitution += sign * binomial.substitute({"t": t - shift})
                assert koszul_complete_intersection(degrees, n) == by_substitution

    def test_symbolic_coefficients(self):
        chi = koszul_euler(BundleClass(3, [c1, c2, c3], 5))
        assert chi.coeff_of("t", 2) == (-c3).scalar_div(2)
        assert chi.coeff_of("t", 1) == (-(c1 + 6) * c3).scalar_div(2)
        assert chi.coeff_of("t", 0) == ((c2 - 2 * c1 * c1 - 18 * c1 - 51) * c3).scalar_div(12)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            koszul_euler(split_bundle([1, 2], 5))

    def test_ambient_dimension_from_the_bundle(self):
        # a codimension-3 zero scheme in P^n has chi of degree n - 3 in t
        for n in range(3, 9):
            assert koszul_euler(BundleClass(3, [c1, c2, c3], n)).degree("t") == n - 3
        for low in (BundleClass(3, [c1, 0, 0], 1), BundleClass(3, [c1, c2, 0], 2)):
            with pytest.raises(ValueError, match="n >= 3"):
                koszul_euler(low)


class TestSplittingOracle:
    def test_rank3_all_identities(self):
        report = splitting_oracle(3)
        assert report == {
            "chern_character": True,
            "adams_2": True,
            "adams_3": True,
            "wedge2": True,
            "wedge3": True,
            "koszul_euler": True,
        }

    def test_lower_ranks(self):
        for rank in (1, 2):
            assert all(splitting_oracle(rank).values())
