"""Unit tests for binomial-basis expansion and integrality verdicts."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import as_fraction, random_poly, sorted_terms
from multistruct.arith import MultiPoly, var
from multistruct.chow import BundleClass, split_bundle
from multistruct.integrality import (
    BinomialExpansion,
    congruence_residues,
    from_binomial_basis,
    lowest_terms,
    schwarzenberger_verdict,
    to_binomial_basis,
)
from multistruct.structures import hilbert_double_plane, hilbert_triple_plane, solve_chern_from_hilbert

t = var("t")
r = var("r")
R = var("R")


class TestLowestTerms:
    def test_examples(self):
        num, den = lowest_terms(r.scalar_div(2) + Fraction(1, 3))
        assert den == 6
        assert num == 3 * r + 2
        num, den = lowest_terms(2 * r + 4)
        assert den == 1 and num == 2 * r + 4

    def test_reconstruction(self):
        rng = random.Random(5)
        for _ in range(50):
            p = random_poly(rng, names=("r",), max_degree=4)
            num, den = lowest_terms(p)
            assert num.scalar_div(den) == p
            assert all(c.denominator == 1 for _, c in sorted_terms(num))

    def test_is_the_stored_form(self):
        rng = random.Random(9)
        for _ in range(50):
            p = random_poly(rng, names=("r",), max_degree=4)
            num, den = lowest_terms(p)
            assert num.numerators() == (p.numerators()[0], 1)
            assert den == p.numerators()[1]


class TestBinomialBasis:
    def test_monomial_example(self):
        # t^2 = 2 C(t+2,2) - 3 C(t+1,1) + 1
        e = to_binomial_basis(t * t, 2)
        assert e.coefficient(2) == 2
        assert e.coefficient(1) == -3
        assert e.coefficient(0) == 1

    def test_round_trip_random(self):
        rng = random.Random(6)
        for _ in range(100):
            p = random_poly(rng, names=("t", "r"), max_degree=5)
            e = to_binomial_basis(p, 5)
            assert from_binomial_basis(e) == p

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            to_binomial_basis(t**3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            BinomialExpansion(1, (MultiPoly.const(1),))


class TestCongruences:
    def test_cubic_mod_3_all_residues(self):
        cubic = 7 * r**3 + 30 * r * r + 29 * r - 54
        assert congruence_residues(cubic, 3) == {0, 1, 2}

    def test_quartic_mod_3_empty(self):
        quartic = r**4 - 24 * r**3 - 197 * r * r - 560 * r - 548
        assert congruence_residues(quartic, 3) == set()

    def test_substituted_quartic_mod_3_empty(self):
        quintic = 207 * R**4 - 1512 * R**3 - 1845 * R * R - 828 * R - 134
        assert congruence_residues(quintic, 3) == set()
        assert congruence_residues(-quintic, 3) == set()

    def test_constant_numerator(self):
        assert congruence_residues(MultiPoly.const(6), 3) == {0, 1, 2}
        assert congruence_residues(MultiPoly.const(5), 3) == set()

    @staticmethod
    def _values(numerator: MultiPoly, count: int) -> list[Fraction]:
        """numerator(0), ..., numerator(count - 1) by substitution."""
        names = numerator.variables_used()
        return [
            as_fraction(numerator.substitute({names[0]: rho}) if names else numerator)
            for rho in range(count)
        ]

    @classmethod
    def _reference(cls, numerator: MultiPoly, m: int) -> set[int]:
        return {rho for rho, v in enumerate(cls._values(numerator, m)) if v % m == 0}

    def test_matches_substitute_reference(self):
        rng = random.Random(41)
        cases = [MultiPoly.zero(), MultiPoly.const(-12), MultiPoly.const(7)]
        for _ in range(40):
            x = rng.choice((r, R))
            p = MultiPoly.zero()
            for k in range(rng.randint(0, 5) + 1):
                p = p + rng.randint(-10**6, 10**6) * rng.choice((0, 1, 1)) * x**k
            cases.append(p)
        for p in cases:
            values = self._values(p, 60)
            for m in range(2, 61):
                expected = {rho for rho in range(m) if values[rho] % m == 0}
                assert congruence_residues(p, m) == expected, (p, m)

    def test_no_polynomial_arithmetic(self, monkeypatch):
        from multistruct import _kernels

        p = (r**4 + 2 * r * r - 7 * r + 1) * 3
        expected = {m: self._reference(p, m) for m in (2, 12, 60)}

        def forbidden(*args, **kwargs):
            raise AssertionError("congruence_residues must evaluate by integer Horner")

        monkeypatch.setattr(MultiPoly, "substitute", forbidden)
        monkeypatch.setattr(_kernels, "mul_int_dicts", forbidden)
        for m, residues in expected.items():
            assert congruence_residues(p, m) == residues

    def test_validation(self):
        with pytest.raises(ValueError):
            congruence_residues(r, 1)
        with pytest.raises(ValueError):
            congruence_residues(r.scalar_div(2), 3)
        with pytest.raises(ValueError):
            congruence_residues(r + var("t"), 3)


# frozen engine outputs under each chi template (cross-checked independently);
# the printed display differs from the first set by a global sign below the
# leading coefficient
PAPER_TEMPLATE_COEFFS = {
    5: MultiPoly.const(3),
    4: r - 3,
    3: -(r * r + 7 * r + 10),
    2: -(7 * r**3 + 30 * r * r + 29 * r - 54).scalar_div(12),
    1: -(r**4 - 24 * r**3 - 197 * r * r - 560 * r - 548).scalar_div(48),
    0: (19 * r**5 + 235 * r**4 + 1305 * r**3 + 3765 * r * r + 5616 * r + 3140).scalar_div(480),
}

DERIVED_TEMPLATE_COEFFS = {
    5: MultiPoly.const(3),
    4: r - 3,
    3: (3 * r * r + r).scalar_div(2),
    2: (4 * r**3 - 7 * r - 3).scalar_div(6),
    1: (7 * r**4 + 12 * r**3 - 9 * r * r - 20 * r - 6).scalar_div(24),
    0: (11 * r**5 + 40 * r**4 + 20 * r**3 - 65 * r * r - 71 * r - 15).scalar_div(120),
}


class TestDoublePlaneExpansions:
    def test_published_template_coefficients(self):
        from multistruct.chow import euler_characteristic

        triple = solve_chern_from_hilbert(hilbert_double_plane(), "paper")
        e = to_binomial_basis(euler_characteristic(BundleClass(3, triple, 5)), 5)
        for i, want in PAPER_TEMPLATE_COEFFS.items():
            assert e.coefficient(i) == want

    def test_derived_template_coefficients(self):
        from multistruct.chow import euler_characteristic

        triple = solve_chern_from_hilbert(hilbert_double_plane(), "derived")
        e = to_binomial_basis(euler_characteristic(BundleClass(3, triple, 5)), 5)
        for i, want in DERIVED_TEMPLATE_COEFFS.items():
            assert e.coefficient(i) == want


class TestVerdicts:
    def test_double_plane_published_nonexistence(self):
        triple = solve_chern_from_hilbert(hilbert_double_plane(), "paper")
        verdict = schwarzenberger_verdict(BundleClass(3, triple, 5))
        assert verdict.conclusion == "nonexistence"
        assert verdict.substitution is None
        table = dict(verdict.admissible_residues)
        assert table[3] == ()
        assert table[32] == (1, 9, 17, 25)
        assert table[5] == (0, 1, 2, 3, 4)

    def test_triple_plane_published_substitution(self):
        triple = solve_chern_from_hilbert(hilbert_triple_plane(), "paper")
        verdict = schwarzenberger_verdict(BundleClass(3, triple, 5))
        assert verdict.conclusion == "nonexistence"
        assert verdict.substitution == (3, 0)
        table = dict(verdict.admissible_residues)
        assert table[3] == ()
        # the reported C(t+1,1) coefficient, after r = 3R, in lowest terms
        num, den = lowest_terms(verdict.expansion.coeffs[1])
        assert den == 12
        assert num == -(207 * R**4 - 1512 * R**3 - 1845 * R * R - 828 * R - 134)

    def test_derived_template_obstruction_disappears(self):
        for hilbert in (hilbert_double_plane(), hilbert_triple_plane()):
            triple = solve_chern_from_hilbert(hilbert, "derived")
            verdict = schwarzenberger_verdict(BundleClass(3, triple, 5))
            assert verdict.conclusion == "exists-candidate"
            assert all(residues for _, residues in verdict.admissible_residues)

    def test_split_bundle_clears(self):
        verdict = schwarzenberger_verdict(split_bundle([1, 1, 2], 5))
        assert verdict.conclusion == "exists-candidate"

    @pytest.mark.parametrize("template", ["paper", "derived"])
    def test_admissible_tables_match_brute_force(self, template):
        # a residue is admissible at q = p^e exactly when, for parameters in
        # that class, the Chern entries and chi values at t = 0..5 are all
        # p-integral (six consecutive values pin a degree-5 polynomial in the
        # integer-valued basis, which is unimodular over the integers)
        from multistruct.chow import euler_characteristic

        triple = solve_chern_from_hilbert(hilbert_double_plane(), template)
        verdict = schwarzenberger_verdict(BundleClass(3, triple, 5))
        chi = euler_characteristic(BundleClass(3, triple, 5))
        for q, residues in verdict.admissible_residues:
            p = min(f for f in range(2, q + 1) if q % f == 0)
            direct = set()
            for rho in range(q):
                values = []
                for rep in (rho, rho + q, rho + 2 * q):
                    values.extend(as_fraction(c.substitute({"r": rep})) for c in triple)
                    at_rep = chi.substitute({"r": rep})
                    values.extend(
                        as_fraction(at_rep.substitute({"t": tv})) for tv in range(6)
                    )
                if all(v.denominator % p for v in values):
                    direct.add(rho)
            assert set(residues) == direct
