"""Unit tests for parametric cohomology and exact-sequence solving."""

from __future__ import annotations

import random
import re

import pytest

from conftest import as_fraction
from multistruct import EngineError
from multistruct.arith import MultiPoly, var
from multistruct.cohomology import (
    Assumption,
    CohomPair,
    ConicBundle,
    InconsistentSequenceError,
    L_BUNDLE,
    OMEGA_Y_ON_C,
    UndecidableSignError,
    UnderdeterminedError,
    _solve_chain,
    double_conic_side_pairs,
    double_conic_side_terms,
    ext_vanishing_claim,
    family_dimension,
    format_dim,
    h_p1,
    h_p2,
    normal_sheaf_sequences,
    pullback_degree,
    solve_exact_sequence,
    tangent_dimension_double_conic,
)
from multistruct.grammar import parse_poly

r = var("r")
ZERO = MultiPoly.zero()
GENERIC = Assumption(r_min=1)


class TestDimensions:
    def test_round_trip(self):
        form = 2 * r + 15
        assert parse_poly(re.sub(r"(\d)r", r"\1*r", format_dim(form))) == form
        assert form.substitute({"r": 3}) == 21

    def test_display(self):
        assert format_dim(2 * r + 15) == "2r+15"
        assert format_dim(r - 1) == "r-1"
        assert format_dim(-r) == "-r"
        assert format_dim(MultiPoly.const(7)) == "7"
        assert format_dim(ZERO) == "0"

    def test_arithmetic(self):
        assert (r + 2) + (2 * r + 3) == 3 * r + 5
        assert (r + 2) - 1 == r + 1
        assert -(r - 2) == -r + 2
        assert 3 * (r + 1) == 3 * r + 3

    @pytest.mark.parametrize(
        "build",
        [
            lambda: 2 * r - 1,
            lambda: ConicBundle(-1, -3),
            lambda: CohomPair(r - 1, ZERO),
        ],
    )
    def test_compared_and_hashed_by_value(self, build):
        first, second = build(), build()
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert {first: 1}[second] == 1

    def test_same_fields_of_another_type_differ(self):
        assert CohomPair(0, 1) != ConicBundle(0, 1)
        assert ConicBundle(0, 1) != CohomPair(0, 1)
        assert CohomPair(0, 1) != (0, 1)
        assert len({CohomPair(0, 1), ConicBundle(0, 1)}) == 2


class TestAssumption:
    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            Assumption()
        with pytest.raises(ValueError):
            Assumption(r_min=1, fixed=2)

    def test_decidability(self):
        a = Assumption(r_min=2)
        assert a.nonneg(r - 2)
        assert not a.nonneg(-r + 5)
        assert a.nonneg(-3 - (-r - 1))  # -r-1 <= -3

    def test_check_nonneg(self):
        a = Assumption(r_min=1)
        a.check_nonneg(r - 1, "test")  # r-1 = x >= 0 under r = 1 + x
        with pytest.raises(InconsistentSequenceError):
            a.check_nonneg(MultiPoly.const(-1), "test")
        with pytest.raises(UndecidableSignError):
            a.check_nonneg(5 - r, "test")

    @pytest.mark.parametrize("p", [MultiPoly.const(-1), r.scalar_div(2) - 3, r.scalar_div(-6) - 1, -r - 4])
    def test_negative_value_at_r_min_prints_as_a_fraction(self, p):
        # the message quotes the value at r = r_min as str(Fraction) prints it
        a = Assumption(r_min=1)
        with pytest.raises(InconsistentSequenceError) as exc:
            a.check_nonneg(p, "test")
        value = as_fraction(p.substitute({"r": 1}))
        assert str(exc.value) == f"negative dimension in test at r = 1: {value}"


class TestLineBundleCohomology:
    def test_generic_regions(self):
        a = Assumption(r_min=1)
        assert h_p1(r, a) == CohomPair(r + 1, ZERO)
        assert h_p1(-r - 8, a) == CohomPair(ZERO, r + 7)

    def test_boundary_inclusive_forms(self):
        # d = r-2 touches -1 at r=1; h^0 = d+1 is still exact there
        a = Assumption(r_min=1)
        assert h_p1(r - 2, a) == CohomPair(r - 1, ZERO)
        # and on the dual side d = -r-1 touches -1 at r=0
        b = Assumption(r_min=0)
        assert h_p1(-r - 1, b) == CohomPair(ZERO, r)

    def test_undecidable_raises(self):
        with pytest.raises(UndecidableSignError):
            h_p1(r - 5, Assumption(r_min=0))
        with pytest.raises(UndecidableSignError):
            h_p1(-r + 5, Assumption(r_min=0))

    def test_fixed_values_are_constants(self):
        pair = h_p1(r - 2, Assumption(fixed=1))
        assert pair == CohomPair(ZERO, ZERO)
        pair = h_p1(r - 2, Assumption(fixed=4))
        assert pair == CohomPair(MultiPoly.const(3), ZERO)
        pair = h_p1(-2 * r, Assumption(fixed=3))
        assert pair == CohomPair(ZERO, MultiPoly.const(5))

    def test_matches_brute_force(self):
        for d in range(-8, 9):
            pair = h_p1(MultiPoly.const(d), Assumption(fixed=0))
            assert pair.h0 == max(d + 1, 0)
            assert pair.h1 == max(-d - 1, 0)

    def test_plane_cohomology(self):
        zero = MultiPoly.zero()
        a = Assumption(r_min=0)
        h0, h1, h2 = h_p2(r, a)
        assert h0 == ((r + 2) * (r + 1)).scalar_div(2)
        assert h1 == zero and h2 == zero
        h0, h1, h2 = h_p2(-r - 3, a)
        assert h0 == zero and h1 == zero
        assert h2 == ((r + 2) * (r + 1)).scalar_div(2)
        for d in range(-6, 7):
            h0, h1, h2 = h_p2(MultiPoly.const(d), Assumption(fixed=0))
            want0 = (d + 2) * (d + 1) // 2 if d >= 0 else 0
            want2 = (d + 2) * (d + 1) // 2 if d <= -3 else 0
            assert h0 == want0 and h1 == 0 and h2 == want2


class TestConicBundles:
    def test_pullback_degree(self):
        assert pullback_degree(ConicBundle(1, 0)) == r
        assert pullback_degree(ConicBundle(0, 1)) == MultiPoly.const(2)
        assert pullback_degree(L_BUNDLE.tensor(OMEGA_Y_ON_C)) == MultiPoly.const(-2)

    def test_omega_and_side_terms(self):
        # derived from CONORMAL_TWISTS by adjunction and from powers of L
        assert OMEGA_Y_ON_C == ConicBundle(-1, -1)
        sides = double_conic_side_terms()
        assert sides["aux1_left"] == ConicBundle(1, -1)
        assert sides["aux1_right"] == ConicBundle(-2, -4)
        assert sides["aux2_left"] == ConicBundle(2, -1)
        assert sides["aux2_right"] == ConicBundle(-1, -4)

    def test_normal_sheaf_identifications(self):
        pieces = normal_sheaf_sequences()
        assert pieces["iy_ic2"] == ConicBundle(-1, -3)
        assert pieces["det_icy"] == ConicBundle(-2, -9)
        assert pieces["quotient"] == ConicBundle(0, -3)


class TestExactSequences:
    def test_middle_term_solve(self):
        sides = double_conic_side_pairs(GENERIC)
        middle = solve_exact_sequence(sides["aux1_left"], sides["aux1_right"], GENERIC)
        assert middle == CohomPair(r - 1, 2 * r + 7)
        middle = solve_exact_sequence(sides["aux2_left"], sides["aux2_right"], GENERIC)
        assert middle == CohomPair(2 * r - 1, r + 7)

    def test_displayed_side_dimensions(self):
        expected = {
            "aux1_left": CohomPair(r - 1, ZERO),
            "aux1_right": CohomPair(ZERO, 2 * r + 7),
            "aux2_left": CohomPair(2 * r - 1, ZERO),
            "aux2_right": CohomPair(ZERO, r + 7),
        }
        assert double_conic_side_pairs(GENERIC) == expected

    def test_underdetermined_without_fact(self):
        sides = double_conic_side_pairs(GENERIC)
        aux1 = solve_exact_sequence(sides["aux1_left"], sides["aux1_right"], GENERIC)
        aux2 = solve_exact_sequence(sides["aux2_left"], sides["aux2_right"], GENERIC)
        with pytest.raises(UnderdeterminedError):
            solve_exact_sequence(aux2, aux1, GENERIC)

    def test_inconsistent_fact_detected(self):
        # an injective connecting map from h^0 = 2 into h^1 = 0 has no exact completion
        left = CohomPair(ZERO, ZERO)
        right = CohomPair(MultiPoly.const(2), ZERO)
        with pytest.raises(InconsistentSequenceError, match="conflicting ranks at arrow 2"):
            solve_exact_sequence(left, right, Assumption(fixed=1), connecting_injective=True)

    def test_exactness_checked_at_a_known_term(self):
        # the ranks 1 and 4 forced from the left leave 1 -> 0 at the last term
        dims = [MultiPoly.const(d) for d in (1, 5, 1)]
        with pytest.raises(
            InconsistentSequenceError, match=re.escape("exactness fails at position 2: 1 != 4 + 0")
        ):
            _solve_chain(dims, (), Assumption(fixed=1))

    @pytest.mark.parametrize(
        "a, c, assumption, message",
        [
            (CohomPair(ZERO, MultiPoly.const(1)), CohomPair(MultiPoly.const(2), ZERO),
             Assumption(fixed=1), "negative dimension in term 3: -1"),
            (CohomPair(ZERO, r), CohomPair(r + 1, ZERO),
             GENERIC, "negative dimension in term 3 at r = 1: -1"),
        ],
        ids=["fixed", "symbolic"],
    )
    def test_negative_rank_rejected(self, a, c, assumption, message):
        # h^0(C) injects into the smaller h^1(A), leaving rank h^1(A) - h^0(C) < 0 into H1B
        with pytest.raises(InconsistentSequenceError, match=re.escape(message)):
            solve_exact_sequence(a, c, assumption, connecting_injective=True)


class TestTangentComputation:
    def test_symbolic_tangent_dimension(self):
        aux1, aux2, main = tangent_dimension_double_conic(double_conic_side_pairs(GENERIC), GENERIC, True)
        assert main.h1 == 2 * r + 15
        # the auxiliary pairs are the middle terms the main sequence was built from
        assert aux1 == CohomPair(r - 1, 2 * r + 7)
        assert aux2 == CohomPair(2 * r - 1, r + 7)

    def test_requires_certificate(self):
        with pytest.raises(EngineError):
            tangent_dimension_double_conic(double_conic_side_pairs(GENERIC), GENERIC, False)

    def test_fixed_values(self):
        for rv in (1, 2, 3, 10):
            fixed = Assumption(fixed=rv)
            got = tangent_dimension_double_conic(double_conic_side_pairs(fixed), fixed, True)[2].h1
            assert got == MultiPoly.const(2 * rv + 15)

    def test_family_dimension_matches(self):
        assert family_dimension(GENERIC) == 2 * r + 15
        for rv in (1, 2, 5):
            assert family_dimension(Assumption(fixed=rv)) == MultiPoly.const(2 * rv + 15)


class TestExtVanishing:
    def test_symbolic(self):
        assert ext_vanishing_claim() is True

    def test_small_values(self):
        for rv in range(0, 9):
            assert ext_vanishing_claim(rv) is True


class TestOneSignProcedure:
    """Assumption.nonneg is the one sign procedure; seeded checks against references."""

    @staticmethod
    def _quadratic(rng: random.Random) -> tuple[int, int, int]:
        return rng.randint(-6, 6), rng.randint(-12, 12), rng.randint(-20, 20)

    def test_linear_forms_match_the_half_line_criterion(self):
        rng = random.Random(1801)
        for _ in range(500):
            a, b, r_min = rng.randint(-5, 5), rng.randint(-20, 20), rng.randint(0, 3)
            # a*r + b >= 0 on r >= r_min exactly when it does not fall and starts >= 0
            want = a >= 0 and a * r_min + b >= 0
            assert Assumption(r_min=r_min).nonneg(a * r + b) is want

    def test_quadratics_are_certified_soundly(self):
        rng = random.Random(1802)
        certified = refused = 0
        for _ in range(500):
            c2, c1, c0 = self._quadratic(rng)
            r_min = rng.randint(0, 3)
            if Assumption(r_min=r_min).nonneg(c2 * r * r + c1 * r + c0):
                certified += 1
                assert all(c2 * v * v + c1 * v + c0 >= 0 for v in range(r_min, r_min + 41))
            else:
                refused += 1
        assert certified and refused

    def test_fixed_reads_the_sign_at_the_value(self):
        rng = random.Random(1803)
        for _ in range(500):
            c2, c1, c0 = self._quadratic(rng)
            fixed = rng.randint(-5, 10)
            want = c2 * fixed * fixed + c1 * fixed + c0 >= 0
            assert Assumption(fixed=fixed).nonneg(c2 * r * r + c1 * r + c0) is want

    def test_constants_are_read_without_substitution(self, monkeypatch):
        def refused(self, bindings):
            raise AssertionError("substitute called on a constant")

        monkeypatch.setattr(MultiPoly, "substitute", refused)
        for assumption in (Assumption(r_min=2), Assumption(fixed=3)):
            assert assumption.nonneg(MultiPoly.const(0))
            assert not assumption.nonneg(MultiPoly.const(-1))
            assert assumption.specialize(MultiPoly.const(4)) == 4
            assert h_p1(MultiPoly.const(-3), assumption) == CohomPair(ZERO, MultiPoly.const(2))

    def test_symbolic_cohomology_evaluates_to_the_fixed_and_brute_force_values(self):
        rng = random.Random(1804)
        decided = {h_p1: 0, h_p2: 0}
        for _ in range(120):
            a, b, r_min = rng.randint(-3, 3), rng.randint(-10, 10), rng.randint(0, 3)
            for h in (h_p1, h_p2):
                try:
                    symbolic = h(a * r + b, Assumption(r_min=r_min))
                except UndecidableSignError:
                    continue
                decided[h] += 1
                for v in range(r_min, r_min + 15):
                    at_v = Assumption(fixed=v)
                    d = a * v + b
                    fixed = h(a * r + b, at_v)
                    if h is h_p1:
                        evaluated = CohomPair(at_v.specialize(symbolic.h0), at_v.specialize(symbolic.h1))
                        assert evaluated == fixed
                        assert (fixed.h0, fixed.h1) == (max(d + 1, 0), max(-d - 1, 0))
                    else:
                        assert tuple(at_v.specialize(x) for x in symbolic) == fixed
                        count = (d + 2) * (d + 1) // 2
                        assert fixed == (count if d >= 0 else 0, 0, count if d <= -3 else 0)
        assert all(decided.values())
