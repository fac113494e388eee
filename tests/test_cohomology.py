"""Unit tests for parametric cohomology and exact-sequence solving."""

from __future__ import annotations

import pytest

from multistruct import EngineError
from multistruct.arith import MultiPoly, var
from multistruct.cohomology import (
    Assumption,
    CohomPair,
    ConicBundle,
    ExactSeqSpec,
    InconsistentSequenceError,
    L_BUNDLE,
    LinForm,
    OMEGA_Y_ON_C,
    UndecidableSignError,
    UnderdeterminedError,
    ZERO_FORM,
    double_conic_side_terms,
    ext_vanishing_claim,
    family_dimension,
    h_p1,
    h_p2,
    normal_sheaf_sequences,
    pullback_degree,
    solve_exact_sequence,
    tangent_dimension_double_conic,
)

r = var("r")
GENERIC = Assumption(r_min=1)


class TestLinForm:
    def test_round_trip(self):
        form = LinForm.from_poly(2 * r + 15)
        assert form == LinForm(2, 15)
        assert form.to_poly() == 2 * r + 15
        assert form.at(3) == 21

    def test_rejections(self):
        with pytest.raises(ValueError):
            LinForm.from_poly(r * r)
        with pytest.raises(ValueError):
            LinForm.from_poly(var("t"))
        with pytest.raises(ValueError):
            LinForm.from_poly(r.scalar_div(2))

    def test_display(self):
        assert str(LinForm(2, 15)) == "2r+15"
        assert str(LinForm(1, -1)) == "r-1"
        assert str(LinForm(-1, 0)) == "-r"
        assert str(LinForm(0, 7)) == "7"
        assert str(ZERO_FORM) == "0"

    def test_arithmetic(self):
        assert LinForm(1, 2) + LinForm(2, 3) == LinForm(3, 5)
        assert LinForm(1, 2) - 1 == LinForm(1, 1)
        assert -LinForm(1, -2) == LinForm(-1, 2)
        assert 3 * LinForm(1, 1) == LinForm(3, 3)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LinForm(2, -1),
            lambda: ConicBundle(-1, -3),
            lambda: CohomPair(LinForm(1, -1), ZERO_FORM),
        ],
    )
    def test_compared_and_hashed_by_value(self, build):
        first, second = build(), build()
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert {first: 1}[second] == 1

    def test_same_fields_of_another_type_differ(self):
        assert LinForm(0, 1) != ConicBundle(0, 1)
        assert ConicBundle(0, 1) != LinForm(0, 1)
        assert LinForm(0, 1) != (0, 1)
        assert len({LinForm(0, 1), ConicBundle(0, 1)}) == 2


class TestAssumption:
    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            Assumption()
        with pytest.raises(ValueError):
            Assumption(r_min=1, fixed=2)

    def test_decidability(self):
        a = Assumption(r_min=2)
        assert a.always_ge(LinForm(1, -2), 0)
        assert not a.always_ge(LinForm(-1, 5), 0)
        assert a.always_le(LinForm(-1, -1), -3)

    def test_check_nonneg(self):
        a = Assumption(r_min=1)
        a.check_nonneg(r - 1, "test")  # r-1 = x >= 0 under r = 1 + x
        with pytest.raises(InconsistentSequenceError):
            a.check_nonneg(MultiPoly.const(-1), "test")
        with pytest.raises(UndecidableSignError):
            a.check_nonneg(5 - r, "test")


class TestLineBundleCohomology:
    def test_generic_regions(self):
        a = Assumption(r_min=1)
        assert h_p1(LinForm(1, 0), a) == CohomPair(LinForm(1, 1), ZERO_FORM)
        assert h_p1(LinForm(-1, -8), a) == CohomPair(ZERO_FORM, LinForm(1, 7))

    def test_boundary_inclusive_forms(self):
        # d = r-2 touches -1 at r=1; h^0 = d+1 is still exact there
        a = Assumption(r_min=1)
        assert h_p1(LinForm(1, -2), a) == CohomPair(LinForm(1, -1), ZERO_FORM)
        # and on the dual side d = -r-1 touches -1 at r=0
        b = Assumption(r_min=0)
        assert h_p1(LinForm(-1, -1), b) == CohomPair(ZERO_FORM, LinForm(1, 0))

    def test_undecidable_raises(self):
        with pytest.raises(UndecidableSignError):
            h_p1(LinForm(1, -5), Assumption(r_min=0))
        with pytest.raises(UndecidableSignError):
            h_p1(LinForm(-1, 5), Assumption(r_min=0))

    def test_fixed_values_are_constants(self):
        pair = h_p1(LinForm(1, -2), Assumption(fixed=1))
        assert pair == CohomPair(ZERO_FORM, ZERO_FORM)
        pair = h_p1(LinForm(1, -2), Assumption(fixed=4))
        assert pair == CohomPair(LinForm.const(3), ZERO_FORM)
        pair = h_p1(LinForm(-2, 0), Assumption(fixed=3))
        assert pair == CohomPair(ZERO_FORM, LinForm.const(5))

    def test_matches_brute_force(self):
        for d in range(-8, 9):
            pair = h_p1(LinForm(0, d), Assumption(fixed=0))
            assert pair.h0.b == max(d + 1, 0)
            assert pair.h1.b == max(-d - 1, 0)

    def test_plane_cohomology(self):
        zero = MultiPoly.zero()
        a = Assumption(r_min=0)
        h0, h1, h2 = h_p2(LinForm(1, 0), a)
        assert h0 == ((r + 2) * (r + 1)).scalar_div(2)
        assert h1 == zero and h2 == zero
        h0, h1, h2 = h_p2(LinForm(-1, -3), a)
        assert h0 == zero and h1 == zero
        assert h2 == ((r + 2) * (r + 1)).scalar_div(2)
        for d in range(-6, 7):
            h0, h1, h2 = h_p2(LinForm(0, d), Assumption(fixed=0))
            want0 = (d + 2) * (d + 1) // 2 if d >= 0 else 0
            want2 = (d + 2) * (d + 1) // 2 if d <= -3 else 0
            assert h0 == want0 and h1 == 0 and h2 == want2


class TestConicBundles:
    def test_pullback_degree(self):
        assert pullback_degree(ConicBundle(1, 0)) == LinForm(1, 0)
        assert pullback_degree(ConicBundle(0, 1)) == LinForm(0, 2)
        assert pullback_degree(L_BUNDLE.tensor(OMEGA_Y_ON_C)) == LinForm(0, -2)

    def test_normal_sheaf_identifications(self):
        pieces = normal_sheaf_sequences()
        assert pieces["iy_ic2"] == ConicBundle(-1, -3)
        assert pieces["det_icy"] == ConicBundle(-2, -9)
        assert pieces["quotient"] == ConicBundle(0, -3)


class TestExactSequences:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExactSeqSpec((ConicBundle(0, 0), None))
        with pytest.raises(ValueError):
            ExactSeqSpec((None, None, ConicBundle(0, 0)))
        with pytest.raises(ValueError):
            ExactSeqSpec((ConicBundle(0, 0),) * 3)
        # the solver reads a six-term cohomology sequence, so four or five
        # terms are bad input, not left for the solver to misread
        a, b = ConicBundle(0, 0), ConicBundle(1, 0)
        for terms in ((a, None, b, a), (a, None, b, a, b)):
            with pytest.raises(ValueError, match="exactly three terms"):
                ExactSeqSpec(terms)

    def test_middle_term_solve(self):
        sides = double_conic_side_terms()
        middle = solve_exact_sequence(
            ExactSeqSpec((sides["aux1_left"], None, sides["aux1_right"])), GENERIC
        )
        assert middle == CohomPair(LinForm(1, -1), LinForm(2, 7))
        middle = solve_exact_sequence(
            ExactSeqSpec((sides["aux2_left"], None, sides["aux2_right"])), GENERIC
        )
        assert middle == CohomPair(LinForm(2, -1), LinForm(1, 7))

    def test_displayed_side_dimensions(self):
        expected = {
            "aux1_left": CohomPair(LinForm(1, -1), ZERO_FORM),
            "aux1_right": CohomPair(ZERO_FORM, LinForm(2, 7)),
            "aux2_left": CohomPair(LinForm(2, -1), ZERO_FORM),
            "aux2_right": CohomPair(ZERO_FORM, LinForm(1, 7)),
        }
        sides = double_conic_side_terms()
        for key, want in expected.items():
            assert h_p1(pullback_degree(sides[key]), GENERIC) == want

    def test_underdetermined_without_fact(self):
        sides = double_conic_side_terms()
        aux1 = solve_exact_sequence(
            ExactSeqSpec((sides["aux1_left"], None, sides["aux1_right"])), GENERIC
        )
        aux2 = solve_exact_sequence(
            ExactSeqSpec((sides["aux2_left"], None, sides["aux2_right"])), GENERIC
        )
        with pytest.raises(UnderdeterminedError):
            solve_exact_sequence(ExactSeqSpec((aux2, None, aux1)), GENERIC)

    def test_inconsistent_fact_detected(self):
        # a zero middle with nonzero sides has no exact completion
        left = CohomPair(LinForm.const(2), ZERO_FORM)
        right = CohomPair(ZERO_FORM, ZERO_FORM)
        with pytest.raises(InconsistentSequenceError):
            solve_exact_sequence(
                ExactSeqSpec((left, None, right), (("zero", 0),)),
                Assumption(fixed=1),
            )

class TestTangentComputation:
    def test_symbolic_tangent_dimension(self):
        assert tangent_dimension_double_conic(GENERIC, True) == LinForm(2, 15)

    def test_requires_certificate(self):
        with pytest.raises(EngineError):
            tangent_dimension_double_conic(GENERIC, False)

    def test_fixed_values(self):
        for rv in (1, 2, 3, 10):
            got = tangent_dimension_double_conic(Assumption(fixed=rv), True)
            assert got == LinForm.const(2 * rv + 15)

    def test_family_dimension_matches(self):
        assert family_dimension(GENERIC) == LinForm(2, 15)
        for rv in (1, 2, 5):
            assert family_dimension(Assumption(fixed=rv)) == LinForm.const(2 * rv + 15)


class TestExtVanishing:
    def test_symbolic(self):
        assert ext_vanishing_claim() is True

    def test_small_values(self):
        for rv in range(0, 9):
            assert ext_vanishing_claim(rv) is True
