"""Unit tests for layered structures and Chern-class solving."""

from __future__ import annotations

import pytest

from multistruct.arith import MultiPoly, var
from multistruct.cohomology import ConicBundle
from multistruct.structures import (
    chi_template,
    conic_layer,
    derived_chi_formula,
    double_conic_structure,
    double_plane_structure,
    hilbert_double_plane,
    hilbert_of_layers,
    hilbert_triple_plane,
    paper_chi_formula,
    plane_layer,
    solve_chern_from_hilbert,
    triple_plane_structure,
)

t = var("t")
r = var("r")
R = var("R")


class TestHilbertOfLayers:
    def test_double_conic(self):
        assert hilbert_of_layers(double_conic_structure()) == 4 * t + r + 2

    def test_double_plane(self):
        expected = t * t + (r + 3) * t + (r * r + 3 * r + 4).scalar_div(2)
        assert hilbert_double_plane() == expected
        assert hilbert_of_layers(double_plane_structure()) == expected

    def test_triple_plane(self):
        expected = (3 * t * t + (6 * r + 9) * t + 5 * r * r + 9 * r + 6).scalar_div(2)
        assert hilbert_triple_plane() == expected
        assert hilbert_of_layers(triple_plane_structure()) == expected

    def test_single_layers(self):
        assert hilbert_of_layers((conic_layer(ConicBundle(0, 0)),)) == 2 * t + 1
        assert hilbert_of_layers((plane_layer(0),)) == ((t + 2) * (t + 1)).scalar_div(2)

    def test_layer_constructors(self):
        assert conic_layer(ConicBundle(1, -2)) == 2 * t + r - 3
        shifted = hilbert_of_layers((plane_layer(r),))
        assert shifted == ((t + r + 2) * (t + r + 1)).scalar_div(2)
        with pytest.raises(ValueError):
            hilbert_of_layers(())


class TestChiTemplates:
    def test_templates_agree_in_top_coefficients(self):
        c1, c2, c3 = var("c1"), var("c2"), var("c3")
        published = paper_chi_formula(c1, c2, c3)
        derived = derived_chi_formula(c1, c2, c3)
        assert published.coeff_of("t", 2) == derived.coeff_of("t", 2)
        assert published.coeff_of("t", 1) == derived.coeff_of("t", 1)
        assert published.coeff_of("t", 0) != derived.coeff_of("t", 0)

    def test_constant_term_denominators(self):
        c1, c2, c3 = var("c1"), var("c2"), var("c3")
        num = (c2 - 2 * c1 * c1 - 18 * c1 - 51) * c3
        assert paper_chi_formula(c1, c2, c3).coeff_of("t", 0) == num.scalar_div(2)
        assert derived_chi_formula(c1, c2, c3).coeff_of("t", 0) == num.scalar_div(12)

    def test_unknown_template_rejected(self):
        with pytest.raises(ValueError):
            chi_template("midway", 1, 1, 1)


class TestChernSolve:
    def test_double_plane_published_template(self):
        c1, c2, c3 = solve_chern_from_hilbert(hilbert_double_plane(), "paper")
        assert c1 == r - 3
        assert c2 == (3 * r * r + 9 * r + 26).scalar_div(2)
        assert c3 == MultiPoly.const(-2)

    def test_triple_plane_published_template(self):
        c1, c2, c3 = solve_chern_from_hilbert(hilbert_triple_plane(), "paper")
        assert c1 == 2 * r - 3
        assert c2 == (19 * r * r + 27 * r + 39).scalar_div(3)
        assert c3 == MultiPoly.const(-3)

    def test_triple_plane_substituted(self):
        c1, c2, c3 = solve_chern_from_hilbert(hilbert_triple_plane(), "paper")
        subs = {"r": 3 * R}
        assert c1.substitute(subs) == 6 * R - 3
        assert c2.substitute(subs) == 57 * R * R + 27 * R + 13
        assert c3.substitute(subs) == MultiPoly.const(-3)

    def test_solutions_reproduce_target(self):
        for hilbert in (hilbert_double_plane(), hilbert_triple_plane()):
            for template in ("paper", "derived"):
                triple = solve_chern_from_hilbert(hilbert, template)
                assert chi_template(template, *triple) == hilbert

    def test_derived_template_changes_c2_only(self):
        pub = solve_chern_from_hilbert(hilbert_double_plane(), "paper")
        der = solve_chern_from_hilbert(hilbert_double_plane(), "derived")
        assert pub[0] == der[0]
        assert pub[2] == der[2]
        assert pub[1] != der[1]

    def test_degenerate_targets_rejected(self):
        with pytest.raises(ValueError):
            solve_chern_from_hilbert(t**3, "paper")
        with pytest.raises(ValueError):
            solve_chern_from_hilbert(t + 1, "paper")
        with pytest.raises(ValueError):
            solve_chern_from_hilbert(r * t * t, "paper")
