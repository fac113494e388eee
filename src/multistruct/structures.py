"""Hilbert polynomials of layered structures and Chern-class solving.

A multiple structure on a smooth carrier is described by the graded layers
of its structure-sheaf filtration.  Each layer is a line bundle on the
carrier and enters only through its Euler characteristic, so a structure is
a tuple of layer characteristics (polynomials in t and r) and its Hilbert
polynomial is their sum.  Two carriers appear:

  conic   a smooth conic with P^1 normalization; conic_layer(bundle) is
          chi(O_P1(2t + d)) with d = cohomology.pullback_degree(bundle)
  plane   P^2 linearly embedded; plane_layer(d) is C(t+d+2, 2)

Chern classes are solved by matching a quadratic Hilbert polynomial against
a chi_Y template.  Both templates are first-class: `paper` is the published
formula kept verbatim as a comparison target, `derived` is recomputed from
the Koszul alternating sum (chow.koszul_euler) with symbolic Chern classes.
The two differ in the constant term (denominator 2 versus 12); every
downstream value is computed under both and reported side by side.
"""

from __future__ import annotations

import functools
from typing import Literal

from . import EngineError, chow
from .arith import MultiPoly, Scalar, as_poly, var
from .cohomology import L_BUNDLE, ConicBundle, pullback_degree

Template = Literal["paper", "derived"]


def conic_layer(bundle: ConicBundle) -> MultiPoly:
    """chi(O_P1(2t + d)) of the conic layer `bundle`, d its pullback degree."""
    return 2 * var("t") + pullback_degree(bundle) + 1


def plane_layer(twist: MultiPoly | Scalar) -> MultiPoly:
    """chi of the plane layer O_P2(twist), C(t + twist + 2, 2)."""
    shifted = var("t") + twist
    return ((shifted + 2) * (shifted + 1)).scalar_div(2)


def hilbert_of_layers(layers: tuple[MultiPoly, ...]) -> MultiPoly:
    """Hilbert polynomial: the sum of the layer Euler characteristics."""
    if not layers:
        raise ValueError("a structure needs at least one layer")
    return MultiPoly.sum(layers)


def double_conic_structure() -> tuple[MultiPoly, ...]:
    """Doubling of a conic with a line bundle pulling back to O_P1(r)."""
    return conic_layer(ConicBundle(0, 0)), conic_layer(L_BUNDLE)


def double_plane_structure() -> tuple[MultiPoly, ...]:
    return plane_layer(0), plane_layer(var("r"))


def triple_plane_structure() -> tuple[MultiPoly, ...]:
    r = var("r")
    return plane_layer(0), plane_layer(r), plane_layer(2 * r)


@functools.cache
def hilbert_double_plane() -> MultiPoly:
    """C(t+2,2) + C(t+r+2,2), expanded symbolically in r; built once per process."""
    return hilbert_of_layers(double_plane_structure())


@functools.cache
def hilbert_triple_plane() -> MultiPoly:
    """C(t+2,2) + C(t+r+2,2) + C(t+2r+2,2), built once per process."""
    return hilbert_of_layers(triple_plane_structure())


# -- chi_Y templates ---------------------------------------------------------


def paper_chi_formula(
    c1: MultiPoly | Scalar, c2: MultiPoly | Scalar, c3: MultiPoly | Scalar
) -> MultiPoly:
    """The published chi_Y template, verbatim, as a comparison target:

      chi_Y(t) = -(c3/2) t^2 - ((c1+6) c3 / 2) t + (c2 - 2 c1^2 - 18 c1 - 51) c3 / 2

    Its constant term fails the complete-intersection sanity check (see
    derived_chi_formula); it is kept exactly as printed so the discrepancy
    can be reported rather than silently reconciled.
    """
    t = var("t")
    c1p, c2p, c3p = (as_poly(c1), as_poly(c2), as_poly(c3))
    quad = -(c3p * t * t).scalar_div(2)
    lin = -((c1p + 6) * c3p * t).scalar_div(2)
    constant = ((c2p - 2 * c1p * c1p - 18 * c1p - 51) * c3p).scalar_div(2)
    return quad + lin + constant


def derived_chi_formula(
    c1: MultiPoly | Scalar, c2: MultiPoly | Scalar, c3: MultiPoly | Scalar
) -> MultiPoly:
    """chi_Y recomputed from the Koszul alternating sum with symbolic classes.

    Agrees with the published template in the t^2 and t coefficients; the
    constant term carries denominator 12 instead of the published 2.  The
    symbolic characteristic is derived once per process (koszul_euler is
    cached per bundle) and specialized at (c1, c2, c3).
    """
    symbolic = chow.koszul_euler(chow.BundleClass(3, [var("c1"), var("c2"), var("c3")], 5))
    return chow.specialize(symbolic, (c1, c2, c3))


def chi_template(template: Template, c1, c2, c3) -> MultiPoly:
    if template == "paper":
        return paper_chi_formula(c1, c2, c3)
    if template == "derived":
        return derived_chi_formula(c1, c2, c3)
    raise ValueError(f"unknown template {template!r}")


@functools.cache
def solve_chern_from_hilbert(
    target: MultiPoly, template: Template
) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Solve the chosen chi_Y template against a quadratic Hilbert polynomial.

    The system is triangular: the t^2 coefficient -c3/2 pins c3, the t
    coefficient then pins c1, the constant term pins c2.  c3 must come out
    a nonzero rational constant for the division steps to stay polynomial.
    Cached per (target, template); the result is a tuple of immutable
    polynomials, shared by every caller.
    """
    if target.degree("t") > 2:
        raise ValueError("target must have degree <= 2 in t")
    lead = target.coeff_of("t", 2)
    if not lead.is_constant():
        raise ValueError("t^2 coefficient must be constant to pin c3")
    c3_poly = -2 * lead
    if c3_poly.is_zero():
        if target.coeff_of("t", 1).is_zero() and target.coeff_of("t", 0).is_zero():
            raise ValueError("degenerate zero target")
        raise ValueError("inconsistent system: zero t^2 coefficient with lower terms")
    n3, d3 = c3_poly.constant_pair()  # c3 = n3 / d3
    # t coefficient: -(c1 + 6) c3 / 2
    c1 = (target.coeff_of("t", 1) * (-2 * d3)).scalar_div(n3) - 6
    # constant: (c2 - 2 c1^2 - 18 c1 - 51) c3 / den with den = 2 (paper) or 12 (derived)
    den = 2 if template == "paper" else 12
    c2 = (target.coeff_of("t", 0) * (den * d3)).scalar_div(n3) + 2 * c1 * c1 + 18 * c1 + 51
    check = chi_template(template, c1, c2, c3_poly)
    if check != target:
        raise EngineError("solved classes do not reproduce the target")
    return c1, c2, c3_poly

