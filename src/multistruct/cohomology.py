"""Parametric line-bundle cohomology and exact-sequence dimension solving.

Every dimension is a MultiPoly in r: linear on P^1, quadratic on P^2.  It
is valid only under an explicit Assumption (r >= r_min, or r fixed), and
any sign query the assumption cannot settle raises UndecidableSignError
rather than branching silently.  format_dim prints a dimension compactly,
as the records show it: 2r+15, r-1, -r, 7.

Line bundles on the conic C are tagged by a pair (k, m) standing for
L^k (m), i.e. the k-th power of the doubling bundle twisted by O_C(m);
the normalization P^1 -> C doubles O_C twists, so the pullback degree is
k*r + 2m.  The double conic's bundles follow from one datum, the twists of
the conormal bundle I_C/I_C^2 = O_C(-1) + O_C(-2) of a plane conic
(CONORMAL_TWISTS): the identifications its sequences are built from
(normal_sheaf_sequences) and the pullback degrees of its section pair,
r+2 and r+4 (section_degrees).

The long-exact-sequence solver does pure rank bookkeeping: for an exact
chain 0 -> V_0 -> ... -> V_(L-1) -> 0 with arrow ranks rho_i it propagates
  dim V_i = rho_(i-1) + rho_i
together with the arrows declared injective until the unknown terms are
pinned down.  solve_exact_sequence applies it to the six-term sequence of
0 -> A -> B -> C -> 0 with B unknown.  Injectivity of the connecting map
is never inferred here, it must arrive as a certificate (the graded module
produces it).
"""

from __future__ import annotations

from typing import Sequence

from . import EngineError, Value
from .arith import MultiPoly, format_poly, var


class UndecidableSignError(EngineError):
    """The assumption is too weak to decide a sign query."""


class InconsistentSequenceError(EngineError):
    """Rank bookkeeping produced a negative or contradictory dimension."""


class UnderdeterminedError(EngineError):
    """The declared facts do not pin down the unknown term."""


# -- dimensions and assumptions ----------------------------------------------


def format_dim(p: MultiPoly) -> str:
    """A dimension in r as the records print it: 2r+15, r-1, -r, 7."""
    return format_poly(p).replace("*", "").replace(" ", "")


class Assumption:
    """Validity domain for parametric dimensions: r >= r_min, or r fixed."""

    __slots__ = ("r_min", "fixed")

    def __init__(self, r_min: int | None = None, fixed: int | None = None):
        if (r_min is None) == (fixed is None):
            raise ValueError("give exactly one of r_min or fixed")
        self.r_min = r_min
        self.fixed = fixed

    def describe(self) -> str:
        return f"r = {self.fixed}" if self.fixed is not None else f"r >= {self.r_min}"

    def specialize(self, p: MultiPoly) -> MultiPoly:
        """p at r = fixed; p itself under r >= r_min."""
        if self.fixed is None or p.is_constant():
            return p
        return p.substitute({"r": self.fixed})

    def nonneg(self, p: MultiPoly) -> bool:
        """True when p >= 0 provably on the admissible range.

        Substitutes r = fixed, or r = r_min + x, and asks for nonnegative
        coefficients: sound, and complete for linear forms.  A constant is
        its own coefficient, so it is read as it stands.
        """
        if not p.is_constant():
            at = self.fixed if self.fixed is not None else var("x") + self.r_min
            p = p.substitute({"r": at})
        return all(c >= 0 for c in p.numerators()[0].values())

    def check_nonneg(self, p: MultiPoly, context: str) -> None:
        """Certify p >= 0 on the admissible range or raise.

        A provable violation raises InconsistentSequenceError; inability to
        certify raises UndecidableSignError.
        """
        if self.nonneg(p):
            return
        if self.fixed is not None:
            raise InconsistentSequenceError(
                f"negative dimension in {context}: {self.specialize(p)}"
            )
        n, d = p.substitute({"r": self.r_min}).constant_pair()
        if n < 0:
            at_min = n if d == 1 else f"{n}/{d}"  # as str(Fraction) prints it
            raise InconsistentSequenceError(
                f"negative dimension in {context} at r = {self.r_min}: {at_min}"
            )
        raise UndecidableSignError(
            f"cannot certify nonnegativity of {p} under {self.describe()} in {context}"
        )


# -- conic line bundles ------------------------------------------------------


class ConicBundle(Value):
    """L^k (m) on the conic; pullback degree to P^1 is k*r + 2m."""

    __slots__ = ("k", "m")

    def __init__(self, k: int, m: int):
        self.k = k
        self.m = m

    def tensor(self, other: "ConicBundle") -> "ConicBundle":
        return ConicBundle(self.k + other.k, self.m + other.m)

    def power(self, n: int) -> "ConicBundle":
        return ConicBundle(n * self.k, n * self.m)

    def __str__(self) -> str:
        return f"L^{self.k}({self.m})"


L_BUNDLE = ConicBundle(1, 0)
# the conormal bundle I_C/I_C^2 = O_C(-1) + O_C(-2) of a plane conic C, by its twists
CONORMAL_TWISTS = (-1, -2)
# omega_Y restricted to C: omega_C tensor L^(-1), with omega_C = O_C(-1) by
# adjunction from omega_P3 = O(-4) and det N_C = O_C(-sum(CONORMAL_TWISTS))
OMEGA_Y_ON_C = L_BUNDLE.power(-1).tensor(ConicBundle(0, -4 - sum(CONORMAL_TWISTS)))


def pullback_degree(c: ConicBundle) -> MultiPoly:
    """Degree on P^1 of the pullback; O_C(1) pulls back to degree 2."""
    return c.k * var("r") + 2 * c.m


class CohomPair(Value):
    """(h^0, h^1) of a line bundle on P^1, as linear forms in r."""

    __slots__ = ("h0", "h1")

    def __init__(self, h0: MultiPoly, h1: MultiPoly):
        self.h0 = h0
        self.h1 = h1


def h_p1(d: MultiPoly, assumption: Assumption) -> CohomPair:
    """Cohomology of O_P1(d): h^0 = max(d+1, 0), h^1 = max(-d-1, 0).

    The linear forms d+1 and -d-1 both vanish at d = -1, so each is exact
    on a closed half-line: (d+1, 0) whenever d >= -1 throughout the
    admissible range, (0, -d-1) whenever d <= -1 throughout.  Degrees whose
    position relative to -1 is undecidable under the assumption raise
    UndecidableSignError.  Under a fixed assumption d is evaluated first,
    so the result is a pair of constants: a symbolic form produced by a
    case split at one value of r would not be valid elsewhere.
    """
    d = assumption.specialize(d)
    if assumption.nonneg(d + 1):
        return CohomPair(d + 1, MultiPoly.zero())
    if assumption.nonneg(-d - 1):
        return CohomPair(MultiPoly.zero(), -d - 1)
    raise UndecidableSignError(
        f"sign of degree {format_dim(d)} undecidable under {assumption.describe()}"
    )


def h_p2(d: MultiPoly, assumption: Assumption) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Cohomology of O_P2(d): h^0 = C(d+2,2), h^1 = 0 always, h^2 = C(-d-1,2).

    Both counts equal the same quadratic (d+2)(d+1)/2, which vanishes at
    d = -1 and d = -2; so it is the exact h^0 whenever d >= -2 throughout
    the admissible range and the exact h^2 whenever d <= -1 throughout.
    Under a fixed assumption d is evaluated first, as in h_p1.
    """
    d = assumption.specialize(d)
    zero = MultiPoly.zero()
    count = ((d + 2) * (d + 1)).scalar_div(2)
    if assumption.nonneg(d + 2):
        return count, zero, zero
    if assumption.nonneg(-d - 1):
        return zero, zero, count
    raise UndecidableSignError(
        f"sign of degree {format_dim(d)} undecidable under {assumption.describe()}"
    )


# -- exact-sequence solving --------------------------------------------------


def _solve_chain(
    dims: list[MultiPoly | None],
    injective: Sequence[int],
    assumption: Assumption,
) -> list[MultiPoly]:
    """Fill in the unknown entries of an exact chain 0 -> V_0 -> ... -> 0.

    dims holds exact dimensions (MultiPoly) or None; arrow i joins V_i to
    V_(i+1), and each arrow i in injective is injective, with V_i known.
    Returns the completed dimension list.  Every rank passes set_rank's
    nonnegativity check, so a solved term, the sum of its two ranks, needs
    none of its own: Assumption.nonneg is closed under sums, because after
    r = fixed or r = r_min + x the coefficients of a sum are sums of
    nonnegative coefficients.
    """
    L = len(dims)
    ranks: list[MultiPoly | None] = [None] * (L + 1)  # rank of arrow into V_i is ranks[i]
    ranks[0] = MultiPoly.zero()
    ranks[L] = MultiPoly.zero()

    def set_rank(i: int, value: MultiPoly, context: str) -> None:
        assumption.check_nonneg(value, context)
        if ranks[i] is None:
            ranks[i] = value
        elif ranks[i] != value:
            raise InconsistentSequenceError(
                f"conflicting ranks at arrow {i - 1}: {ranks[i]} vs {value}"
            )

    for arrow in injective:
        set_rank(arrow + 1, dims[arrow], f"injective arrow {arrow}")

    changed = True
    while changed:
        changed = False
        for i in range(L):
            d = dims[i]
            if d is None:
                continue
            left, right = ranks[i], ranks[i + 1]
            if d.is_zero() and (left is None or right is None):
                set_rank(i, MultiPoly.zero(), f"zero term {i}")
                set_rank(i + 1, MultiPoly.zero(), f"zero term {i}")
                changed = True
            elif left is not None and right is None:
                set_rank(i + 1, d - left, f"term {i}")
                changed = True
            elif right is not None and left is None:
                set_rank(i, d - right, f"term {i}")
                changed = True

    out: list[MultiPoly] = []
    for i in range(L):
        left, right = ranks[i], ranks[i + 1]
        if dims[i] is not None:
            if left is not None and right is not None and dims[i] != left + right:
                raise InconsistentSequenceError(
                    f"exactness fails at position {i}: {dims[i]} != {left} + {right}"
                )
            out.append(dims[i])
        elif left is None or right is None:
            raise UnderdeterminedError(
                f"facts insufficient to determine the term at position {i}"
            )
        else:
            out.append(left + right)
    return out


def solve_exact_sequence(
    a: CohomPair, c: CohomPair, assumption: Assumption, connecting_injective: bool = False
) -> CohomPair:
    """The (h^0, h^1) pair of the middle term B of 0 -> A -> B -> C -> 0.

    Solves the six-term sequence 0 -> H0A -> H0B -> H0C -> H1A -> H1B ->
    H1C -> 0; connecting_injective declares the connecting map H0C -> H1A
    (arrow 2) injective.
    """
    dims = [a.h0, None, c.h0, a.h1, None, c.h1]
    solved = _solve_chain(dims, (2,) if connecting_injective else (), assumption)
    return CohomPair(solved[1], solved[4])


# -- the composite double-conic computation ----------------------------------


def normal_sheaf_sequences() -> dict[str, ConicBundle]:
    """The fixed sheaf identifications feeding the tangent-space computation.

    Each follows from the conormal twists and the doubling bundle L, by
    additivity of determinants in short exact sequences of bundles:
      I_Y/I_C^2 = det(I_C/I_C^2) tensor L^(-1)                   = L^(-1)(-3)
      det of I_C I_Y/I_C^3 = det(Sym^2 I_C/I_C^2) tensor L^(-2)  = L^(-2)(-9)
      middle quotient = that determinant tensor (I_Y/I_C^2)^(-2) = O_C(-3)
    """
    det = sum(CONORMAL_TWISTS)
    sym2_det = sum(a + b for i, a in enumerate(CONORMAL_TWISTS) for b in CONORMAL_TWISTS[i:])
    iy_ic2 = ConicBundle(0, det).tensor(L_BUNDLE.power(-1))
    det_icy = ConicBundle(0, sym2_det).tensor(L_BUNDLE.power(-2))
    return {"iy_ic2": iy_ic2, "det_icy": det_icy, "quotient": det_icy.tensor(iy_ic2.power(-2))}


def double_conic_side_terms() -> dict[str, ConicBundle]:
    """The four side terms of the two auxiliary sequences, tensored by omega."""
    pieces = normal_sheaf_sequences()
    return {
        # sequence (first auxiliary): L^2 tensor omega and I_Y/I_C^2 tensor omega
        "aux1_left": L_BUNDLE.power(2).tensor(OMEGA_Y_ON_C),
        "aux1_right": pieces["iy_ic2"].tensor(OMEGA_Y_ON_C),
        # sequence (second auxiliary): L^3 tensor omega and O_C(-3) tensor omega
        "aux2_left": L_BUNDLE.power(3).tensor(OMEGA_Y_ON_C),
        "aux2_right": pieces["quotient"].tensor(OMEGA_Y_ON_C),
    }


def double_conic_side_pairs(assumption: Assumption) -> dict[str, CohomPair]:
    """(h^0, h^1) of each side term, keyed as in double_conic_side_terms."""
    return {
        key: h_p1(pullback_degree(bundle), assumption)
        for key, bundle in double_conic_side_terms().items()
    }


def tangent_dimension_double_conic(
    sides: dict[str, CohomPair], assumption: Assumption, injectivity_certificate: bool
) -> tuple[CohomPair, CohomPair, CohomPair]:
    """h^0 of the normal sheaf of a double conic, via three chained sequences.

    sides are the pairs of double_conic_side_pairs(assumption).  Returns
    the solved pairs (aux1, aux2, main) of the two auxiliary sequences and
    the main one; the tangent dimension is main.h1.  Requires the
    connecting-map injectivity certificate produced by the graded module
    (graded.symbolic_injectivity); without it the main sequence is
    underdetermined.
    """
    if not injectivity_certificate:
        raise EngineError("missing injectivity certificate; cannot solve the middle sequence")
    aux1 = solve_exact_sequence(sides["aux1_left"], sides["aux1_right"], assumption)
    aux2 = solve_exact_sequence(sides["aux2_left"], sides["aux2_right"], assumption)
    main = solve_exact_sequence(aux2, aux1, assumption, connecting_injective=True)
    return aux1, aux2, main


def section_degrees() -> tuple[MultiPoly, ...]:
    """Degrees on P^1 of the section pair (a, b) of a doubling, r+2 and r+4.

    A doubling by L is a surjection I_C/I_C^2 -> L, that is a section of
    L tensor O_C(-m) for each conormal twist m, pulled back to P^1.
    """
    return tuple(pullback_degree(L_BUNDLE.tensor(ConicBundle(0, -m))) for m in CONORMAL_TWISTS)


def family_dimension(assumption: Assumption) -> MultiPoly:
    """Dimension of the family of double conics: 8 for the conic plus the
    section pair (a, b) modulo scale."""
    return sum(h_p1(d, assumption).h0 for d in section_degrees()) + 7  # 8 + (h^0(a) + h^0(b) - 1)


def ext_vanishing_claim(r_value: int | None = None) -> bool:
    """H^1 of the twisted dual kernel bundle on P^2 vanishes.

    From 0 -> G -> 3 O(-1) -> O(r) -> 0, dualizing and twisting by 2r gives
    0 -> O(r) -> 3 O(2r+1) -> G^dual(2r) -> 0; the nine-term cohomology
    chain then forces h^1(G^dual(2r)) = 0.  Symbolic for r >= 0 when no
    fixed value is given.
    """
    assumption = Assumption(fixed=r_value) if r_value is not None else Assumption(r_min=0)
    r = var("r")
    a_dims = h_p2(r, assumption)
    b_raw = h_p2(2 * r + 1, assumption)
    b_dims = tuple(3 * d for d in b_raw)
    dims: list[MultiPoly | None] = [
        a_dims[0], b_dims[0], None,
        a_dims[1], b_dims[1], None,
        a_dims[2], b_dims[2], None,
    ]
    solved = _solve_chain(dims, (), assumption)
    return solved[5].is_zero()
