"""Truncated Chow-ring computations on projective n-space.

Classes on P^n live in Q[h]/(h^(n+1)) with h the hyperplane class; an
element is a MultiPoly in h of h-degree at most n, whose h^i coefficient
is a polynomial in the other variables (so Chern classes may carry
parameters).  truncate reduces a product mod h^(n+1); reduction is a ring
map, so truncating after every product never changes a coefficient of
degree <= n and only bounds the term counts.  On top of that sit the
Chern character (via Newton's identities), Adams operations, wedge powers
of rank-3 bundles, the Todd class by exact series inversion, and Euler
characteristics via the hyperplane-degree pairing.

Every closed-form path has an independent verification path through
symbolic splitting roots a1, a2, a3 (see splitting_oracle).  A class
derived once with symbolic Chern classes c1, c2, c3 serves every concrete
bundle through specialize, so the split-bundle oracles of the wedge and
Koszul targets check the symbolic result directly instead of re-running
the pipeline per bundle.  Their bundles have integer degrees, so they are
evaluated at integer Chern classes (split_chern in plain ints), which
MultiPoly.substitute takes in its one-pass scalar route; symbolic bundles,
such as the splitting roots, keep the polynomial route.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from . import EngineError, Value
from .arith import MultiPoly, Scalar, as_poly, exponent, shifted_binomial, var

MAX_AMBIENT = 8


def truncate(p: MultiPoly, n: int) -> MultiPoly:
    """p mod h^(n+1): the terms of h-degree at most n."""
    num, den = p.numerators()
    return MultiPoly._reduced({key: c for key, c in num.items() if exponent(key, "h") <= n}, den)


def truncated_product(a: MultiPoly, b: MultiPoly, n: int) -> MultiPoly:
    """truncate(a * b, n), without forming the terms the truncation drops.

    The h^i part of a meets only the terms of b of h-degree at most n - i,
    so each part is multiplied by that truncation of b alone.
    """
    num, den = a.numerators()
    parts: dict = {}
    for key, c in num.items():
        parts.setdefault(exponent(key, "h"), {})[key] = c
    return MultiPoly.sum(
        MultiPoly._reduced(part, den) * truncate(b, n - i) for i, part in parts.items() if i <= n
    )


class BundleClass(Value):
    """A rank together with Chern classes c1..c_rank (possibly parametric)."""

    __slots__ = ("rank", "chern", "ambient_dim")

    def __init__(self, rank: int, chern: Sequence[MultiPoly | Scalar], ambient_dim: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if not 1 <= ambient_dim <= MAX_AMBIENT:
            raise ValueError(f"ambient dimension must be in 1..{MAX_AMBIENT}")
        if len(chern) != rank:
            raise ValueError(f"expected {rank} Chern classes, got {len(chern)}")
        entries = tuple(as_poly(c) for c in chern)
        for i, c in enumerate(entries, start=1):
            if i > ambient_dim and not c.is_zero():
                raise ValueError(f"c{i} lies beyond the ambient truncation and must vanish")
        self.rank = rank
        self.chern = entries
        self.ambient_dim = ambient_dim


def line_bundle(degree: MultiPoly | Scalar, n: int) -> BundleClass:
    return BundleClass(1, [as_poly(degree)], n)


def split_bundle(degrees: Sequence[MultiPoly | Scalar], n: int) -> BundleClass:
    """Direct sum of line bundles, encoded by elementary symmetric functions."""
    return BundleClass(len(degrees), split_chern(degrees), n)


def split_chern(degrees: Sequence[MultiPoly | Scalar]) -> list:
    """c_1..c_r of the direct sum of line bundles O(d_1) + ... + O(d_r).

    The elementary symmetric functions of the degrees, formed in their own
    arithmetic: plain ints for int degrees, so an integer split bundle is
    checked without polynomial arithmetic.
    """
    e: list = []  # e[j] is e_(j+1) of the degrees so far; e_0 = 1 is never multiplied
    for v in degrees:
        # e_j += v e_(j-1) from the top down, so each slot reads the old e_(j-1);
        # the new top slot is assigned, and e_1 gains v itself
        e.append(v * e[-1] if e else v)
        for j in range(len(e) - 2, 0, -1):
            e[j] = e[j] + v * e[j - 1]
        if len(e) > 1:
            e[0] = e[0] + v
    return e


def _newton_sum(c: Sequence[MultiPoly], p: list[MultiPoly], k: int) -> MultiPoly:
    """sum over i < k of (-1)^(i-1) c_i p_(k-i), with c_i = 0 past len(c).

    Newton's identities read p_k = this sum + (-1)^(k-1) k c_k.
    """
    return MultiPoly.sum(
        (-1) ** (i - 1) * c[i - 1] * p[k - i - 1] for i in range(1, min(k, len(c) + 1))
    )


def _power_sums(chern: Sequence[MultiPoly], upto: int) -> list[MultiPoly]:
    """Power sums p_1..p_upto of the Chern roots, by Newton's identities."""
    p: list[MultiPoly] = []
    for k in range(1, upto + 1):
        c_k = chern[k - 1] if k <= len(chern) else MultiPoly.zero()
        p.append(_newton_sum(chern, p, k) + (-1) ** (k - 1) * k * c_k)
    return p


@functools.cache
def chern_character(B: BundleClass) -> MultiPoly:
    """ch(B) = rank + sum p_k / k! h^k, truncated at the ambient dimension; cached per bundle."""
    n = B.ambient_dim
    p = _power_sums(B.chern, n)
    h = var("h")
    return MultiPoly.sum(
        [B.rank, *(p[k - 1].scalar_div(math.factorial(k)) * h**k for k in range(1, n + 1))]
    )


def chern_from_character(ch: MultiPoly, rank: int, n: int) -> list[MultiPoly]:
    """Invert Newton's identities: recover c_1..c_n from a Chern character on P^n.

    The h^0 part of ch must equal the given rank.
    """
    if ch.coeff_of("h", 0) != rank:
        raise ValueError(f"character rank {ch.coeff_of('h', 0)} does not match {rank}")
    p = [ch.coeff_of("h", k) * math.factorial(k) for k in range(1, n + 1)]
    c: list[MultiPoly] = []
    for k in range(1, n + 1):
        c.append((p[k - 1] - _newton_sum(c, p, k)).scalar_div((-1) ** (k - 1) * k))
    return c


@functools.cache
def adams_operation(k: int, c: MultiPoly) -> MultiPoly:
    """psi^k: the ring map h -> k*h, which scales the h^i component by k^i; cached."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("Adams operations need k >= 1")
    return c.substitute({"h": k * var("h")})


@functools.cache
def wedge_powers(B: BundleClass) -> tuple[BundleClass, BundleClass]:
    """Chern classes of wedge^2 and wedge^3 of a rank-3 bundle.

    Uses the Adams-operation identities
      ch(wedge^2 E) = (ch(E)^2 - psi^2 ch(E)) / 2
      ch(wedge^3 E) = (ch(E)^3 - 3 ch(E) psi^2 ch(E) + 2 psi^3 ch(E)) / 6
    and converts back to Chern classes.  wedge^3 must come out as a line
    bundle with first Chern class c1(E); anything else is an error.
    Cached per bundle, so the symbolic classes are derived once per process
    and every caller shares the same immutable result.
    """
    if B.rank != 3:
        raise ValueError("wedge_powers is implemented for rank 3 exactly")
    n = B.ambient_dim
    ch = chern_character(B)
    psi2 = adams_operation(2, ch)
    psi3 = adams_operation(3, ch)
    square = truncated_product(ch, ch, n)
    ch2 = (square - psi2).scalar_div(2)
    cube = truncated_product(square, ch, n)
    ch3 = (cube - 3 * truncated_product(ch, psi2, n) + 2 * psi3).scalar_div(6)
    c_wedge2 = chern_from_character(ch2, 3, n)
    c_wedge3 = chern_from_character(ch3, 1, n)
    for extra in c_wedge3[1:]:
        if not extra.is_zero():
            raise EngineError("wedge^3 of a rank-3 bundle must be a line bundle")
    if c_wedge3[0] != B.chern[0]:
        raise EngineError("wedge^3 first Chern class must equal c1")
    lam2 = BundleClass(3, [c_wedge2[0], c_wedge2[1], c_wedge2[2]], n)
    lam3 = BundleClass(1, [c_wedge3[0]], n)
    return lam2, lam3


@functools.cache
def todd_class(n: int) -> MultiPoly:
    """Todd class of P^n: (h / (1 - exp(-h)))^(n+1), truncated at h^n.

    The series 1/(1 - exp(-h)) * h = sum is obtained by exact inversion of
    (1 - exp(-h))/h; no hard-coded coefficient tables.  Cached per n, so
    callers share one immutable value.
    """
    if not 1 <= n <= MAX_AMBIENT:
        raise ValueError(f"ambient dimension must be in 1..{MAX_AMBIENT}")
    # f = (1 - exp(-h))/h has h^k coefficient (-1)^k / (k+1)! = f[k] / D,
    # D = (n+1)!, with f[0] = D.
    D = math.factorial(n + 1)
    f = [(-1) ** k * (D // math.factorial(k + 1)) for k in range(n + 1)]
    # invert: g with f*g = 1 mod h^(n+1); g_k = G[k] / D^k, from
    # g_k = -sum_{i=1..k} f_i g_(k-i) since f_0 = 1
    G = [1] * (n + 1)
    for k in range(1, n + 1):
        G[k] = -sum(f[i] * G[k - i] * D ** (i - 1) for i in range(1, k + 1))
    h = var("h")
    base = MultiPoly.sum((h**k * G[k]).scalar_div(D**k) for k in range(n + 1))
    td = base
    for _ in range(n):
        td = truncated_product(td, base, n)
    return td


def _exp(a: MultiPoly, n: int) -> MultiPoly:
    """exp(a*h) truncated at h^n: h^k coefficient a^k / k!."""
    ah = a * var("h")
    terms = [MultiPoly.const(1)]
    for k in range(1, n + 1):
        terms.append((terms[-1] * ah).scalar_div(k))
    return MultiPoly.sum(terms)


@functools.cache
def twisted_todd(n: int) -> MultiPoly:
    """exp(th) td(P^n), truncated at h^n.  Cached per n, so callers share one immutable value."""
    return truncated_product(_exp(var("t"), n), todd_class(n), n)


def _riemann_roch(ch: MultiPoly, n: int) -> MultiPoly:
    """chi(E(t)) on P^n for ch = ch(E): the h^n coefficient of ch exp(th) td(P^n).

    Only the h^(n-k) part of exp(th) td(P^n) meets the h^k part of ch, so
    the degree-n coefficient is read as that pairing, without the product.
    """
    series = twisted_todd(n)
    return MultiPoly.sum(ch.coeff_of("h", k) * series.coeff_of("h", n - k) for k in range(n + 1))


def euler_characteristic(B: BundleClass) -> MultiPoly:
    """chi(B(t)) on P^n, n = B.ambient_dim: the h^n coefficient of ch(B) exp(th) td(P^n)."""
    return _riemann_roch(chern_character(B), B.ambient_dim)


@functools.cache
def koszul_euler(B: BundleClass) -> MultiPoly:
    """Euler characteristic of the zero scheme of a section of a rank-3 bundle.

    From the resolution wedge^3 E -> wedge^2 E -> E -> O of the structure
    sheaf of the zero scheme in P^n, n = B.ambient_dim:
      chi_Y(t) = chi(O(t)) - chi(E(t)) + chi(wedge^2 E(t)) - chi(wedge^3 E(t)).
    The result has degree at most n - 3 in t (codimension-3 zero locus);
    this is checked exactly.  Cached per bundle, like wedge_powers.
    """
    n = B.ambient_dim
    if B.rank != 3 or n < 3:
        raise ValueError("koszul_euler needs a rank-3 bundle on P^n, n >= 3")
    lam2, lam3 = wedge_powers(B)
    chi = (
        euler_characteristic(line_bundle(MultiPoly.zero(), n))
        - euler_characteristic(B)
        + euler_characteristic(lam2)
        - euler_characteristic(lam3)
    )
    if chi.degree("t") > n - 3:
        raise EngineError(f"Koszul Euler characteristic must have degree <= {n - 3} in t")
    return chi


def specialize(p: MultiPoly, chern: Sequence[MultiPoly | Scalar]) -> MultiPoly:
    """p with (c1, c2, ...) := chern, the Chern classes of a bundle B.

    Substitution is a ring homomorphism, and every step of chern_character,
    wedge_powers, euler_characteristic and koszul_euler is a Q-algebra
    operation on the Chern classes, so a result derived once with symbolic
    c1..c_rank specializes to the result for B; the self-checks that hold
    symbolically hold at every specialization.  chern is B.chern, or plain
    ints (split_chern of integer degrees), which substitute takes in one
    integer pass.
    """
    return p.substitute({f"c{i}": c for i, c in enumerate(chern, start=1)})


# -- independent verification path ------------------------------------------


def _root_character(roots: list[MultiPoly], n: int) -> MultiPoly:
    """ch of a formal sum of line bundles with the given first Chern roots."""
    return MultiPoly.sum(_exp(a, n) for a in roots)


def splitting_oracle(rank: int, n: int = 5) -> dict[str, bool]:
    """Re-derive the closed-form paths with symbolic splitting roots.

    Works with fully symbolic roots a1..a_rank, builds every quantity from
    the root side, substitutes elementary symmetric functions, and compares
    with the Chern-class side.  Returns one verdict per identity.
    """
    if not 1 <= rank <= 3:
        raise ValueError("splitting_oracle supports rank 1..3")
    roots = [var(f"a{i}") for i in range(1, rank + 1)]
    rooted = split_bundle(roots, n).chern
    symbolic = BundleClass(rank, [var(f"c{i}") for i in range(1, rank + 1)], n)

    report: dict[str, bool] = {}
    ch_closed = chern_character(symbolic)
    ch_roots = _root_character(roots, n)
    report["chern_character"] = specialize(ch_closed, rooted) == ch_roots
    for k in (2, 3):
        scaled = _root_character([k * a for a in roots], n)
        report[f"adams_{k}"] = specialize(adams_operation(k, ch_closed), rooted) == scaled
    if rank == 3:
        lam2, lam3 = wedge_powers(symbolic)
        pair_roots = [roots[0] + roots[1], roots[0] + roots[2], roots[1] + roots[2]]
        lam2_roots = split_chern(pair_roots)
        report["wedge2"] = all(
            specialize(lam2.chern[i], rooted) == lam2_roots[i] for i in range(3)
        )
        report["wedge3"] = specialize(lam3.chern[0], rooted) == roots[0] + roots[1] + roots[2]
        chi_closed = specialize(koszul_euler(symbolic), rooted)
        chi_roots = _koszul_from_roots(roots, n)
        report["koszul_euler"] = chi_closed == chi_roots
    return report


def _koszul_from_roots(roots: list[MultiPoly], n: int) -> MultiPoly:
    """Koszul alternating sum computed purely on the root side."""
    triv = _root_character([MultiPoly.zero()], n)
    e = _root_character(roots, n)
    pairs = _root_character(
        [roots[0] + roots[1], roots[0] + roots[2], roots[1] + roots[2]], n
    )
    top = _root_character([roots[0] + roots[1] + roots[2]], n)
    return _riemann_roch(triv - e + pairs - top, n)


def koszul_complete_intersection(degrees: Sequence[int], n: int = 5) -> MultiPoly:
    """Direct alternating binomial sum for a complete intersection.

    For Y cut out by hypersurfaces of the given degrees,
      chi_Y(t) = sum over subsets S of (-1)^|S| C(t - sum(S) + n, n),
    with each binomial built from its linear factors as
    (t - sum(S) + 1) ... (t - sum(S) + n) / n!, once per (sum(S), n) in a
    process (arith.shifted_binomial).
    Serves as the independent oracle for koszul_euler on split bundles of
    the form O(-d1) + O(-d2) + O(-d3).
    """
    return MultiPoly.sum(
        (-1) ** bin(mask).count("1")
        * shifted_binomial(sum(d for i, d in enumerate(degrees) if mask >> i & 1), n)
        for mask in range(1 << len(degrees))
    )
