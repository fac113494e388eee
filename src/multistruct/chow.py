"""Truncated Chow-ring computations on projective n-space.

Classes on P^n live in Q[h]/(h^(n+1)) with h the hyperplane class; an
element is stored as the list of its h^0..h^n coefficients, each an exact
MultiPoly (so Chern classes may carry parameters).  On top of that sit the
Chern character (via Newton's identities), Adams operations, wedge powers
of rank-3 bundles, the Todd class by exact series inversion, and Euler
characteristics via the hyperplane-degree pairing.

Every closed-form path has an independent verification path through
symbolic splitting roots a1, a2, a3 (see splitting_oracle).  A class
derived once with symbolic Chern classes c1, c2, c3 serves every concrete
bundle through specialize, so the split-bundle oracles of the wedge and
Koszul targets check the symbolic result directly instead of re-running
the pipeline per bundle.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from . import EngineError, Value
from .arith import MultiPoly, Scalar, var

MAX_AMBIENT = 8


def _poly(value: MultiPoly | Scalar) -> MultiPoly:
    return value if isinstance(value, MultiPoly) else MultiPoly.const(value)


class ChowElem:
    """Element of Q[h]/(h^(n+1)): coeffs[i] is the h^i coefficient."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Sequence[MultiPoly | Scalar] | None = None):
        if not 0 <= n <= MAX_AMBIENT:
            raise ValueError(f"ambient dimension must be in 0..{MAX_AMBIENT}")
        self.n = n
        filled = [MultiPoly.zero()] * (n + 1)
        if coeffs is not None:
            if len(coeffs) > n + 1:
                raise ValueError("too many coefficients for the truncation")
            for i, c in enumerate(coeffs):
                filled[i] = _poly(c)
        self.coeffs = filled

    @classmethod
    def unit(cls, n: int) -> "ChowElem":
        return cls(n, [MultiPoly.const(1)])

    def _check(self, other: "ChowElem") -> None:
        if self.n != other.n:
            raise ValueError("mixed ambient dimensions")

    def __add__(self, other: "ChowElem") -> "ChowElem":
        self._check(other)
        return ChowElem(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "ChowElem") -> "ChowElem":
        self._check(other)
        return ChowElem(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "ChowElem":
        return ChowElem(self.n, [-a for a in self.coeffs])

    def __mul__(self, other) -> "ChowElem":
        if isinstance(other, ChowElem):
            self._check(other)
            out = [MultiPoly.zero()] * (self.n + 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j in range(self.n + 1 - i):
                    b = other.coeffs[j]
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
            return ChowElem(self.n, out)
        return ChowElem(self.n, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def scalar_div(self, value: Scalar) -> "ChowElem":
        return ChowElem(self.n, [c.scalar_div(value) for c in self.coeffs])

    def __pow__(self, k: int) -> "ChowElem":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ChowElem.unit(self.n)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowElem)
            and self.n == other.n
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.coeffs)))

    def __repr__(self) -> str:
        parts = [f"h^{i}: {c}" for i, c in enumerate(self.coeffs)]
        return "ChowElem(" + "; ".join(parts) + ")"


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
        entries = tuple(_poly(c) for c in chern)
        for i, c in enumerate(entries, start=1):
            if i > ambient_dim and not c.is_zero():
                raise ValueError(f"c{i} lies beyond the ambient truncation and must vanish")
        self.rank = rank
        self.chern = entries
        self.ambient_dim = ambient_dim


def line_bundle(degree: MultiPoly | Scalar, n: int) -> BundleClass:
    return BundleClass(1, [_poly(degree)], n)


def split_bundle(degrees: Sequence[MultiPoly | Scalar], n: int) -> BundleClass:
    """Direct sum of line bundles, encoded by elementary symmetric functions."""
    degs = [_poly(d) for d in degrees]
    elem = _elementary_symmetric(degs)
    return BundleClass(len(degs), elem, n)


def _elementary_symmetric(values: list[MultiPoly]) -> list[MultiPoly]:
    k = len(values)
    e = [MultiPoly.zero()] * (k + 1)
    e[0] = MultiPoly.const(1)
    count = 0
    for v in values:
        count += 1
        for j in range(count, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e[1:]


def _power_sums(chern: list[MultiPoly], upto: int) -> list[MultiPoly]:
    """Power sums p_1..p_upto of the Chern roots, by Newton's identities."""
    p: list[MultiPoly] = []
    for k in range(1, upto + 1):
        acc = MultiPoly.zero()
        for i in range(1, k):
            c_i = chern[i - 1] if i <= len(chern) else MultiPoly.zero()
            sign = 1 if (i - 1) % 2 == 0 else -1
            acc = acc + sign * c_i * p[k - i - 1]
        c_k = chern[k - 1] if k <= len(chern) else MultiPoly.zero()
        sign = 1 if (k - 1) % 2 == 0 else -1
        p.append(acc + sign * k * c_k)
    return p


def chern_character(B: BundleClass) -> ChowElem:
    """ch(B) = rank + sum p_k / k! h^k, truncated at the ambient dimension."""
    n = B.ambient_dim
    p = _power_sums(list(B.chern), n)
    coeffs: list[MultiPoly | Scalar] = [MultiPoly.const(B.rank)]
    for k in range(1, n + 1):
        coeffs.append(p[k - 1].scalar_div(math.factorial(k)))
    return ChowElem(n, coeffs)


def chern_from_character(ch: ChowElem, rank: int) -> list[MultiPoly]:
    """Invert Newton's identities: recover c_1..c_n from a Chern character.

    The h^0 part of ch must equal the given rank.
    """
    if ch.coeffs[0] != rank:
        raise ValueError(f"character rank {ch.coeffs[0]} does not match {rank}")
    n = ch.n
    p = [ch.coeffs[k] * math.factorial(k) for k in range(1, n + 1)]
    c: list[MultiPoly] = []
    for k in range(1, n + 1):
        acc = p[k - 1]
        for i in range(1, k):
            sign = 1 if (i - 1) % 2 == 0 else -1
            acc = acc - sign * c[i - 1] * p[k - i - 1]
        sign = 1 if (k - 1) % 2 == 0 else -1
        c.append(acc.scalar_div(sign * k))
    return c


def adams_operation(k: int, c: ChowElem) -> ChowElem:
    """psi^k: scales the h^i component by k^i."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("Adams operations need k >= 1")
    return ChowElem(c.n, [coeff * (k**i) for i, coeff in enumerate(c.coeffs)])


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
    ch2 = (ch * ch - psi2).scalar_div(2)
    ch3 = (ch * ch * ch - 3 * (ch * psi2) + 2 * psi3).scalar_div(6)
    c_wedge2 = chern_from_character(ch2, 3)
    c_wedge3 = chern_from_character(ch3, 1)
    for extra in c_wedge3[1:]:
        if not extra.is_zero():
            raise EngineError("wedge^3 of a rank-3 bundle must be a line bundle")
    if c_wedge3[0] != B.chern[0]:
        raise EngineError("wedge^3 first Chern class must equal c1")
    lam2 = BundleClass(3, [c_wedge2[0], c_wedge2[1], c_wedge2[2]], n)
    lam3 = BundleClass(1, [c_wedge3[0]], n)
    return lam2, lam3


@functools.cache
def todd_class(n: int) -> ChowElem:
    """Todd class of P^n: (h / (1 - exp(-h)))^(n+1), truncated at h^n.

    The series 1/(1 - exp(-h)) * h = sum is obtained by exact inversion of
    (1 - exp(-h))/h; no hard-coded coefficient tables.  Cached per n, so
    callers share one value and must not mutate its coeffs.
    """
    if not 1 <= n <= MAX_AMBIENT:
        raise ValueError(f"ambient dimension must be in 1..{MAX_AMBIENT}")
    # f = (1 - exp(-h))/h has h^k coefficient (-1)^k / (k+1)!
    f = [Fraction(-1) ** k / math.factorial(k + 1) for k in range(n + 1)]
    # invert: g with f*g = 1 mod h^(n+1)
    g = [Fraction(0)] * (n + 1)
    g[0] = 1 / f[0]
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += f[i] * g[k - i]
        g[k] = -acc / f[0]
    base = ChowElem(n, [MultiPoly.const(c) for c in g])
    return base ** (n + 1)


def _exp_th(n: int) -> ChowElem:
    """exp(t*h) truncated: h^k coefficient t^k / k!."""
    t = var("t")
    return ChowElem(n, [(t**k).scalar_div(math.factorial(k)) for k in range(n + 1)])


def euler_characteristic(B: BundleClass) -> MultiPoly:
    """chi(B(t)) on P^n, n = B.ambient_dim: the h^n coefficient of ch(B) exp(th) td(P^n)."""
    n = B.ambient_dim
    total = chern_character(B) * _exp_th(n) * todd_class(n)
    return total.coeffs[n]


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


def specialize(p: MultiPoly, B: BundleClass) -> MultiPoly:
    """p with (c1, c2, ...) := B.chern.

    Substitution is a ring homomorphism, and every step of chern_character,
    wedge_powers, euler_characteristic and koszul_euler is a Q-algebra
    operation on the Chern classes, so a result derived once with symbolic
    c1..c_rank specializes to the result for B; the self-checks that hold
    symbolically hold at every specialization.
    """
    return p.substitute({f"c{i}": c for i, c in enumerate(B.chern, start=1)})


# -- independent verification path ------------------------------------------


def _root_character(roots: list[MultiPoly], n: int) -> ChowElem:
    """ch of a formal sum of line bundles with the given first Chern roots."""
    coeffs = [MultiPoly.zero()] * (n + 1)
    coeffs[0] = MultiPoly.const(len(roots))
    for k in range(1, n + 1):
        acc = MultiPoly.zero()
        for a in roots:
            acc = acc + a**k
        coeffs[k] = acc.scalar_div(math.factorial(k))
    return ChowElem(n, coeffs)


def splitting_oracle(rank: int, n: int = 5) -> dict[str, bool]:
    """Re-derive the closed-form paths with symbolic splitting roots.

    Works with fully symbolic roots a1..a_rank, builds every quantity from
    the root side, substitutes elementary symmetric functions, and compares
    with the Chern-class side.  Returns one verdict per identity.
    """
    if not 1 <= rank <= 3:
        raise ValueError("splitting_oracle supports rank 1..3")
    roots = [var(f"a{i}") for i in range(1, rank + 1)]
    rooted = split_bundle(roots, n)
    symbolic = BundleClass(rank, [var(f"c{i}") for i in range(1, rank + 1)], n)

    def matches(closed: ChowElem, from_roots: ChowElem) -> bool:
        return ChowElem(n, [specialize(c, rooted) for c in closed.coeffs]) == from_roots

    report: dict[str, bool] = {}
    ch_closed = chern_character(symbolic)
    ch_roots = _root_character(roots, n)
    report["chern_character"] = matches(ch_closed, ch_roots)
    for k in (2, 3):
        scaled = _root_character([k * a for a in roots], n)
        report[f"adams_{k}"] = matches(adams_operation(k, ch_closed), scaled)
    if rank == 3:
        lam2, lam3 = wedge_powers(symbolic)
        pair_roots = [roots[0] + roots[1], roots[0] + roots[2], roots[1] + roots[2]]
        lam2_roots = _elementary_symmetric(pair_roots)
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
    virtual = triv - e + pairs - top
    total = virtual * _exp_th(n) * todd_class(n)
    return total.coeffs[n]


def koszul_complete_intersection(degrees: Sequence[int], n: int = 5) -> MultiPoly:
    """Direct alternating binomial sum for a complete intersection.

    For Y cut out by hypersurfaces of the given degrees,
      chi_Y(t) = sum over subsets S of (-1)^|S| C(t - sum(S) + n, n),
    with each binomial built from its linear factors as
    (t - sum(S) + 1) ... (t - sum(S) + n) / n!.
    Serves as the independent oracle for koszul_euler on split bundles of
    the form O(-d1) + O(-d2) + O(-d3).
    """
    t = var("t")
    total = MultiPoly.zero()
    d = list(degrees)
    for mask in range(1 << len(d)):
        shift = sum(d[i] for i in range(len(d)) if mask >> i & 1)
        sign = -1 if bin(mask).count("1") % 2 else 1
        prod = MultiPoly.const(sign)
        for j in range(1, n + 1):
            prod = prod * (t + (j - shift))
        total = total + prod
    return total.scalar_div(math.factorial(n))
