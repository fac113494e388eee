"""Binomial-basis expansion and integrality obstructions for bundle classes.

A polynomial that takes integer values at every integer t is an integer
combination of the basis polynomials C(t+i, i).  Expanding an Euler
characteristic in that basis therefore turns "chi(E(t)) is an integer for
all t" into divisibility conditions: each basis coefficient num/den must
have den | num.  When the coefficients depend on a parameter r the
conditions become congruences on r, decided exactly by enumerating a full
residue system (num(rho) mod m depends only on rho mod m).

The verdict intersects admissible residues per prime power across all
constraints, including integrality of the Chern entries themselves; by the
Chinese remainder theorem the intersection is empty for some prime power
exactly when no integer parameter clears every denominator, so the
nonexistence conclusion is both sound and complete.  A Chern entry that
forces a single residue class triggers an automatic reparametrization
r = m*R + rho before the expansion coefficients are examined.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

from . import Value
from .arith import VARIABLES, MultiPoly, binomial_poly, exponent, var
from .chow import BundleClass, euler_characteristic

ResidueTable = tuple[tuple[int, tuple[int, ...]], ...]


def lowest_terms(p: MultiPoly) -> tuple[MultiPoly, int]:
    """Write p as num/den with integer-coefficient num and positive den.

    This is the stored form of p, which is kept in lowest terms; num wraps
    p's numerator dict as it is.
    """
    num, den = p.numerators()
    return MultiPoly._reduced(num, 1), den


class BinomialExpansion(Value):
    """Coefficients of a degree-<=n polynomial in the basis C(t+i, i).

    coeffs[i] is the coefficient of C(t+i, i), an exact polynomial in the
    parameter; lowest_terms splits it into the num/den the congruences read.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[MultiPoly, ...]):
        if len(coeffs) != n + 1:
            raise ValueError("need exactly n+1 coefficients")
        self.n = n
        self.coeffs = coeffs

    def coefficient(self, i: int) -> MultiPoly:
        """The i-th coefficient as an exact rational polynomial."""
        return self.coeffs[i]


@functools.cache
def to_binomial_basis(p: MultiPoly, n: int) -> BinomialExpansion:
    """Expand p in the basis C(t+i, i), i = 0..n, by triangular elimination.

    C(t+i, i) has leading term t^i / i!, so working from degree n down the
    coefficients are forced; the remainder must cancel exactly.  Cached per
    (p, n).
    """
    if p.degree("t") > n:
        raise ValueError(f"degree {p.degree('t')} exceeds basis size {n}")
    remainder = p
    rational: list[MultiPoly] = [MultiPoly.zero()] * (n + 1)
    for i in range(n, -1, -1):
        c_i = remainder.coeff_of("t", i) * math.factorial(i)
        rational[i] = c_i
        remainder = remainder - binomial_poly(i) * c_i
    if not remainder.is_zero():
        raise ValueError("expansion failed to terminate; input is not polynomial in t")
    return BinomialExpansion(n, tuple(rational))


def from_binomial_basis(e: BinomialExpansion) -> MultiPoly:
    """Reassemble the polynomial; exact inverse of to_binomial_basis."""
    return MultiPoly.sum(binomial_poly(i) * e.coefficient(i) for i in range(e.n + 1))


def congruence_residues(numerator: MultiPoly, m: int) -> set[int]:
    """Residues rho in 0..m-1 with numerator(rho) divisible by m.

    Direct enumeration over a full residue system; exact because an
    integer-coefficient polynomial is constant mod m on residue classes.
    The coefficients are reduced mod m once, then each residue is
    evaluated by Horner's rule mod m.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    num, den = numerator.numerators()
    if den != 1:
        raise ValueError("numerator must have integer coefficients")
    names = numerator.variables_used()
    if len(names) > 1:
        raise ValueError(f"numerator must be univariate, uses {names}")
    name = names[0] if names else VARIABLES[0]
    coeffs = [0] * (max(numerator.degree(), 0) + 1)
    for key, c in num.items():
        coeffs[exponent(key, name)] = c % m
    coeffs.reverse()
    residues: set[int] = set()
    for rho in range(m):
        value = 0
        for c in coeffs:
            value = (value * rho + c) % m
        if value == 0:
            residues.add(rho)
    return residues


class Verdict(Value):
    """Outcome of the integrality analysis of a parametric bundle class.

    admissible_residues lists, for each modulus examined (one prime power
    per relevant prime), the residues of the parameter for which every
    constraint is integral; conclusion is "nonexistence" exactly when some
    modulus admits no residue.  substitution records a reparametrization
    (m, rho) meaning r = m*R + rho was applied first.
    """

    __slots__ = ("conclusion", "admissible_residues", "substitution", "expansion")

    def __init__(
        self,
        conclusion: str,
        admissible_residues: ResidueTable,
        substitution: tuple[int, int] | None,
        expansion: BinomialExpansion | None,
    ):
        self.conclusion = conclusion
        self.admissible_residues = admissible_residues
        self.substitution = substitution
        self.expansion = expansion


def _factorize(value: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= value:
        while value % d == 0:
            factors[d] = factors.get(d, 0) + 1
            value //= d
        d += 1
    if value > 1:
        factors[value] = factors.get(value, 0) + 1
    return factors


def _active_parameter(polys: Iterable[MultiPoly]) -> str:
    names: set[str] = set()
    for p in polys:
        names.update(p.variables_used())
    names.discard("t")
    if not names:
        return ""
    if len(names) > 1:
        raise ValueError(f"expected a single parameter, found {sorted(names)}")
    return names.pop()


@functools.cache
def schwarzenberger_verdict(B: BundleClass) -> Verdict:
    """Decide whether integrality of chi(B(t)) obstructs existence.

    Constraints: each Chern entry must be an integer, and each coefficient
    of the binomial-basis expansion of chi(B(t)) must be an integer.  A
    Chern entry whose denominator admits exactly one residue class forces
    the reparametrization r = m*R + rho (applied at most once) before the
    expansion is analyzed, mirroring how such conditions are used by hand.
    The expansion runs to the ambient dimension.  Cached per bundle; the
    one Verdict is shared by every caller.
    """
    parameter = _active_parameter(B.chern)
    parts = [lowest_terms(c) for c in B.chern]

    for num, den in parts:
        if den == 1:
            continue
        residues = congruence_residues(num, den)
        if not residues:
            return Verdict("nonexistence", ((den, ()),), None, None)
        if len(residues) == 1 and parameter == "r":
            rho = next(iter(residues))
            shift = den * var("R") + rho
            substituted = BundleClass(
                B.rank,
                tuple(c.substitute({"r": shift}) for c in B.chern),
                B.ambient_dim,
            )
            inner = schwarzenberger_verdict(substituted)
            return Verdict(
                inner.conclusion,
                inner.admissible_residues,
                (den, rho),
                inner.expansion,
            )

    expansion = to_binomial_basis(euler_characteristic(B), B.ambient_dim)
    parts += [lowest_terms(c) for c in expansion.coeffs]
    constraints = [(num, _factorize(den)) for num, den in parts if den > 1]

    prime_max: dict[int, int] = {}
    for _, factors in constraints:
        for p, e in factors.items():
            prime_max[p] = max(prime_max.get(p, 0), e)

    table: list[tuple[int, tuple[int, ...]]] = []
    for p in sorted(prime_max):
        q = p ** prime_max[p]
        admissible = set(range(q))
        for num, factors in constraints:
            if p in factors:
                pf = p ** factors[p]
                good = congruence_residues(num, pf)
                admissible = {rho for rho in admissible if rho % pf in good}
        table.append((q, tuple(sorted(admissible))))

    conclusion = "exists-candidate" if all(residues for _, residues in table) else "nonexistence"
    return Verdict(conclusion, tuple(table), None, expansion)
