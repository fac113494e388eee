"""Exact linear algebra on degree slices of graded free modules over k[s,u].

S(a) denotes the rank-one graded free module with twist a, so its degree-d
slice is the space of homogeneous polynomials of degree d + a, of dimension
max(d + a + 1, 0).  A GradedMatrix maps a direct sum of such modules to
another; entry (i, j) multiplies source component j into target component i
and must be homogeneous of degree target_twist_i - source_twist_j (the sign
convention used throughout this module) or zero.

The central object is the Koszul-style complex built from a section pair
(a, b), of degree r+2 and r+4, with no common zero (itself a slice rank,
of the Sylvester map of a and b; see common_zero_check), with its twists
written once (_twists):

    0 -> S(-2r-12) --alpha--> S(-8)+S(-6)+S(-4) --beta--> S(r-4)+S(r-2) -> 0

with alpha = (a^2, 2ab, b^2)^T and beta = [[2b, -a, 0], [0, -b, 2a]].
Exactness is certified three independent ways: the symbolic identities
(beta.alpha = 0 and the 2x2 minors of beta are -2b^2, 4ab, -2a^2, so a
common-zero-free pair makes alpha fiberwise injective and beta fiberwise
surjective), degree-slice rank bookkeeping over a window past the
regularity bound, and a fiberwise screen at sample points.  By those
identities the fiber at p is exact exactly when (a(p), b(p)) != (0, 0),
so the screen evaluates only the row (a, b) and ranks that 1x2 row once
per point: rank 1 there is rank beta(p) = 2.  The cokernel of alpha is
then a rank-2 bundle on the line, beta's target O(r-4) + O(r-2), and
twisted by -r-2 it has no global sections, which is the injectivity
certificate the cohomology module consumes.  symbolic_injectivity proves
it for every r >= 0 at once, from the identities and the twists alone,
with no slice ranked.  The window certificates are its exact
cross-check at each r: the splitting type is read from the section count
at one twist, must equal beta's target, and is checked for sections
after the twist.  The chain runs once per (pair, sample points) in a
process.

Every slice rank is exact, kept per (matrix, degree), and proved by the
first of four arguments that applies.  The entries' denominators are
cleared by their lcm once per matrix.  (1) When slice d-1 of the same
matrix is already ranked, slice d is bounded without being built:
multiplication by s embeds slice d-1 in slice d, and the columns it
misses meet the s^0 rows through den*M at [0:1], so rank_d >=
rank_(d-1) + rank(den*M at [0:1] on the components present); a bound
that reaches min(rows, cols) is the rank (see slice_rank).  Otherwise the
slice is built as sparse integer columns: a multiplication map has only a
few nonzeros per column.  (2) When the columns have min(rows, cols)
distinct lead rows, the slice holds a triangular minor with nonzero
integer diagonal, and no arithmetic is done.  (3) Otherwise one sparse
elimination modulo the prime 2^61 - 1 gives the rank rho mod p, a lower
bound over Q, since a minor that is nonzero mod p is nonzero over Z; rho
= min(rows, cols) is the rank.  (4) A shorter rho is proved an upper
bound too: each column that reduced to zero yields a kernel vector,
rebuilt over Z by rational reconstruction and checked exactly.  Only if
a rebuilt vector fails is the rank recomputed by fraction-free Bareiss
elimination on the dense slice.  The slice window, the splitting type and
the step from one degree to the next share the kept ranks.
"""

from __future__ import annotations

import functools
import math

from . import EngineError, Value
from ._kernels import bareiss_rank
from .arith import MultiPoly, Scalar, as_poly, exponent, format_poly, var
from .cohomology import Assumption, h_p1

# A point [s:u] of the projective line, as two exact rationals: ints (an
# integer representative) or Fractions.
Point = tuple[Scalar, Scalar]

DEFAULT_POINTS: tuple[Point, ...] = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 3))
MIN_POINTS = 5  # the fewest sample points a certificate accepts


class GradedCertificateError(EngineError):
    """A certification step failed; no certificate is produced."""


# -- graded free modules and matrices ----------------------------------------


def slice_dim(twists: tuple[int, ...], d: int) -> int:
    """Dimension of the degree-d slice of ⊕ S(a_i): sum of max(d + a_i + 1, 0)."""
    return sum(max(d + a + 1, 0) for a in twists)


def _su_terms(p: MultiPoly) -> tuple[dict[tuple[int, int], int], int]:
    """Terms of a polynomial in s, u as ({(deg_s, deg_u): numerator}, den)."""
    names = set(p.variables_used())
    if not names <= {"s", "u"}:
        raise ValueError(f"entry uses variables outside s, u: {sorted(names)}")
    num, den = p.numerators()
    return {(exponent(key, "s"), exponent(key, "u")): c for key, c in num.items()}, den


def homogeneous_degree(p: MultiPoly) -> int | None:
    """Total degree in s, u if p is homogeneous and nonzero, else None."""
    degrees = {ds + du for (ds, du) in _su_terms(p)[0]}
    if len(degrees) != 1:
        return None
    return degrees.pop()


class GradedMatrix(Value):
    """A degree-zero map of graded free modules, entries homogeneous in s, u.

    source and target are the twist lists of ⊕ S(a_j) and ⊕ S(t_i).
    entries[i][j] maps source component j (twist source[j]) into target
    component i (twist target[i]); nonzero entries must be homogeneous of
    degree target[i] - source[j].
    """

    __slots__ = ("source", "target", "entries")

    def __init__(
        self,
        source: tuple[int, ...],
        target: tuple[int, ...],
        entries: tuple[tuple[MultiPoly, ...], ...],
    ):
        if not all(isinstance(a, int) for a in source + target):
            raise ValueError("twists must be integers")
        if len(entries) != len(target):
            raise ValueError("row count must match target rank")
        for i, row in enumerate(entries):
            if len(row) != len(source):
                raise ValueError("column count must match source rank")
            for j, entry in enumerate(row):
                if entry.is_zero():
                    continue
                forced = target[i] - source[j]
                if homogeneous_degree(entry) != forced:
                    raise ValueError(
                        f"entry ({i},{j}) = {format_poly(entry)} is not "
                        f"homogeneous of degree {forced}"
                    )
        self.source = source
        self.target = target
        self.entries = entries

    def evaluate(self, point: Point) -> list[list[int]]:
        """den*M at an integer representative of [s:u] = point, exactly.

        den is the lcm that _integer_columns clears, and the representative
        scales s and u by the lcm L of their denominators.  Entry (i, j) is
        then den * L^(t_i - a_j) times its value at the point, with t_i, a_j
        the target and source twists: both factors rescale only rows and
        columns, so every rank and zero test reads as at the point itself.
        """
        s, u = point
        scale = math.lcm(s.denominator, u.denominator)
        s_val = s.numerator * (scale // s.denominator)
        u_val = u.numerator * (scale // u.denominator)
        rows = [[0] * len(self.source) for _ in self.target]
        for j, (a, column) in enumerate(zip(self.source, _integer_columns(self))):
            for i, ds, c in column:
                rows[i][j] += c * s_val**ds * u_val ** (self.target[i] - a - ds)
        return rows


@functools.cache
def transpose_dual(M: GradedMatrix) -> GradedMatrix:
    """The Serre-dual matrix: transposed entries between dualized twists.

    The degree-d slice rank of M on first cohomology equals the degree -d
    slice rank of this matrix on global sections: S(a) dualizes to S(-a-2)
    and the multiplication entries transpose unchanged; cached per matrix.
    """
    dual_source = tuple(-a - 2 for a in M.target)
    dual_target = tuple(-a - 2 for a in M.source)
    cols = len(M.source)
    rows = len(M.target)
    entries = tuple(
        tuple(M.entries[i][j] for i in range(rows)) for j in range(cols)
    )
    return GradedMatrix(dual_source, dual_target, entries)


@functools.cache
def _integer_columns(M: GradedMatrix) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """den*M as integer entries, one tuple per source component j.

    den is the lcm of the denominators of every entry coefficient.  Each
    tuple lists (target i, s-exponent, int coefficient) over the terms of
    column j; the u-exponent follows from homogeneity.  Cached per matrix,
    so every degree slice of M reuses one clearing.
    """
    terms = [[_su_terms(e) for e in row] for row in M.entries]
    den = math.lcm(*[e_den for row in terms for _, e_den in row])
    return tuple(
        tuple(
            (i, ds, c * (den // row[j][1]))
            for i, row in enumerate(terms)
            for (ds, _), c in row[j][0].items()
        )
        for j in range(len(M.source))
    )


def slice_matrix(M: GradedMatrix, d: int) -> tuple[list[dict[int, int]], int]:
    """The degree-d slice of den*M as sparse integer columns, and its row count.

    den is the lcm of the denominators of every entry coefficient, so each
    cell is an int and the rank equals the rank of the rational slice of M.
    Rows run over the target slice basis, columns over the source slice
    basis, each ordered component-first then s-exponent descending; column
    c maps row index to its nonzero cell.
    """
    tops = []  # row index of s^0 in each target component's basis
    n_rows = 0
    for a in M.target:
        n = d + a + 1
        if n > 0:
            n_rows += n
        tops.append(n_rows - 1)
    columns = []
    for a, entries in zip(M.source, _integer_columns(M)):
        n0 = d + a
        if n0 < 0:
            continue
        # s^k0 * s^ds lands at tops[i] - k0 - ds, inside block i when k0 + ds <= d + t_i
        for i, ds, _ in entries:
            if n0 + ds > d + M.target[i]:
                raise AssertionError("slice monomial fell outside the basis")
        for k0 in range(n0, -1, -1):
            columns.append({tops[i] - k0 - ds: c for i, ds, c in entries})
    return columns, n_rows


def matrix_rank(rows: list[list[Scalar]]) -> int:
    """Exact rank of a rational matrix: cleared to integers, then Bareiss.

    Used for the small integer fiber matrices of the pointwise screen, where
    a modular pass would gain nothing.
    """
    if not rows or not rows[0]:
        return 0
    den = math.lcm(*[x.denominator for row in rows for x in row])
    return bareiss_rank([[x.numerator * (den // x.denominator) for x in row] for row in rows])


MODULUS = (1 << 61) - 1  # the Mersenne prime 2^61 - 1
# Numerators and denominators of a reconstructed fraction stay within this
# bound, so two such fractions congruent mod MODULUS are equal.
RECONSTRUCTION_BOUND = math.isqrt(MODULUS // 2)


def _eliminate_mod_p(columns: list[dict[int, int]], full: int) -> tuple[dict, list]:
    """Sparse elimination of the columns mod MODULUS, in their order.

    Each column is reduced against a pivot table keyed by leading (smallest)
    row index.  A pivot keeps its lead unnormalised; the lead is inverted
    only once a later column hits it.  Returns the table, lead row ->
    (column index, lead, rest, multipliers), and the list of (column index,
    multipliers) of the columns that reduced to zero.  The multipliers are
    the (lead row, factor) steps of the column's reduction.  The pass stops
    once the table holds full pivots.
    """
    p = MODULUS
    pivots: dict[int, tuple] = {}
    inverses: dict[int, int] = {}  # lead row -> inverse of its lead, once hit
    zeros = []
    for c, column in enumerate(columns):
        v = {r: y for r, x in column.items() if (y := x % p)}
        steps = []
        while v:
            lead = min(v)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (c, v.pop(lead), list(v.items()), steps)
                break
            inv = inverses.get(lead)
            if inv is None:
                inv = inverses[lead] = pow(pivot[1], -1, p)
            f = v.pop(lead) * inv % p
            steps.append((lead, f))
            for r, x in pivot[2]:
                y = (v.get(r, 0) - f * x) % p
                if y:
                    v[r] = y
                else:
                    del v[r]
        else:  # the column reduced to zero
            zeros.append((c, steps))
            continue
        if len(pivots) == full:
            break
    return pivots, zeros


def rational_reconstruction(x: int) -> tuple[int, int] | None:
    """(n, d) with n = d*x mod MODULUS, |n| and 0 < d at most RECONSTRUCTION_BOUND.

    The half-extended Euclidean algorithm (Wang, Guy and Davenport, 1982);
    None when no such fraction exists.
    """
    bound = RECONSTRUCTION_BOUND
    r0, r1, t0, t1 = MODULUS, x % MODULUS, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _kernel_vector_checks(columns: list[dict[int, int]], c: int, steps: list, pivots: dict) -> bool:
    """Whether column c gives an integer kernel vector of the matrix.

    Column c reduced to zero mod p through the pivots' reduced columns with
    the given multipliers.  Back-substituting the pivots newest first (a
    pivot's own multipliers name older pivots only) writes column c as a
    combination of the pivots' original columns: a kernel vector mod p with
    x_c = 1, supported on c and the pivot columns.  Its entries are
    reconstructed as fractions and the denominators cleared; True only if
    the integer vector, nonzero at c, is checked to be a kernel vector over Z.
    """
    p = MODULUS
    y = dict(steps)  # lead row -> factor of that pivot's reduced column
    x = {c: 1}
    for lead in reversed(pivots):
        f = y.pop(lead, 0)
        if f:
            col, _, _, pivot_steps = pivots[lead]
            x[col] = -f % p
            for older, g in pivot_steps:
                y[older] = (y.get(older, 0) - f * g) % p
    fractions = {k: rational_reconstruction(v) for k, v in x.items()}
    if None in fractions.values():
        return False
    den = math.lcm(*[d for _, d in fractions.values()])
    w = {k: n * (den // d) for k, (n, d) in fractions.items() if n}
    image: dict[int, int] = {}
    for k, wk in w.items():
        for r, e in columns[k].items():
            image[r] = image.get(r, 0) + wk * e
    return not any(image.values())


def integer_rank(columns: list[dict[int, int]], n_rows: int) -> int:
    """Exact rank of a sparse integer matrix, by three proofs in turn.

    columns[c] maps row index to a nonzero int.  (1) If the columns have
    min(rows, cols) distinct lead (smallest) rows, that is the rank: one
    column per lead, taken in lead order, restricts to a triangular minor
    on the lead rows with nonzero integer diagonal.  (2) Otherwise one
    sparse elimination mod MODULUS gives the rank rho over F_p, which never
    exceeds the rank over Q (a minor nonzero mod p is a nonzero integer);
    rho = min(rows, cols) is the rank.  (3) A shorter rho is proved from
    above: the same pass recorded the multipliers of each column that
    reduced to zero, which give a kernel vector, rebuilt over Z by rational
    reconstruction and checked exactly.  These vectors are independent
    (each is nonzero at its own column and zero at the others), so the
    rank over Q is at most rho.  Only if a reconstruction or a check fails
    is the rank computed by bareiss_rank on the dense slice.  No step is
    random.
    """
    full = min(n_rows, len(columns))
    if len({min(column) for column in columns if column}) == full:
        return full
    pivots, zeros = _eliminate_mod_p(columns, full)
    if len(pivots) == full:
        return full
    if all(_kernel_vector_checks(columns, c, steps, pivots) for c, steps in zeros):
        return len(pivots)
    rows = [[0] * len(columns) for _ in range(n_rows)]
    for c, column in enumerate(columns):
        for r, x in column.items():
            rows[r][c] = x
    return bareiss_rank(rows)


# matrix -> {degree: rank of that slice}, the one memo of slice ranks
_SLICE_RANKS: dict[GradedMatrix, dict[int, int]] = {}


def slice_rank(M: GradedMatrix, d: int) -> int:
    """Rank of the degree-d slice of M, kept per (matrix, degree).

    If slice d-1 is already ranked, the rank is first bounded from it.
    Order rows and columns by whether their s-exponent is positive.  The
    columns of slice d with positive s-exponent are s times the columns of
    slice d-1, on the rows with positive s-exponent, and vanish on the s^0
    rows; the u^(d+a) columns meet the s^0 rows through B_d, den*M at [0:1]
    on the source components present in degree d.  So slice d is
    [[slice_(d-1), X], [0, B_d]] and its rank is at least rank_(d-1) +
    rank B_d over Q.  When that reaches min(rows, cols) it is the rank and
    the slice is never built; otherwise integer_rank proves it.  No step is
    random.
    """
    ranks = _SLICE_RANKS.setdefault(M, {})
    rank = ranks.get(d)
    if rank is None:
        full = min(slice_dim(M.target, d), slice_dim(M.source, d))
        below = ranks.get(d - 1)
        if below is not None and below + _pure_u_rank(M, d) >= full:
            rank = full
        else:
            rank = integer_rank(*slice_matrix(M, d))
        ranks[d] = rank
    return rank


def _pure_u_rank(M: GradedMatrix, d: int) -> int:
    """Rank of B_d: the ds == 0 entries of den*M, on the components present in degree d.

    A source component is present when d + a >= 0.  Target components need
    no mask: a nonzero entry has degree t_i - a_j >= 0, so a present source
    component meets only present target components.
    """
    columns = [
        {i: c for i, ds, c in column if ds == 0}
        for a, column in zip(M.source, _integer_columns(M))
        if d + a >= 0
    ]
    return integer_rank(columns, len(M.target))


# -- section pairs and the alpha/beta complex --------------------------------


class SectionPair(Value):
    """Homogeneous sections a, b on the line, of degree r+2 and r+4.

    Ferrand's doubling needs a and b without a common zero.  That is not
    checked here but by common_zero_check, a slice rank of their Sylvester
    map, so pairs with a common zero stay constructible and the failure
    paths can be exercised.
    """

    __slots__ = ("r", "a", "b")

    def __init__(self, r: int, a: MultiPoly, b: MultiPoly):
        for name, p, want in zip("ab", (a, b), _pair_degrees(r)):
            if p.is_zero() or homogeneous_degree(p) != want:
                raise ValueError(f"{name} must be homogeneous of degree {want} in s, u")
        self.r = r
        self.a = a
        self.b = b


def default_pair(r: int) -> SectionPair:
    """The canonical common-zero-free pair a = s^(r+2), b = u^(r+4)."""
    m, n = _pair_degrees(r)
    return SectionPair(r, var("s") ** m, var("u") ** n)


class ComplexSpec:
    """The three-term complex source -> middle -> target, by its matrices.

    The twist lists are the matrices' own: source is alpha.source, middle
    is alpha.target (= beta.source) and target is beta.target.
    """

    __slots__ = ("pair", "alpha", "beta")

    def __init__(self, pair: SectionPair, alpha: GradedMatrix, beta: GradedMatrix):
        self.pair = pair
        self.alpha = alpha
        self.beta = beta


def _alphabeta_entries(a: MultiPoly, b: MultiPoly):
    """The entry tables of alpha = (a^2, 2ab, b^2)^T and beta = [[2b, -a, 0], [0, -b, 2a]]."""
    zero = MultiPoly.zero()
    return ((a * a,), (2 * a * b,), (b * b,)), ((2 * b, -a, zero), (zero, -b, 2 * a))


def _twists(r):
    """The twists (source, middle, target) of the complex, for an int r or var("r").

    Source S(-2r-12), middle S(-8)+S(-6)+S(-4), target S(r-4)+S(r-2).
    """
    return (-2 * r - 12,), (-8, -6, -4), (r - 4, r - 2)


def _pair_degrees(r):
    """The degrees (r+2, r+4) of a and b, read from beta's first row (2b, -a, 0)."""
    _, middle, target = _twists(r)
    return target[0] - middle[1], target[0] - middle[0]


def alphabeta_builder(p: SectionPair) -> ComplexSpec:
    """Build alpha and beta from _twists and the entry tables of _alphabeta_entries.

    Homogeneity of every entry is verified on construction.
    """
    source, middle, target = _twists(p.r)
    alpha, beta = _alphabeta_entries(p.a, p.b)
    return ComplexSpec(p, GradedMatrix(source, middle, alpha), GradedMatrix(middle, target, beta))


def _product(outer, inner) -> tuple[tuple[MultiPoly, ...], ...]:
    """The entry table of outer . inner, from their entry tables."""
    return tuple(
        tuple(MultiPoly.sum(x * y for x, y in zip(row, column)) for column in zip(*inner))
        for row in outer
    )


def compose(outer: GradedMatrix, inner: GradedMatrix) -> tuple[tuple[MultiPoly, ...], ...]:
    """Entry table of the composite outer . inner (not degree-checked)."""
    if outer.source != inner.target:
        raise ValueError("composition shape mismatch")
    return _product(outer.entries, inner.entries)


@functools.cache
def symbolic_complex_identities() -> bool:
    """beta.alpha = 0 and the beta minors are -2b^2, 4ab, -2a^2, symbolically.

    The builder's own entry tables, with free stand-ins for a and b, so the
    identities hold for every section pair; the minor shapes show beta is
    fiberwise surjective wherever a and b do not vanish together.
    Evaluated once per process.
    """
    a, b = var("a1"), var("a2")
    alpha, beta = _alphabeta_entries(a, b)
    top, bottom = beta
    minors = tuple(top[i] * bottom[j] - top[j] * bottom[i] for i, j in ((0, 1), (0, 2), (1, 2)))
    expected = (-2 * b * b, 4 * a * b, -2 * a * a)
    return all(e.is_zero() for row in _product(beta, alpha) for e in row) and minors == expected


def _no_twisted_sections(split, r, assumption: Assumption) -> None:
    """Raise unless each summand O(a) of split has no sections after the -r-2 twist.

    That vanishing is the injectivity of the connecting map which the
    cohomology module consumes; r is an int or var("r").
    """
    for a in split:
        twisted = as_poly(a - r - 2)
        if not h_p1(twisted, assumption).h0.is_zero():
            raise GradedCertificateError(
                f"twisted summand O({format_poly(twisted)}) has sections; kernel map not injective"
            )


def symbolic_injectivity() -> bool:
    """The connecting-map injectivity for every r >= 0, with no slice ranked.

    By symbolic_complex_identities, a pair without a common zero (Ferrand's
    hypothesis) makes the complex an exact sequence of bundles, so coker
    alpha is beta's target, read from _twists(var("r")).  Twisted by -r-2
    its summands have degrees free of r, and h_p1 under r >= 0 finds them
    without sections.  A failure raises GradedCertificateError; the window
    certificates (certified_split) cross-check the target at each r.
    """
    if not symbolic_complex_identities():
        raise GradedCertificateError("symbolic complex identities failed")
    r = var("r")
    _no_twisted_sections(_twists(r)[2], r, Assumption(r_min=0))
    return True


# -- zero locus and fiberwise checks ------------------------------------------


def section_row(p: SectionPair) -> GradedMatrix:
    """The row (a, b) from S(-r-2) + S(-r-4) to S."""
    m, n = _pair_degrees(p.r)
    return GradedMatrix((-m, -n), (0,), ((p.a, p.b),))


def common_zero_check(p: SectionPair) -> bool:
    """True iff a and b have no common zero on the projective line.

    With m = r+2 and n = r+4, the Sylvester map (f, g) -> f*a + g*b from
    forms of degree n-1 and m-1 to forms of degree m+n-1 is square, of
    size m+n.  It is injective exactly when a and b share no factor, that
    is no common zero on the line, [1:0] included.  It is the degree
    m+n-1 slice of section_row(p), so one exact slice rank decides it.
    """
    m, n = _pair_degrees(p.r)
    return slice_rank(section_row(p), m + n - 1) == m + n


def pointwise_exactness(
    cx: ComplexSpec, points: list[Point]
) -> tuple[bool, Point | None]:
    """Fiberwise screen: rank beta = 2 at each point, from (a, b) alone.

    With A = a(p) and B = b(p), alpha(p) = (A^2, 2AB, B^2) and the 2x2
    minors of beta(p) = [[2B, -A, 0], [0, -B, 2A]] are -2B^2, 4AB, -2A^2.
    So rank beta(p) = 2 exactly when (A, B) != (0, 0), which is exactly
    when the row [[A, B]] has rank 1; that is the test ranked here, and
    it proves the same statement as ranking beta(p).  It also makes
    alpha(p) nonzero, and beta.alpha = 0 holds identically: the one rank
    test is the whole fiberwise exactness of the 1-3-2 complex.  A and B
    are read from section_row at an integer representative; evaluate
    scales them by nonzero factors, which leave their vanishing
    unchanged.  Returns (True, None) or (False, witness_point).
    """
    row = section_row(cx.pair)
    for point in points:
        if point[0] == 0 and point[1] == 0:
            raise ValueError("[0:0] is not a point of the projective line")
        ((A, B),) = row.evaluate(point)
        if matrix_rank([[A, B]]) != 1:
            return False, point
    return True, None


# -- slice-level certification -------------------------------------------------


def _regularity_bound(cx: ComplexSpec) -> int:
    """max |twist| + deg(b); the slice window and the top twist lie past it."""
    twists = cx.alpha.source + cx.alpha.target + cx.beta.target
    return max(abs(a) for a in twists) + _pair_degrees(cx.pair.r)[1]


def slice_exactness_window(cx: ComplexSpec) -> tuple[int, int]:
    """Primary certificate: slice ranks prove exactness past regularity.

    For each degree d in [d0, d0+6] with d0 = _regularity_bound + 2,
    checks rank(alpha_d) = dim source_d, rank(beta_d) = dim target_d, and
    rank(alpha_d) + rank(beta_d) = dim middle_d.  Returns the window.
    """
    source, middle, target = cx.alpha.source, cx.alpha.target, cx.beta.target
    d0 = _regularity_bound(cx) + 2
    for d in range(d0, d0 + 7):
        r_alpha = slice_rank(cx.alpha, d)
        r_beta = slice_rank(cx.beta, d)
        if r_alpha != slice_dim(source, d):
            raise GradedCertificateError(f"alpha slice not injective at degree {d}")
        if r_beta != slice_dim(target, d):
            raise GradedCertificateError(f"beta slice not surjective at degree {d}")
        if r_alpha + r_beta != slice_dim(middle, d):
            raise GradedCertificateError(f"slice exactness fails at degree {d}")
    return d0, d0 + 6


def cokernel_h0(cx: ComplexSpec, d: int) -> int:
    """Exact h^0(F(d)) of the cokernel sheaf F of alpha.

    From 0 -> O(e) -> middle -> F -> 0:
      h^0(F(d)) = dim middle_d - rank(alpha_d) + h^1(O(e+d)) - rank(dual_(-d))
    where the last rank is the first-cohomology map computed by Serre
    duality as a section-level slice of the transposed dual matrix.
    """
    e = cx.alpha.source[0]
    value = (
        slice_dim(cx.alpha.target, d)
        - slice_rank(cx.alpha, d)
        + max(-(e + d) - 1, 0)
        - slice_rank(transpose_dual(cx.alpha), -d)
    )
    if value < 0:
        raise GradedCertificateError(f"negative section count at twist {d}")
    return value


def splitting_type(cx: ComplexSpec) -> tuple[int, int]:
    """The twists (x, y), x <= y, of the cokernel bundle F = O(x) + O(y).

    Once common_zero_check has passed, alpha vanishes nowhere, so F is a
    rank-2 bundle and splits (Grothendieck).  Determinants are additive,
    so its degree S is the sum of the middle twists less the source twist.
    At the one twist d* = -floor(S/2) - 1 the summand O(x) has no sections
    (x <= S/2) and O(y) has y + d* + 1 >= 0 of them, so y = h^0(F(d*)) -
    d* - 1 and x = S - y.  The split model is then checked at the twists
    -y-1, -y, -x-1, -x and top = _regularity_bound + 8.
    """
    degree = sum(cx.alpha.target) - cx.alpha.source[0]
    top = _regularity_bound(cx) + 8
    d_star = -(degree // 2) - 1
    y = cokernel_h0(cx, d_star) - d_star - 1
    x = degree - y
    twists = (-y - 1, -y, -x - 1, -x, top)
    if any(cokernel_h0(cx, d) != max(d + x + 1, 0) + max(d + y + 1, 0) for d in twists):
        raise GradedCertificateError(
            "no split pair matches the section profile (torsion or non-exactness)"
        )
    return x, y


# -- the certificate ------------------------------------------------------------


def check_points(points: tuple[Point, ...]) -> None:
    """Raise ValueError when the sample has fewer than MIN_POINTS points."""
    if len(points) < MIN_POINTS:
        raise ValueError("need at least five sample points")


def injectivity_certificate(
    r: int,
    pair: SectionPair | None = None,
    points: list[Point] | None = None,
) -> bool:
    """Full certification chain for the connecting-map injectivity.

    Checks the input before any engine work (r >= 0, a pair built for r, at
    least five points; None means default_pair(r) and DEFAULT_POINTS), then
    runs certified_split once per (pair, points) in a process.  Any failure
    raises GradedCertificateError; success returns True.
    """
    if r < 0:
        raise ValueError("r must be a nonnegative integer")
    if pair is not None and pair.r != r:
        raise ValueError("section pair was built for a different r")
    sample = DEFAULT_POINTS if points is None else tuple(points)
    check_points(sample)
    certified_split(pair if pair is not None else default_pair(r), sample)
    return True


@functools.cache
def certified_split(pair: SectionPair, points: tuple[Point, ...]) -> tuple[int, int]:
    """The certified splitting type of the pair's cokernel bundle.

    Steps: common-zero check, symbolic identities, complex construction,
    fiberwise screen, slice exactness past regularity, splitting type, its
    agreement with beta's target (the theorem symbolic_injectivity rests
    on), and vanishing of sections after the -r-2 twist.  A failure raises
    GradedCertificateError and is not cached.  Callers validate the input
    through injectivity_certificate first.
    """
    r = pair.r
    if not common_zero_check(pair):
        raise GradedCertificateError("section pair has a common zero")
    if not symbolic_complex_identities():
        raise GradedCertificateError("symbolic complex identities failed")
    cx = alphabeta_builder(pair)
    if any(not entry.is_zero() for row in compose(cx.beta, cx.alpha) for entry in row):
        raise GradedCertificateError("beta . alpha != 0 for this pair")
    ok, witness = pointwise_exactness(cx, points)
    if not ok:
        raise GradedCertificateError(f"fiberwise exactness fails at {witness}")
    slice_exactness_window(cx)
    split = splitting_type(cx)
    if split != cx.beta.target:
        raise GradedCertificateError(
            f"certified split {split} differs from beta's target {cx.beta.target}"
        )
    _no_twisted_sections(split, r, Assumption(fixed=r))
    return split
