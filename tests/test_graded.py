"""Unit tests for the graded-matrix exactness and splitting machinery."""

from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction

import pytest

from conftest import as_fraction
from multistruct import chow, graded
from multistruct.arith import MultiPoly, exponent, var
from multistruct.cli import POINT_DIGITS_CAP, R_CAP, _second_pair, main
from multistruct.graded import (
    DEFAULT_POINTS,
    MODULUS,
    ComplexSpec,
    GradedCertificateError,
    GradedMatrix,
    SectionPair,
    alphabeta_builder,
    bareiss_rank,
    certified_split,
    cokernel_h0,
    common_zero_check,
    compose,
    default_pair,
    homogeneous_degree,
    injectivity_certificate,
    integer_rank,
    matrix_rank,
    pointwise_exactness,
    rational_reconstruction,
    section_row,
    slice_dim,
    slice_exactness_window,
    slice_matrix,
    slice_rank,
    splitting_type,
    symbolic_complex_identities,
    symbolic_injectivity,
    transpose_dual,
)

s = var("s")
u = var("u")


class TestGradedBasics:
    def test_slice_dim(self):
        F = (-2, 0)
        # S(-2)_d has dim max(d-1, 0); S(0)_d has dim max(d+1, 0)
        assert slice_dim(F, 0) == 1
        assert slice_dim(F, 3) == 6
        assert slice_dim(F, -2) == 0

    def test_homogeneous_degree(self):
        assert homogeneous_degree(s * s + u * u) == 2
        assert homogeneous_degree(s + u * u) is None
        assert homogeneous_degree(MultiPoly.zero()) is None

    def test_entry_degree_validation(self):
        source = (-4,)
        target = (-2,)
        GradedMatrix(source, target, ((s * u,),))  # degree 2 = -2 - (-4)
        with pytest.raises(ValueError):
            GradedMatrix(source, target, ((s,),))
        with pytest.raises(ValueError):
            GradedMatrix((Fraction(-4),), target, ((s * u,),))  # twists must be integers
        with pytest.raises(ValueError):
            GradedMatrix(source, target, ((s * u,), (s * u,)))  # one row per target twist
        with pytest.raises(ValueError):
            GradedMatrix(source, target, ((s * u, s * u),))  # one column per source twist

    def test_matrix_rank_fractions(self):
        rows = [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]]
        assert matrix_rank(rows) == 1
        assert matrix_rank([[Fraction(0)]]) == 0

    def test_slice_matrix_shape(self):
        pair = default_pair(0)
        cx = alphabeta_builder(pair)
        alpha, beta = cx.alpha, cx.beta
        columns, n_rows = slice_matrix(alpha, 12)
        assert n_rows == slice_dim(alpha.target, 12)
        assert len(columns) == slice_dim(alpha.source, 12)
        assert all(0 <= r < n_rows and x for col in columns for r, x in col.items())

    def test_transpose_dual_twists(self):
        pair = default_pair(0)
        alpha = alphabeta_builder(pair).alpha
        dual = transpose_dual(alpha)
        assert dual.source == (6, 4, 2)
        assert dual.target == (10,)
        assert transpose_dual(alphabeta_builder(pair).alpha) is dual  # built once per matrix


def _fraction_slice(M: GradedMatrix, d: int) -> list[list[Fraction]]:
    """The degree-d slice of M with Fraction cells, built cell by cell."""

    def basis(twist):
        n = d + twist
        return [(k, n - k) for k in range(n, -1, -1)] if n >= 0 else []

    rows = [(i, mono) for i, a in enumerate(M.target) for mono in basis(a)]
    cols = [(j, mono) for j, a in enumerate(M.source) for mono in basis(a)]
    out = [[Fraction(0)] * len(cols) for _ in rows]
    for c, (j, (ds0, du0)) in enumerate(cols):
        for r_, (i, (ds1, du1)) in enumerate(rows):
            if ds1 >= ds0 and du1 >= du0:
                entry = M.entries[i][j].coeff_of("s", ds1 - ds0).coeff_of("u", du1 - du0)
                out[r_][c] = as_fraction(entry)
    return out


def _columns(rows: list[list[int]]) -> tuple[list[dict[int, int]], int]:
    """A dense integer matrix as the sparse columns integer_rank takes."""
    n_cols = len(rows[0]) if rows else 0
    columns = [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(n_cols)]
    return columns, len(rows)


def _dense(columns: list[dict[int, int]], n_rows: int) -> list[list[int]]:
    """Sparse columns back as a dense list of rows."""
    return [[col.get(r, 0) for col in columns] for r in range(n_rows)]


def _dense_slice(M: GradedMatrix, d: int) -> list[list[int]]:
    """The degree-d slice of M cleared by one common denominator, built densely.

    Rows and columns run over the monomials s^k u^(d+t-k) of each component,
    component first and k descending, as in slice_matrix; every cell is read
    here from the entries' own numerators, not from slice_matrix.
    """
    parts = [[e.numerators() for e in row] for row in M.entries]
    den = math.lcm(*[e_den for row in parts for _, e_den in row])

    def basis(twists):
        return [(i, k) for i, t in enumerate(twists) for k in range(d + t, -1, -1)]

    rows, cols = basis(M.target), basis(M.source)
    index = {b: n for n, b in enumerate(rows)}
    out = [[0] * len(cols) for _ in rows]
    for c, (j, k) in enumerate(cols):
        for i, row in enumerate(parts):
            num, e_den = row[j]
            for key, x in num.items():
                out[index[i, k + exponent(key, "s")]][c] = x * (den // e_den)
    return out


class TestIntegerRank:
    P = MODULUS

    def test_random_matrices_match_bareiss(self):
        rng = random.Random(20261018)
        for _ in range(300):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            bound = rng.choice((1, 3, 10**6, 2**70))
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
            assert integer_rank(*_columns(rows)) == bareiss_rank(rows)

    def test_thin_products_are_rank_deficient(self):
        rng = random.Random(61)
        for _ in range(200):
            m, n = rng.randint(2, 8), rng.randint(2, 8)
            k = rng.randint(1, min(m, n) - 1)
            left = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(m)]
            right = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
            assert integer_rank(*_columns(rows)) == bareiss_rank(rows) <= k

    def test_thin_products_with_large_entries_need_no_bareiss(self, monkeypatch):
        # a left factor of full column rank keeps the small right factor's kernel,
        # whose vectors reconstruct, so every product is proved without Bareiss
        monkeypatch.setattr(graded, "bareiss_rank", lambda m: pytest.fail("Bareiss was called"))
        rng = random.Random(70)
        for _ in range(200):
            m, n = rng.randint(2, 8), rng.randint(2, 8)
            k = rng.randint(1, min(m, n) - 1)
            left = [[rng.randint(-(2**70), 2**70) for _ in range(k)] for _ in range(m)]
            right = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
            assert bareiss_rank(left) == k
            assert integer_rank(*_columns(rows)) == bareiss_rank(rows) <= k

    @pytest.mark.parametrize(
        "rows, rank",
        [
            ([[0, 1, 0], [0, 2, 0], [0, 3, 0]], 1),  # all-zero columns
            ([[1, 2, 3], [2, 4, 5], [3, 6, 7]], 2),  # the second column cancels to 0
            ([[1, 2, 3, 4], [2, 4, 6, 8]], 1),  # wide, rank below its row count
            ([[P]], 1),  # vanishes mod p, but its one lead row makes it triangular
        ],
    )
    def test_short_mod_p_proved_without_bareiss(self, monkeypatch, rows, rank):
        monkeypatch.setattr(graded, "bareiss_rank", lambda m: pytest.fail("Bareiss was called"))
        assert integer_rank(*_columns(rows)) == bareiss_rank(rows) == rank

    @pytest.mark.parametrize(
        "rows, rank",
        # each rank mod p is below the rank over Q, except where noted
        [
            ([[P, 0], [0, 0]], 1),
            ([[1, 1], [1, 1 + P]], 2),
            ([[2, 3], [4, 6 + P]], 2),
            # equal ranks, but the kernel vector (-b/a, 1) is past the reconstruction bound
            ([[2**40 + 1, 2**40 + 3], [2 * (2**40 + 1), 2 * (2**40 + 3)]], 1),
            ([[1, 1 + P], [1, 1]], 2),  # the second column cancels to 0 mod p only
            ([[P, 2 * P], [3 * P, P]], 2),  # every entry vanishes mod p
        ],
    )
    def test_short_modular_rank_falls_back_to_bareiss(self, monkeypatch, rows, rank):
        calls = []
        monkeypatch.setattr(graded, "bareiss_rank", lambda m: calls.append(m) or bareiss_rank(m))
        assert integer_rank(*_columns(rows)) == bareiss_rank(rows) == rank
        assert calls == [rows]  # no kernel vector checked out over Z, so Bareiss decided

    def test_rational_reconstruction(self):
        bound = graded.RECONSTRUCTION_BOUND
        assert 2 * bound * bound < self.P < 2 * (bound + 1) ** 2
        rng = random.Random(2)
        for _ in range(500):
            n, d = rng.randint(-bound, bound), rng.randint(1, bound)
            g = math.gcd(n, d)
            assert rational_reconstruction(n * pow(d, -1, self.P)) == (n // g, d // g)
        found = 0
        for _ in range(500):
            x = rng.randrange(self.P)
            fraction = rational_reconstruction(x)
            if fraction is not None:
                n, d = fraction
                assert abs(n) <= bound and 0 < d <= bound and (n - d * x) % self.P == 0
                found += 1
        assert 0 < found < 500  # most residues have a small fraction, not all

    def test_full_rank_mod_p_skips_bareiss(self, monkeypatch):
        monkeypatch.setattr(graded, "bareiss_rank", lambda m: pytest.fail("Bareiss was called"))
        assert integer_rank(*_columns([[1, 2, 3], [4, 5, 6]])) == 2
        assert integer_rank(*_columns([[self.P + 1], [0]])) == 1
        # 2P vanishes mod p, but the determinant -12 mod p does not
        assert integer_rank(*_columns([[2 * self.P, 3], [4, 6]])) == 2
        # wide: full row rank is reached before the last columns are read
        assert integer_rank(*_columns([[0, 1, 5, 7, 9], [1, 0, 2, 4, 6]])) == 2
        # an entry equal to p is dropped, the column keeps its other entries
        assert integer_rank(*_columns([[self.P, 1], [1, 0]])) == 2
        # a zero column is spare when the matrix is wide
        assert integer_rank(*_columns([[0, 1, 0], [0, 0, 1]])) == 2
        assert integer_rank([], 0) == 0 and integer_rank([], 3) == 0 and integer_rank([{}], 0) == 0

    @pytest.mark.parametrize("rv", range(0, 7))
    def test_certificate_slices_match_bareiss(self, monkeypatch, rv):
        built = []
        original = graded.slice_matrix
        monkeypatch.setattr(graded, "slice_matrix", lambda M, d: built.append((M, d)) or original(M, d))
        graded._SLICE_RANKS.clear()
        for pair in (default_pair(rv), _second_pair(rv)):
            cx = alphabeta_builder(pair)
            d0, _ = slice_exactness_window(cx)
            # beta is built at the window's first degree and stepped to the other six
            assert [d for M, d in built if M == cx.beta] == [d0]
            splitting_type(cx)
        ranked = [(M, d, rank) for M, ranks in graded._SLICE_RANKS.items() for d, rank in ranks.items()]
        graded._SLICE_RANKS.clear()
        # every slice the certificate ranks, stepped or built, full rank or not
        assert len(ranked) > len(built) > 0
        for M, d, rank in ranked:
            assert rank == bareiss_rank(_dense_slice(M, d))


def _fractional_pair(rv: int) -> SectionPair:
    return SectionPair(
        rv, s ** (rv + 2) * Fraction(1, 2) + u ** (rv + 2), Fraction(2, 3) * u ** (rv + 4) + s ** (rv + 3) * u
    )


def _random_pair(rng: random.Random, rv: int) -> SectionPair:
    while True:
        a, b = _random_section(rng, rv + 2), _random_section(rng, rv + 4)
        if not a.is_zero() and not b.is_zero():
            return SectionPair(rv, a, b)


def _assert_scaled_reference(M: GradedMatrix, d: int) -> tuple[list[dict[int, int]], int, list]:
    """The sparse slice equals the Fraction reference times one scale factor."""
    columns, n_rows = slice_matrix(M, d)
    old = _fraction_slice(M, d)
    assert all(type(x) is int and x for col in columns for x in col.values())
    assert all(0 <= r < n_rows for col in columns for r in col)
    rows = _dense(columns, n_rows)
    scale = next((x / y for a, b in zip(rows, old) for x, y in zip(a, b) if y), 1)
    assert rows == [[scale * y for y in b] for b in old]
    return columns, n_rows, old


class TestSliceMatrix:
    def test_fractional_coefficients_give_integer_slices(self):
        pair = SectionPair(1, s**3 * Fraction(1, 2) + u**3, Fraction(2, 3) * u**5 + s**4 * u)
        cx = alphabeta_builder(pair)
        alpha, beta = cx.alpha, cx.beta
        for M in (alpha, beta, transpose_dual(alpha)):
            for d in range(-20, 24):
                columns, n_rows, old = _assert_scaled_reference(M, d)
                assert integer_rank(columns, n_rows) == matrix_rank(old)

    @pytest.mark.parametrize("rv", range(0, 9))
    def test_sparse_slices_match_the_fraction_reference(self, rv):
        rng = random.Random(20261018 + rv)
        pairs = [default_pair(rv), _second_pair(rv), _fractional_pair(rv)]
        pairs += [_random_pair(rng, rv) for _ in range(2)]
        for pair in pairs:
            cx = alphabeta_builder(pair)
            alpha, beta = cx.alpha, cx.beta
            for M in (alpha, beta, transpose_dual(alpha)):
                twists = M.source + M.target
                # from below the first nonempty slice to past the last new block
                for d in range(-max(twists) - 1, -min(twists) + 3):
                    _assert_scaled_reference(M, d)

    def test_slice_rank_cached_by_value(self, monkeypatch):
        first = alphabeta_builder(default_pair(2)).alpha
        second = alphabeta_builder(default_pair(2)).alpha
        assert first == second and first is not second and hash(first) == hash(second)
        assert first != transpose_dual(first)
        built = []
        original = graded.slice_matrix
        monkeypatch.setattr(graded, "slice_matrix", lambda M, d: built.append(d) or original(M, d))
        graded._SLICE_RANKS.clear()
        assert slice_rank(first, 30) == slice_rank(second, 30)
        assert [(M, list(ranks)) for M, ranks in graded._SLICE_RANKS.items()] == [(first, [30])]
        assert built == [30]  # the equal rebuilt matrix read the memo
        graded._SLICE_RANKS.clear()


def _sylvester(pair: SectionPair) -> GradedMatrix:
    """The row (a, b) from S(-r-2) + S(-r-4) to S, as common_zero_check builds it."""
    return GradedMatrix((-pair.r - 2, -pair.r - 4), (0,), ((pair.a, pair.b),))


def _thin_product(rng: random.Random) -> GradedMatrix:
    """P*Q through one component S(m): fiber rank at most 1, so most slices are short.

    The source twists differ, so the source components enter the slices one
    degree at a time.
    """
    source = tuple(sorted(rng.sample(range(-5, 1), 3)))
    m = max(source) + rng.randint(0, 2)
    target = (m + rng.randint(0, 2), m + rng.randint(0, 2))
    q = [_random_section(rng, m - a) for a in source]
    p = [_random_section(rng, t - m) for t in target]
    return GradedMatrix(source, target, tuple(tuple(pi * qj for qj in q) for pi in p))


# Columns S(0), S(0), S(-1) into S(0) + S(0).  In degree 0 the two constant
# columns are equal, so the slice has rank 1 of 2, while the pure-u
# coefficients of all three components, the absent S(-1) included, have rank 2.
_ABSENT_COMPONENT = GradedMatrix(
    (0, 0, -1), (0, 0), ((MultiPoly.const(1), MultiPoly.const(1), u), (MultiPoly.const(1), MultiPoly.const(1), s))
)


class TestSliceStep:
    """slice_rank bounds slice d from slice d-1; every rank is checked against Bareiss."""

    @pytest.fixture
    def built(self, monkeypatch) -> list[int]:
        """The degree of every slice slice_matrix builds, in order."""
        built = []
        original = graded.slice_matrix
        monkeypatch.setattr(graded, "slice_matrix", lambda M, d: built.append(d) or original(M, d))
        return built

    @staticmethod
    def _sweep(M: GradedMatrix, top: int, built: list) -> list[tuple[int, int, int, bool]]:
        """(d, rank, full, stepped) for d from below the first nonempty slice to top."""
        graded._SLICE_RANKS.clear()
        rows = []
        for d in range(-max(M.source + M.target) - 1, top + 1):
            before = len(built)
            rank = slice_rank(M, d)
            assert rank == bareiss_rank(_dense_slice(M, d)), (M.source, M.target, d)
            full = min(slice_dim(M.source, d), slice_dim(M.target, d))
            rows.append((d, rank, full, len(built) == before))
        graded._SLICE_RANKS.clear()
        return rows

    @pytest.mark.parametrize("rv", range(0, 2))
    def test_stepped_ranks_match_bareiss(self, built, rv):
        rng = random.Random(20261019 + rv)
        stepped = sum(row[3] for _ in range(4) for row in self._sweep(_thin_product(rng), 12, built))
        pairs = [default_pair(rv), _second_pair(rv), _fractional_pair(rv), _random_pair(rng, rv)]
        pairs.append(_planted_pair(rng, rv, _ROOTS[rv]))  # a common zero at [1:0], then [0:1]
        for pair in pairs:
            cx = alphabeta_builder(pair)
            # alpha and beta past the window d0..d0+6, where d0 = 3r + 18; the dual
            # to 2r + 12; the Sylvester row past m + n - 1, where a common zero shows
            tops = (3 * rv + 25, 3 * rv + 25, 2 * rv + 12, 2 * rv + 8)
            for M, top in zip((cx.alpha, cx.beta, transpose_dual(cx.alpha), _sylvester(pair)), tops):
                stepped += sum(row[3] for row in self._sweep(M, top, built))
        assert 0 < stepped and 0 < len(built)

    def test_absent_component_is_masked(self, built):
        assert self._sweep(_ABSENT_COMPONENT, 1, built) == [
            (-1, 0, 0, False),
            (0, 1, 2, False),  # the bound 0 + 1 falls short, so the slice is built
            (1, 3, 4, False),
        ]

    def test_short_slices_are_never_stepped_to_full(self, built):
        # a and b share the simple zero [1:1]; from degree m+n-1 on the Sylvester
        # slices are one short of full, and the beta slices two short
        pair = SectionPair(1, (s - u) * s * s, (s - u) * u**4)
        assert not common_zero_check(pair)
        for M in (_sylvester(pair), alphabeta_builder(pair).beta):
            rows = self._sweep(M, 30, built)
            short = [(d, rank, full, stepped) for d, rank, full, stepped in rows if rank < full]
            assert len(short) > 15 and short[-1][0] == 30
            assert not any(stepped for *_, stepped in short)
            assert short[-1][2] - short[-1][1] == (1 if M.target == (0,) else 2)


# [1:0], [0:1] and four more points of the line, as (x, y) for [x:y]
_ROOTS = ((1, 0), (0, 1), (Fraction(2, 3), 1), (Fraction(-5, 4), 1), (3, 1), (Fraction(1, 7), 1))


def _linear_form(point: tuple[Fraction, Fraction]) -> MultiPoly:
    """y*s - x*u, which vanishes at the point [x:y] of the line only."""
    return point[1] * s - point[0] * u


def _planted_pair(rng: random.Random, rv: int, common: tuple[Fraction, Fraction] | None) -> SectionPair:
    """A pair whose sections share a zero exactly when a common root is given.

    Each section is a random fraction times linear forms vanishing at its own
    half of _ROOTS, times at most one irreducible quadratic (s^2 + u^2 for a,
    s^2 + su + u^2 for b, with no common root); the common root, if any, is
    planted in both.
    """
    roots = list(_ROOTS)
    rng.shuffle(roots)
    sections = []
    sides = ((rv + 2, roots[:3], s * s + u * u), (rv + 4, roots[3:], s * s + s * u + u * u))
    for degree, own, quadratic in sides:
        section = MultiPoly.const(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))
        if common is not None:
            section, degree = section * _linear_form(common), degree - 1
        if degree >= 2 and rng.random() < 0.5:
            section, degree = section * quadratic, degree - 2
        for _ in range(degree):
            section = section * _linear_form(rng.choice(own))
        sections.append(section)
    return SectionPair(rv, *sections)


def _dense_sylvester(pair: SectionPair) -> list[list[int]]:
    """The square Sylvester matrix of the cleared sections, built densely.

    Column j of a's block holds s^j u^(n-1-j) * a and column j of b's block
    s^j u^(m-1-j) * b, with m = r+2, n = r+4; row k is the coefficient of
    s^k u^(m+n-1-k).  Clearing a section's denominator scales its columns,
    which leaves the rank alone.
    """
    m, n = pair.r + 2, pair.r + 4
    rows = [[0] * (m + n) for _ in range(m + n)]
    col = 0
    for section, shifts in ((pair.a, n), (pair.b, m)):
        num, _ = section.numerators()
        for j in range(shifts):
            for key, c in num.items():
                rows[exponent(key, "s") + j][col] = c
            col += 1
    return rows


class TestSectionPairs:
    def test_default_pair(self):
        pair = default_pair(3)
        assert pair.a == s**5
        assert pair.b == u**7

    def test_compared_and_hashed_by_value(self):
        pair = SectionPair(1, s**3 + u**3, s * u**4)
        same = SectionPair(1, u**3 + s**3, s * u**4)
        assert pair == same and pair is not same and hash(pair) == hash(same)
        assert pair != SectionPair(1, s**3 + u**3, u**5)
        assert default_pair(2) == default_pair(2) != default_pair(3)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            SectionPair(0, s, u**4)  # a must have degree 2
        with pytest.raises(ValueError):
            SectionPair(0, s * s, u * u)  # b must have degree 4
        with pytest.raises(ValueError):
            SectionPair(0, MultiPoly.zero(), u**4)
        with pytest.raises(ValueError):
            SectionPair(0, s * s + s, u**4)  # not homogeneous

    def test_common_zero_check(self):
        assert common_zero_check(default_pair(0))
        assert common_zero_check(SectionPair(0, s * s + u * u, u**4))
        # both sections vanish at [1:0]
        assert not common_zero_check(SectionPair(1, s * u * u, u**5))
        # both vanish at [0:1]
        assert not common_zero_check(SectionPair(0, s * s, s * u**3))
        # shared root s = u
        assert not common_zero_check(
            SectionPair(0, (s - u) * s, (s - u) * u**3)
        )

    def test_common_zero_check_matches_planted_roots_and_dense_sylvester(self):
        # The truth is planted, and the dense Sylvester matrix is built
        # without slice_matrix and ranked by Bareiss, not by integer_rank.
        rng = random.Random(20261018)
        for trial in range(162):
            rv = trial % 9
            common = _ROOTS[trial // 2 % len(_ROOTS)] if trial % 2 else None
            pair = _planted_pair(rng, rv, common)
            full = bareiss_rank(_dense_sylvester(pair)) == 2 * rv + 6
            assert common_zero_check(pair) == (common is None) == full


class TestComplex:
    def test_builder_entries(self):
        pair = default_pair(0)
        cx = alphabeta_builder(pair)
        alpha, beta = cx.alpha, cx.beta
        assert alpha.entries == ((s**4,), (2 * s * s * u**4,), (u**8,))
        assert beta.entries[0] == (2 * u**4, -(s * s), MultiPoly.zero())
        assert beta.entries[1] == (MultiPoly.zero(), -(u**4), 2 * s * s)
        assert alpha.source == (-12,)
        assert alpha.target == beta.source == (-8, -6, -4)
        assert beta.target == (-4, -2)

    def test_symbolic_identities(self):
        assert symbolic_complex_identities() is True

    def test_beta_alpha_zero_concrete(self):
        for rv in range(4):
            cx = alphabeta_builder(default_pair(rv))
            alpha, beta = cx.alpha, cx.beta
            assert all(
                entry.is_zero() for row in compose(beta, alpha) for entry in row
            )

    def test_pointwise_exactness(self):
        cx = alphabeta_builder(default_pair(0))
        ok, witness = pointwise_exactness(cx, list(DEFAULT_POINTS))
        assert ok and witness is None

    def test_pointwise_catches_common_zero(self):
        bad = SectionPair(1, s * u * u, u**5)  # both vanish at [1:0]
        cx = alphabeta_builder(bad)
        ok, witness = pointwise_exactness(cx, [(Fraction(1), Fraction(0))])
        assert not ok
        assert witness == (1, 0)

    def test_rejects_origin(self):
        cx = alphabeta_builder(default_pair(0))
        with pytest.raises(ValueError):
            pointwise_exactness(cx, [(Fraction(0), Fraction(0))])

    def test_scaling_invariance(self):
        cx = alphabeta_builder(default_pair(2))
        base = (Fraction(2), Fraction(3))
        scaled = (Fraction(4), Fraction(6))
        ok1, _ = pointwise_exactness(cx, [base])
        ok2, _ = pointwise_exactness(cx, [scaled])
        assert ok1 == ok2 == True


def _fraction_evaluate(M: GradedMatrix, point: tuple[Fraction, Fraction]) -> list[list[Fraction]]:
    """The entry-by-entry Fraction value of M at a point, the screen's former evaluation."""
    s_val, u_val = point
    rows = []
    for row in M.entries:
        cells = []
        for e in row:
            terms, den = graded._su_terms(e)
            value = sum((c * s_val**ds * u_val**du for (ds, du), c in terms.items()), Fraction(0))
            cells.append(value / den)
        rows.append(cells)
    return rows


def _benchmark_points(seed: int) -> list[tuple[Fraction, Fraction]]:
    """The six seeded --points pairs of the benchmark's graded-large-r workload."""
    rng = random.Random(seed)
    points = []
    while len(points) < 6:
        s_val = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        u_val = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if s_val or u_val:
            points.append((s_val, u_val))
    return points


class TestFiberScreen:
    POINTS = list(DEFAULT_POINTS) + [p for seed in (101, 102, 103) for p in _benchmark_points(seed)]

    @pytest.mark.parametrize("rv", range(0, 7))
    def test_integer_values_match_the_fraction_reference(self, rv):
        for pair in (default_pair(rv), _second_pair(rv)):
            cx = alphabeta_builder(pair)
            for M in (cx.alpha, cx.beta, section_row(pair)):
                for point in self.POINTS:
                    new = M.evaluate(point)
                    old = _fraction_evaluate(M, point)
                    assert all(type(x) is int for row in new for x in row)
                    # the integer representative multiplies cell (i, j) by L^(t_i - a_j)
                    L = math.lcm(point[0].denominator, point[1].denominator)
                    unscaled = [
                        [Fraction(x, L ** (t - a)) for x, a in zip(row, M.source)]
                        for row, t in zip(new, M.target)
                    ]
                    scale = next((x / y for a, b in zip(unscaled, old) for x, y in zip(a, b) if y), 1)
                    assert scale != 0
                    assert unscaled == [[scale * y for y in row] for row in old]
                    assert matrix_rank(new) == matrix_rank(old)
                    if L == 1:
                        assert new == [[scale * y for y in row] for row in old]

    def test_worst_input_evaluates_entries_of_degree_at_most_r_plus_4(self, monkeypatch):
        # at the largest accepted r and integer coordinates, every value the screen evaluates
        # is a product of at most r + 4 coordinates and a small coefficient
        rng = random.Random(22)
        low, high = 10 ** (POINT_DIGITS_CAP - 1), 10**POINT_DIGITS_CAP
        points = tuple((rng.randrange(low, high), rng.randrange(low, high)) for _ in range(5))
        sizes = []
        evaluate = GradedMatrix.evaluate

        def recording(M, point):
            rows = evaluate(M, point)
            sizes.extend(x.bit_length() for row in rows for x in row)
            return rows

        monkeypatch.setattr(GradedMatrix, "evaluate", recording)
        for pair in (default_pair(R_CAP), _second_pair(R_CAP)):
            certified_split.__wrapped__(pair, points)
        coordinate_bits = math.ceil(POINT_DIGITS_CAP * math.log2(10))
        assert sizes and max(sizes) <= (R_CAP + 4) * coordinate_bits + 4

    def test_fractional_common_zero_fails_the_screen(self):
        # a and b both vanish at [3/2 : 1]; the earlier points pass
        bad = SectionPair(0, (2 * s - 3 * u) * s, (2 * s - 3 * u) * u**3)
        cx = alphabeta_builder(bad)
        points = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(3, 2), Fraction(1))]
        assert pointwise_exactness(cx, points) == (False, (Fraction(3, 2), Fraction(1)))
        assert pointwise_exactness(cx, points[:2]) == (True, None)


def cokernel_h0_profile(cx: ComplexSpec, window: range) -> dict[int, int]:
    """The full h^0 profile of the cokernel over a window, twist by twist."""
    return {d: cokernel_h0(cx, d) for d in window}


def _full_window(cx: ComplexSpec) -> range:
    """Every twist from -(|e| + 4) to the top twist of the split-model check.

    The cokernel has no sections at the low end and has sections at the top,
    so the window holds the whole profile between.
    """
    e = cx.alpha.source[0]
    d0 = max(abs(a) for a in cx.alpha.source + cx.alpha.target + cx.beta.target)
    return range(-(abs(e) + 4), d0 + (cx.pair.r + 4) + 8 + 1)


class TestSliceCertificates:
    def test_window_r0(self):
        cx = alphabeta_builder(default_pair(0))
        assert slice_exactness_window(cx) == (18, 24)

    def test_alternating_slice_sums_vanish(self):
        cx = alphabeta_builder(default_pair(1))
        d0, d1 = slice_exactness_window(cx)
        for d in range(d0, d1 + 1):
            total = (
                slice_dim(cx.alpha.source, d)
                - slice_dim(cx.alpha.target, d)
                + slice_dim(cx.beta.target, d)
            )
            # exactness of 0 -> source -> middle -> target -> 0 in high slices
            assert total == 0

    def test_window_fails_for_degenerate_pair(self):
        bad = SectionPair(1, s * u * u, u**5)
        cx = alphabeta_builder(bad)
        with pytest.raises(GradedCertificateError):
            slice_exactness_window(cx)

    def test_cokernel_profile_nonnegative(self):
        cx = alphabeta_builder(default_pair(0))
        profile = cokernel_h0_profile(cx, range(-6, 25))
        assert all(v >= 0 for v in profile.values())
        # h^0(F(d)) matches the split model O(-4) + O(-2)
        for d, got in profile.items():
            assert got == max(d - 3, 0) + max(d - 1, 0)


class TestSplitting:
    @pytest.mark.parametrize("rv", range(0, 7))
    def test_splitting_values(self, rv):
        cx = alphabeta_builder(default_pair(rv))
        assert splitting_type(cx) == (rv - 4, rv - 2)

    @pytest.mark.parametrize("rv", range(0, 9))
    def test_one_twist_matches_the_full_profile(self, rv):
        pairs = [default_pair(rv), _second_pair(rv), _fractional_pair(rv)]
        pairs += [p for p in _seeded_random_pairs() if p.r == rv and common_zero_check(p)]
        for pair in pairs:
            cx = alphabeta_builder(pair)
            window = _full_window(cx)
            profile = cokernel_h0_profile(cx, window)
            values = [profile[d] for d in window]
            assert values == sorted(values) and values[0] == 0 < values[-1]
            y = -1 - max(d for d in window if profile[d] == 0)
            x = 2 * rv - 6 - y
            assert x <= y
            assert all(profile[d] == max(d + x + 1, 0) + max(d + y + 1, 0) for d in window)
            # the last oracle reads no slice: exactness makes coker alpha = im beta = O(r-4) + O(r-2)
            assert splitting_type(cx) == (x, y) == tuple(sorted(cx.beta.target))

    def test_each_twist_computed_once(self, monkeypatch):
        seen, built = [], []
        original, original_slice = graded.cokernel_h0, graded.slice_matrix
        monkeypatch.setattr(graded, "cokernel_h0", lambda cx, d: seen.append(d) or original(cx, d))
        monkeypatch.setattr(graded, "slice_matrix", lambda M, d: built.append((M, d)) or original_slice(M, d))
        graded._SLICE_RANKS.clear()
        cx = alphabeta_builder(_second_pair(8))
        assert splitting_type(cx) == (4, 6)
        # the twist d* that gives y, then the five twists of the split-model check
        assert len(seen) <= 6
        # d* = -y here: the second reading reuses the cached slice ranks
        assert len(built) == len(set(built)) > 0

    @pytest.mark.parametrize("bad", [2, 3, 4, 24])  # -y, -x-1, -x and the top twist at r = 0
    def test_profile_off_the_split_model_rejected(self, monkeypatch, bad):
        original = graded.cokernel_h0
        monkeypatch.setattr(graded, "cokernel_h0", lambda cx, d: original(cx, d) + (d == bad))
        cx = alphabeta_builder(default_pair(0))
        assert _full_window(cx)[-1] == 24
        with pytest.raises(GradedCertificateError, match="no split pair"):
            splitting_type(cx)

    def test_torsion_cokernel_rejected(self):
        # alpha = u^4 (s^2, 2s u^3, u^8): the cokernel has torsion at [1:0]
        cx = alphabeta_builder(SectionPair(1, s * u * u, u**5))
        with pytest.raises(GradedCertificateError, match="no split pair"):
            splitting_type(cx)


class TestCertificate:
    @pytest.mark.parametrize("rv", range(0, 7))
    def test_default_pairs(self, rv):
        assert injectivity_certificate(rv) is True

    def test_dense_pair(self):
        pair = SectionPair(1, s**3 + s * u * u, u**5)
        assert injectivity_certificate(1, pair) is True

    def test_common_zero_rejected(self):
        bad = SectionPair(1, s * u * u, u**5)
        with pytest.raises(GradedCertificateError, match="common zero"):
            injectivity_certificate(1, bad)

    def test_mismatched_r_rejected(self, monkeypatch):
        monkeypatch.setattr(graded, "common_zero_check", lambda p: pytest.fail("engine work ran"))
        with pytest.raises(ValueError):
            injectivity_certificate(2, default_pair(1))
        with pytest.raises(ValueError):
            injectivity_certificate(-1)

    def test_needs_five_points(self, monkeypatch):
        monkeypatch.setattr(graded, "common_zero_check", lambda p: pytest.fail("engine work ran"))
        with pytest.raises(ValueError):
            injectivity_certificate(0, points=[(Fraction(1), Fraction(0))])

    @pytest.mark.parametrize("empty", [[], ()], ids=["list", "tuple"])
    def test_no_points_is_not_the_default(self, monkeypatch, empty):
        # only None means DEFAULT_POINTS; an empty sample has fewer than five points
        monkeypatch.setattr(graded, "common_zero_check", lambda p: pytest.fail("engine work ran"))
        with pytest.raises(ValueError, match="need at least five sample points"):
            injectivity_certificate(2, None, empty)

    def test_random_pairs(self):
        produced = 0
        for pair in _seeded_random_pairs():
            if not common_zero_check(pair):
                with pytest.raises(GradedCertificateError):
                    injectivity_certificate(pair.r, pair)
            else:
                assert injectivity_certificate(pair.r, pair) is True
                produced += 1
        assert produced >= 20


class TestSymbolicInjectivity:
    def test_ranks_no_slice_and_runs_no_window_certificate(self, monkeypatch):
        for name in ("slice_rank", "integer_rank", "slice_matrix", "injectivity_certificate", "certified_split"):
            monkeypatch.setattr(graded, name, lambda *args, name=name: pytest.fail(f"{name} called"))
        symbolic_complex_identities.cache_clear()
        assert symbolic_injectivity() is True

    @pytest.mark.parametrize("shift", [3, 4])
    def test_sections_appear_exactly_when_the_twisted_target_reaches_degree_0(self, monkeypatch, shift):
        # beta's target moved by shift is O(shift-6) + O(shift-4) after the -r-2 twist
        original = graded._twists
        monkeypatch.setattr(
            graded, "_twists", lambda r: (*original(r)[:2], tuple(a + shift for a in original(r)[2]))
        )
        if shift == 3:
            assert symbolic_injectivity() is True
        else:
            with pytest.raises(GradedCertificateError, match=r"twisted summand O\(0\) has sections"):
                symbolic_injectivity()

    def test_split_other_than_the_target_of_beta_rejected(self, monkeypatch):
        # the window certificate must reach the symbolic argument's bundle, not just a bundle
        # without twisted sections: (-3, 1) at r = 2 has none after the -4 twist either
        original = graded.splitting_type
        monkeypatch.setattr(graded, "splitting_type", lambda cx: (original(cx)[0] - 1, original(cx)[1] + 1))
        certified_split.cache_clear()
        message = r"certified split \(-3, 1\) differs from beta's target \(-2, 0\)"
        with pytest.raises(GradedCertificateError, match=message):
            injectivity_certificate(2)


class TestCertificateCache:
    def test_repeat_runs_no_chain_step(self, monkeypatch):
        certified_split.cache_clear()
        assert injectivity_certificate(2) is True
        monkeypatch.setattr(graded, "common_zero_check", lambda p: pytest.fail("the chain ran again"))
        assert injectivity_certificate(2) is True
        assert injectivity_certificate(2, default_pair(2), list(DEFAULT_POINTS)) is True
        assert certified_split.cache_info().misses == 1
        assert certified_split(default_pair(2), DEFAULT_POINTS) == (-2, 0)

    def test_failures_are_not_cached(self, monkeypatch):
        bad = SectionPair(1, s * u * u, u**5)
        calls = []
        original = graded.common_zero_check
        monkeypatch.setattr(graded, "common_zero_check", lambda p: calls.append(p) or original(p))
        for _ in range(3):
            with pytest.raises(GradedCertificateError, match="common zero"):
                injectivity_certificate(1, bad)
        assert calls == [bad] * 3

    def test_symbolic_identities_evaluated_once(self, monkeypatch):
        stand_ins = []
        original = graded.var
        monkeypatch.setattr(graded, "var", lambda name: stand_ins.append(name) or original(name))
        certified_split.cache_clear()
        symbolic_complex_identities.cache_clear()
        for rv in (1, 2, 3):
            assert injectivity_certificate(rv) is True
        assert certified_split.cache_info().misses == 3
        # the free stand-ins a1, a2 are built by the first chain only
        assert [name for name in stand_ins if name.startswith("a")] == ["a1", "a2"]

    def test_graded_target_splits_each_pair_once(self, monkeypatch):
        calls = []
        original = graded.splitting_type
        monkeypatch.setattr(graded, "splitting_type", lambda cx: calls.append(cx.pair) or original(cx))
        certified_split.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["replicate", "graded", "--r", "2"]) == 0
        assert calls == [default_pair(2), _second_pair(2)]

    def test_equal_values_hash_alike_and_share_one_cache_entry(self):
        # each argument list is built twice, apart; the kept hash is the field tuple's
        cases = (
            (transpose_dual, lambda: (alphabeta_builder(default_pair(3)).beta,)),
            (certified_split, lambda: (SectionPair(1, s**3 + u**3, s * u**4), DEFAULT_POINTS)),
            (chow.wedge_powers, lambda: (chow.split_bundle([1, 2, 5], 3),)),
        )
        for cached, build in cases:
            first, second = build(), build()
            value, again = first[0], second[0]
            assert value == again and value is not again
            want = hash(tuple(getattr(value, name) for name in type(value).__slots__))
            assert hash(value) == want and hash(value) == want and hash(again) == want
            cached(*first)
            hits = cached.cache_info().hits
            cached(*second)
            assert cached.cache_info().hits == hits + 1


def _seeded_random_pairs() -> list[SectionPair]:
    """Random section pairs, r = 0..3, some with a common zero."""
    rng = random.Random(20260815)
    pairs = []
    for _ in range(40):
        rv = rng.randint(0, 3)
        a = _random_section(rng, rv + 2)
        b = _random_section(rng, rv + 4)
        try:
            pairs.append(SectionPair(rv, a, b))
        except ValueError:
            continue
    return pairs


def _random_section(rng: random.Random, degree: int) -> MultiPoly:
    total = MultiPoly.zero()
    for k in range(degree + 1):
        c = rng.randint(-3, 3)
        if c:
            total = total + c * s**k * u ** (degree - k)
    return total
