"""The integer kernels: sparse polynomial products and Bareiss rank."""

from __future__ import annotations

import itertools
import random

from multistruct import _kernels
from multistruct.arith import VARIABLES, pack


def _key(**powers: int) -> int:
    return pack(tuple(powers.get(name, 0) for name in VARIABLES))


class TestPureKernels:
    def test_mul_identity(self):
        one = {_key(): 1}
        p = {_key(x=1): 2, _key(y=1): -3}
        assert _kernels.mul_int_dicts(p, one) == p
        assert _kernels.mul_int_dicts(p, {}) == {}

    def test_mul_cancellation(self):
        # (x + y)(x - y) = x^2 - y^2: the xy terms must cancel and vanish
        a = {_key(x=1): 1, _key(y=1): 1}
        b = {_key(x=1): 1, _key(y=1): -1}
        assert _kernels.mul_int_dicts(a, b) == {_key(x=2): 1, _key(y=2): -1}

    def test_rank_examples(self):
        assert _kernels.bareiss_rank([]) == 0
        assert _kernels.bareiss_rank([[0, 0], [0, 0]]) == 0
        assert _kernels.bareiss_rank([[1, 2], [2, 4]]) == 1
        assert _kernels.bareiss_rank([[1, 2], [3, 4]]) == 2
        assert _kernels.bareiss_rank([[1, 2, 3], [4, 5, 6]]) == 2

    def test_rank_via_minors(self):
        # The rank is the largest k with a nonzero k x k minor; products of
        # thin random factors make rank-deficient matrices common.
        rng = random.Random(11)
        for _ in range(40):
            rows, cols, inner = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
            m = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]
            brute = max(
                (
                    k
                    for k in range(1, min(rows, cols) + 1)
                    for rs in itertools.combinations(range(rows), k)
                    for cs in itertools.combinations(range(cols), k)
                    if _permutation_det([[m[i][j] for j in cs] for i in rs])
                ),
                default=0,
            )
            assert _kernels.bareiss_rank(m) == brute


def _permutation_det(m: list) -> int:
    """The determinant by the Leibniz permutation expansion."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total
