"""The integer kernels: sparse polynomial products, Bareiss rank and determinant."""

from __future__ import annotations

import random

import pytest

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

    def test_det_examples(self):
        assert _kernels.bareiss_det([]) == 1
        assert _kernels.bareiss_det([[5]]) == 5
        assert _kernels.bareiss_det([[1, 2], [3, 4]]) == -2
        assert _kernels.bareiss_det([[0, 1], [1, 0]]) == -1
        assert _kernels.bareiss_det([[1, 2], [2, 4]]) == 0
        with pytest.raises(ValueError):
            _kernels.bareiss_det([[1, 2]])

    def test_det_via_permutation_expansion(self):
        import itertools

        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            brute = 0
            for perm in itertools.permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = sign
                for i in range(n):
                    term *= m[i][perm[i]]
                brute += term
            assert _kernels.bareiss_det(m) == brute
