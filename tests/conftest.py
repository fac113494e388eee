"""Shared test helpers and the acceptance-criteria terminal summary."""

from __future__ import annotations

import random
from fractions import Fraction

from multistruct.arith import MultiPoly, VARIABLES, unpack, var

CRITERIA: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    CRITERIA[number] = (ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        ok, detail = CRITERIA[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} - {detail}")


def sorted_terms(p: MultiPoly) -> list[tuple[tuple[int, ...], Fraction]]:
    """The terms of p as (exponent tuple, Fraction), in graded-lex order, highest first."""
    num, den = p.numerators()
    return [(unpack(key), Fraction(num[key], den)) for key in sorted(num, reverse=True)]


def as_fraction(p: MultiPoly) -> Fraction:
    """The value of a constant polynomial as a Fraction; ValueError when non-constant."""
    return Fraction(*p.constant_pair())


def random_poly(
    rng: random.Random,
    names: tuple[str, ...] = ("t", "r"),
    max_degree: int = 3,
    max_terms: int = 5,
) -> MultiPoly:
    """A small random polynomial with rational coefficients."""
    total = MultiPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        term = MultiPoly.const(coeff)
        for name in names:
            term = term * var(name) ** rng.randint(0, max_degree)
        total = total + term
    return total


assert set(("t", "r")) <= set(VARIABLES)
