"""Shared test helpers and the acceptance-criteria terminal summary."""

from __future__ import annotations

import random
from fractions import Fraction

from multistruct.arith import MultiPoly, VARIABLES, var

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
