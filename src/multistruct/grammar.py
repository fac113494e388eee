"""The report's polynomial text form, read back into MultiPoly.

arith.format_poly prints every polynomial of a report in this grammar, and
parse_poly reads it back exactly (parse_poly(format_poly(p)) == p):

  poly     :=  ['-'] term (('+'|'-') term)*
  term     :=  factor ('*' factor)*
  factor   :=  rational | integer | variable ['^' integer]
  rational :=  '(' integer '/' integer ')'

e.g. ``(1/2)*t^2 + (3/2)*t + 1`` or ``2*r^2 - 3*s*u^4``.  Variables are
those of arith.VARIABLES.  No replication target reads text, so the
command line never imports this module; it is for tests and library users.
"""

from __future__ import annotations

import re

from .arith import MultiPoly, var

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([()+\-*/^]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"unexpected character at position {pos}: {text[pos]!r}")
        if m.group(1) is not None:
            tokens.append(("num", m.group(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ValueError(f"expected {op!r}, got {tok[1]!r}")

    def parse(self) -> MultiPoly:
        poly = self.parse_term(self.parse_sign())
        while True:
            tok = self.peek()
            if tok is None:
                return poly
            if tok == ("op", "+"):
                self.take()
                poly = poly + self.parse_term(1)
            elif tok == ("op", "-"):
                self.take()
                poly = poly + self.parse_term(-1)
            else:
                raise ValueError(f"expected '+' or '-', got {tok[1]!r}")

    def parse_sign(self) -> int:
        sign = 1
        while self.peek() in (("op", "+"), ("op", "-")):
            if self.take() == ("op", "-"):
                sign = -sign
        return sign

    def parse_term(self, sign: int) -> MultiPoly:
        poly = MultiPoly.const(sign) * self.parse_factor()
        while self.peek() == ("op", "*"):
            self.take()
            poly = poly * self.parse_factor()
        return poly

    def parse_factor(self) -> MultiPoly:
        tok = self.take()
        if tok[0] == "num":
            return MultiPoly.const(int(tok[1]))
        if tok == ("op", "("):
            num = self.take()
            if num[0] != "num":
                raise ValueError("expected an integer inside a rational literal")
            self.expect_op("/")
            den = self.take()
            if den[0] != "num":
                raise ValueError("expected an integer denominator")
            self.expect_op(")")
            if int(den[1]) == 0:
                raise ValueError("zero denominator in rational literal")
            return MultiPoly.const(int(num[1])).scalar_div(int(den[1]))
        if tok[0] == "name":
            base = var(tok[1])
            if self.peek() == ("op", "^"):
                self.take()
                power = self.take()
                if power[0] != "num":
                    raise ValueError("expected an integer exponent after '^'")
                return base ** int(power[1])
            return base
        raise ValueError(f"unexpected token {tok[1]!r}")


def parse_poly(text: str) -> MultiPoly:
    """Parse the canonical text form back into a MultiPoly."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    parser = _Parser(tokens)
    poly = parser.parse()
    if parser.peek() is not None:
        raise ValueError("trailing input after polynomial")
    return poly

