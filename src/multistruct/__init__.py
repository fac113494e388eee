"""Exact-arithmetic engine for computations on multiple scheme structures.

Modules:
  arith        exact rationals and sparse multivariate polynomials
  grammar      the report's polynomial text form, read back (not loaded by cli)
  chow         truncated Chow-ring computations on projective space
  structures   Hilbert polynomials of layered structures, Chern solving
  cohomology   parametric line-bundle cohomology and exact-sequence solving
  integrality  binomial-basis expansion and congruence verdicts
  graded       degree-slice linear algebra for graded matrix complexes
  cli          replication driver with machine-readable reports
"""

__version__ = "0.1.0"
__all__ = ["EngineError", "Value", "__version__"]


class EngineError(Exception):
    """A self-check failed: the engine is inconsistent with itself.

    Distinct from ValueError, which reports bad input; the CLI exits 3 on
    this and 2 on that.
    """


class Value:
    """Base of the slotted classes compared by value.

    Two instances are equal when they have the same type and equal fields,
    in __slots__ order; the hash is that of the field tuple.  So instances
    serve as cache keys, and classes with the same fields stay unequal.
    Subclasses write their fields only in __init__, so the hash is computed
    on first use and kept in _hash.
    """

    __slots__ = ("_hash",)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(tuple(getattr(self, name) for name in self.__slots__))
            return h
