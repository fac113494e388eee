"""Exact-arithmetic engine for computations on multiple scheme structures.

Modules:
  arith        exact rationals and sparse multivariate polynomials
  chow         truncated Chow-ring computations on projective space
  structures   Hilbert polynomials of layered structures, Chern solving
  cohomology   parametric line-bundle cohomology and exact-sequence solving
  integrality  binomial-basis expansion and congruence verdicts
  graded       degree-slice linear algebra for graded matrix complexes
  cli          replication driver with machine-readable reports
"""

__version__ = "0.1.0"
__all__ = ["EngineError", "__version__"]


class EngineError(Exception):
    """A self-check failed: the engine is inconsistent with itself.

    Distinct from ValueError, which reports bad input; the CLI exits 3 on
    this and 2 on that.
    """
