"""Exception types shared across the package."""

from __future__ import annotations


class SplitSteinerError(Exception):
    """Base class for all package-specific errors. Carries the 1-based
    line number of the input at fault, when there is one, as line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SstpParseError(SplitSteinerError):
    """Malformed SSTP input."""


class X3CParseError(SplitSteinerError):
    """Malformed X3C input."""


class NotSplitError(SplitSteinerError):
    """The graph is not a split graph.

    Carries a certifying obstruction: an induced 2K2, C4 or C5, given as
    the vertex sequence of the forbidden subgraph.
    """

    def __init__(self, kind: str, vertices: tuple[int, ...]):
        self.kind = kind
        self.vertices = vertices
        shown = ", ".join(str(v + 1) for v in vertices)
        super().__init__(f"not a split graph: induced {kind} on vertices ({shown})")


class NotK14FreeError(SplitSteinerError):
    """The split graph contains an induced K_{1,4}, so the polynomial
    solvers do not apply. Carries the star witness; refused, when given,
    says why the exact fallback declined the instance."""

    def __init__(self, witness, refused: str = ""):
        self.witness = witness
        center = witness.center + 1
        leaves = ", ".join(str(v + 1) for v in witness.leaves)
        why = f", and the exact fallback was refused: {refused}" if refused else ""
        super().__init__(
            f"graph is not K_(1,4)-free: star centered at {center} "
            f"with leaves ({leaves}); no polynomial regime applies{why}"
        )


class OracleBudgetError(SplitSteinerError):
    """Brute-force enumeration exceeded its subset budget."""


class InvariantError(SplitSteinerError):
    """A solver invariant failed: a size bound or a disjointness the
    paper's algorithms guarantee. Raised explicitly, so that it also
    holds under python -O, which strips assert statements."""


class GeneratorError(SplitSteinerError):
    """Generator configuration is infeasible or sampling gave up."""
