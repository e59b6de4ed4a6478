"""Exception types shared across the package."""


class LoopError(Exception):
    """Base class for every error raised by this package."""


class BadDimensions(LoopError):
    """Table is not an n-by-n grid of ids in range."""


class NotLatin(LoopError):
    """A row or column repeats a value.

    ``axis`` is "row" or "col", ``index`` the offending line.
    """

    def __init__(self, axis, index):
        self.axis = axis
        self.index = index
        super().__init__(f"duplicate entry in {axis} {index}")


class NoIdentity(LoopError):
    """Element 0 is not a two-sided identity."""


class OrderTooLarge(LoopError):
    """Order exceeds ``core.MAX_ORDER``, 256."""


class OrderMismatch(LoopError):
    """Two tables that must share an order do not."""


class DegreeMismatch(LoopError):
    """Permutations of different degrees were combined."""


class NotASubloop(LoopError):
    """Subset is not closed under the loop operations."""


class NotNormal(LoopError):
    """Subloop is not invariant under the inner mapping group."""


class UnknownVariety(LoopError):
    """Variety id is not in the catalog."""


class Inconsistent(LoopError):
    """Two independent computations of the same fact disagree."""


class InvalidSpec(LoopError):
    """Search specification is contradictory or out of range."""


class BudgetExceeded(LoopError):
    """Search ran past its node or time budget."""

    def __init__(self, visited, elapsed):
        self.visited = visited
        self.elapsed = elapsed
        super().__init__(f"budget exceeded after {visited} nodes, {elapsed:.2f}s")


class ParseError(LoopError):
    """Malformed .loop text."""
