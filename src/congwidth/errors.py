"""Exception hierarchy shared across the package."""


class CongwidthError(Exception):
    """Base class for all domain errors raised by congwidth."""


class MismatchedRings(CongwidthError):
    """Operands belong to different rings."""


class UnsupportedRing(CongwidthError):
    """The requested operation has no algorithm for this ring kind."""


class NotInvertible(CongwidthError):
    """Matrix determinant is not a unit."""


class BadIndices(CongwidthError):
    """Invalid (i, j) pair for an elementary matrix."""


class DimensionMismatch(CongwidthError):
    """Matrix/vector dimensions do not line up."""


class ZeroIdeal(CongwidthError):
    """The zero ideal was supplied where a nonzero one is required."""


class NotSL(CongwidthError):
    """Matrix determinant is not 1."""


class CentralInput(CongwidthError):
    """A central matrix was supplied where a non-central one is required."""


class NotCongruent(CongwidthError):
    """Matrix does not lie in the principal congruence subgroup."""


class TrivialInput(CongwidthError):
    """The identity (or a zero datum) was supplied where nontrivial input is required."""


class SearchExhausted(CongwidthError):
    """A bounded certificate search ran out of candidates."""

    def __init__(self, message: str, bound: int):
        super().__init__(f"{message} (search bound {bound})")
        self.bound = bound


class NoUnitFound(CongwidthError):
    """No unit in the configured search space satisfies the required congruence."""


class CapAmbiguous(CongwidthError):
    """A non-identity element exceeded the congruence-level cap."""


class NotCentral(CongwidthError):
    """Subgroup supplied to a quotient construction is not central."""


class BadTransversal(CongwidthError):
    """Two supplied coset representatives fall in the same coset."""


class InnerUnbounded(CongwidthError):
    """Inner norm exceeds 1 where boundedness by 1 is required."""


class NoSmallVector(CongwidthError):
    """No vector of small enough norm was found in the searched region."""

    def __init__(self, message: str, candidates_tried: int):
        super().__init__(f"{message} (tried {candidates_tried} candidates)")
        self.candidates_tried = candidates_tried


class BudgetExceeded(CongwidthError):
    """An enumeration or BFS exceeded its configured budget."""


class ReplayMismatch(CongwidthError):
    """Replaying a trace did not reproduce a recorded intermediate."""


class TraceFormatError(CongwidthError):
    """A serialized trace does not follow the trace grammar."""
