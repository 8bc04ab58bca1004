"""Exception types shared across the workbench."""

from math import isqrt


class FactorlabError(Exception):
    """Base class for all workbench errors."""


class MalformedDescriptor(FactorlabError):
    """A monoid descriptor violates a structural invariant."""


class ClosureViolation(FactorlabError):
    """Two members whose product falls outside the described monoid.

    The raiser knows the model, so it writes the message, naming the
    elements in their literal form; the elements themselves travel along.
    """

    def __init__(self, message: str, left, right, total):
        self.left = left
        self.right = right
        self.total = total
        super().__init__(message)


class ShapeMismatch(FactorlabError):
    """An element literal or JSON value does not fit the model's shape."""


class NotAMember(FactorlabError):
    """An element of the right shape that does not belong to the monoid."""


class BudgetExceeded(FactorlabError):
    """An enumeration grew past the configured cap.

    Raised instead of silently truncating; the cap travels with the error.
    """

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"enumeration exceeded budget of {limit}")


class TableTooLarge(FactorlabError):
    """A fiber of n factorizations whose n x n distance table passes the
    limit; n is None when enumeration stopped past isqrt(limit) of them."""

    def __init__(self, n: int | None, limit: int):
        self.n = n
        self.limit = limit
        super().__init__(
            f"distance table of more than {isqrt(limit)} factorizations "
            f"passes the limit of {limit} entries" if n is None else
            f"distance table of {n} factorizations has {n * n} entries, "
            f"over the limit of {limit}")


class AssertionFailure(FactorlabError):
    """A bundled verification scenario found a claim that does not hold."""

    def __init__(self, message: str, context: dict | None = None):
        self.context = dict(context or {})
        super().__init__(message)
