"""Exception types shared across the workbench."""


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


class TableMismatch(FactorlabError):
    """Factorizations from different atom tables were combined."""


class BudgetExceeded(FactorlabError):
    """An enumeration grew past the configured cap.

    Raised instead of silently truncating; the cap travels with the error.
    """

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"enumeration exceeded budget of {limit}")


class AssertionFailure(FactorlabError):
    """A bundled verification scenario found a claim that does not hold."""

    def __init__(self, message: str, context: dict | None = None):
        self.context = dict(context or {})
        super().__init__(message)
