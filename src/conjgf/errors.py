"""Exception types raised across the package."""

from __future__ import annotations


class ConjGFError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPermutation(ConjGFError):
    """A supplied generator is not a bijection on the common domain."""


class BudgetExceeded(ConjGFError):
    """A request needs more bytes than `groups.MEMORY_BUDGET`; raised before it allocates."""


class NotAGroup(ConjGFError):
    """A multiplication table violates a group axiom.

    Carries the first violated axiom and a witness (element, pair or triple
    of element indices) so the caller can see exactly what failed.
    """

    def __init__(self, axiom: str, witness: tuple, message: str | None = None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(message or f"not a group: {axiom} fails at {witness}")


class InconsistentPresentation(ConjGFError):
    """A level of a presentation's build fails Hoelder's conditions, or `collect`
    ran past its rewrite budget."""


class NotPrimePower(ConjGFError):
    """Group order is not a power of the supplied prime."""


class InvalidParameters(ConjGFError):
    """Arguments violate the preconditions of a formula or constructor."""


class FingerprintMismatch(ConjGFError):
    """A catalog group compiled to something other than its expected structure."""


class LagrangeViolation(ConjGFError):
    """A non-central centralizer row of the B recursion held more than half its
    node's cosets, which Lagrange forbids; indicates a corrupt table, not bad input."""


class QuotientTooLarge(ConjGFError):
    """Central quotient exceeds the isoclinism search cap."""


class GroupSpecError(ConjGFError):
    """A group-spec document is malformed or carries unknown fields."""
