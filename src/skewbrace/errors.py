"""Exception types shared across the package.

Every error raised on bad input derives from BraceError; BoundExceededError is
kept separate in the CLI exit-code contract (3 instead of 2).
"""

from __future__ import annotations


class BraceError(Exception):
    """Base class for validation errors raised by this package."""


class NotAGroupError(BraceError):
    """A Cayley table failed one of the group axioms."""

    def __init__(self, reason: str, witness=None):
        self.reason = reason
        self.witness = witness
        msg = reason if witness is None else f"{reason} (witness {witness})"
        super().__init__(msg)


class NonIntegerEntryError(BraceError):
    """A table entry is not an integer.  A float, str or bool is refused, not
    truncated, parsed or read as 0/1; carries the entry's (row, column)."""

    def __init__(self, table: str, row: int, column: int, value):
        self.witness = (row, column)
        super().__init__(f"{table} entry {value!r} at (row, column) = ({row}, {column}) "
                         f"is not an integer")


class OutOfCatalogError(BraceError):
    """Requested a group the built-in catalog does not cover."""


class BoundExceededError(BraceError):
    """Input size exceeds the configured bound for an exhaustive operation."""


class NotNormalError(BraceError):
    """Subgroup is not normal; carries a conjugation witness (g, x)."""

    def __init__(self, g: int, x: int):
        self.witness = (g, x)
        super().__init__(f"subgroup not normal: conjugate of {x} by {g} escapes")


class NotAnActionError(BraceError):
    """Claimed action is not a homomorphism into the automorphism group."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not a homomorphism into Aut (witness pair {witness})")


class IdentityMismatchError(BraceError):
    """The two tables of a brace do not share the identity at index 0."""


class DistributivityError(BraceError):
    """Skew left distributivity fails; carries the witness triple."""

    def __init__(self, a: int, b: int, c: int):
        self.witness = (a, b, c)
        super().__init__(f"a o (b+c) != a o b - a + a o c at (a,b,c)=({a},{b},{c})")


class NotASubgroupError(NotAGroupError):
    """A subset is not a group under the restricted operation; the optional
    witness is a pair (a, b) whose product leaves it, or the missing identity 0."""


class NotAnIdealError(BraceError):
    """Expected a verified ideal."""


class BadParamsError(BraceError):
    """Construction parameters violate the family constraints."""


class DomainViolationError(BraceError):
    """A rational value left the localized domain."""


class InvalidSpecError(BraceError):
    """Rational brace parameters violate the variant's constraints."""

    def __init__(self, constraint: str):
        self.constraint = constraint
        super().__init__(constraint)


class BadPrimeError(BraceError):
    """The witness prime violates its preconditions."""


class DegenerateError(BraceError):
    """A solution map, or a lambda row of LambdaAssignment, is not bijective
    at some point, or the row for that point is missing or extra."""

    def __init__(self, side: str, x: int):
        self.side = side
        self.x = x
        super().__init__(f"{side}_{x} is not a permutation")


class BraidFailureError(BraceError):
    """The braid relation fails; carries the witness triple."""

    def __init__(self, x: int, y: int, z: int):
        self.witness = (x, y, z)
        super().__init__(f"braid relation fails at ({x},{y},{z})")


class IllDefinedRetractionError(BraceError):
    """Retraction map not constant on classes (logic bug for valid solutions)."""


class SchemaError(BraceError):
    """A JSON artifact is missing or malforms a required field."""

    def __init__(self, field: str, detail: str = ""):
        self.field = field
        msg = f"bad or missing field {field!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
