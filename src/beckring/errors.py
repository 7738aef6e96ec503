"""Exception hierarchy and the CLI exit codes attached to it."""

from __future__ import annotations

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5


class BeckringError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_USAGE


class InvalidModulusError(BeckringError):
    """Z_n requested with n = 0."""

    exit_code = EXIT_PARSE


class DescriptorError(BeckringError):
    """Malformed ring descriptor (missing table entry, bad shape, ...)."""

    exit_code = EXIT_PARSE


class NotARingError(BeckringError):
    """Structure constants violate a ring axiom; names the failing elements."""

    exit_code = EXIT_PARSE

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"not a ring: {axiom} fails at {witness}")


class ElementError(BeckringError):
    """Element index outside [0, |R|)."""


class CapacityError(BeckringError):
    """Requested object exceeds the configured size cap."""

    exit_code = EXIT_CAPACITY


class ParseError(BeckringError):
    """Ring-expression syntax error, with the offset of a character of the input."""

    exit_code = EXIT_PARSE

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class BudgetError(BeckringError):
    """Solver time budget exhausted.

    Carries whatever has been certified so far: `lower` is always a valid
    lower bound; `upper` may be None when nothing has been certified from
    above; `witness` realizes `lower` when present.
    """

    exit_code = EXIT_BUDGET

    def __init__(self, what: str, lower: int, upper: int | None = None, witness=None):
        self.what = what
        self.lower = lower
        self.upper = upper
        self.witness = witness
        if upper is None:
            msg = f"time budget exhausted during {what}; certified lower bound {lower}"
        else:
            msg = f"time budget exhausted during {what}; certified interval [{lower}, {upper}]"
        super().__init__(msg)


class PreconditionError(BeckringError):
    """Operation called outside its stated domain (e.g. non-reduced ring)."""


class ContractError(BeckringError):
    """Caller-supplied certificate is invalid (e.g. improper coloring)."""


class InternalCheckError(BeckringError):
    """A result failed its own re-verification; indicates a bug, never user error."""
