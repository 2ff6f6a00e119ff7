"""Exception types shared across the library.

The CLI maps PreconditionError to exit code 1 and ParseError to exit
code 2; everything else is a bug and exits with code 3. InternalError
marks such a bug found by a check inside the library: an invariant of a
computation failed.
"""


class LatkitError(Exception):
    """Base class for all library errors."""


class PreconditionError(LatkitError):
    """A mathematical precondition of an operation is violated."""


class IterationLimitError(PreconditionError):
    """A bounded search exhausted its iteration cap without an answer."""


class ParseError(LatkitError):
    """Malformed input text or file."""


class InternalError(LatkitError):
    """An internal invariant failed; the library, not the input, is at fault."""
