"""Exception types shared across the toolkit."""


def decimal_text(n: int) -> str:
    """n in decimal, or by its bit length where CPython writes no decimal
    (past 4,300 digits by default), so that no message fails to form."""
    try:
        return str(n)
    except ValueError:
        return f"a {n.bit_length()}-bit number"


def outside(x: int, bound: int) -> str:
    """x is not in [0, bound), told by its bit length: a rank encodes a plaintext."""
    sign = "negative " * (x < 0)
    return f"a {sign}{x.bit_length()}-bit value is not in [0, {decimal_text(bound)})"


class FpeError(Exception):
    """Base class for every toolkit error."""


class InvalidFormat(FpeError):
    """A format definition failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(
            f"{v.path or '<root>'}: {v.code}: {v.message}" for v in self.violations
        )
        super().__init__(f"invalid format: {detail}")


class NotInFormat(FpeError):
    """The given string is not a member of the format."""

    @classmethod
    def of(cls, s: str):
        """The error for s, which gives its length but never its text."""
        return cls(f"a string of length {len(s)} is not in the format")


class ParseFailure(NotInFormat):
    """A string could not be split into the pieces its format prescribes."""


class RankOutOfRange(FpeError):
    """A rank fell outside [0, format size)."""


class InputOutOfDomain(FpeError):
    """An integer input fell outside the permutation's domain."""


class WalkBudgetExceeded(FpeError):
    """Cycle walking did not land inside the target range within budget."""


class UnsplittableAtom(FpeError):
    """A table-backed format exceeds the size bound and cannot be split."""


class ExampleFormatMismatch(FpeError):
    """The example string handed to multi-slot unranking is not a member."""


class VectorShapeMismatch(FpeError):
    """A rank vector's slot count or slot sizes disagree with the plan."""


class NotSubset(FpeError):
    """The original format is not contained in the simplified format."""


class EntropyUnavailable(FpeError):
    """The operating system refused to provide random bytes."""


class SpecSyntaxError(FpeError):
    """Format definition text is not well formed."""


class UnknownNodeType(FpeError):
    """Format definition names a node type that does not exist."""


class BadParameter(FpeError):
    """A parameter value is unusable."""


class CsvFieldError(FpeError):
    """A CSV cell failed to transform; names the offending row and column."""

    def __init__(self, row, column, cause):
        self.row = row
        self.column = column
        self.cause = cause
        super().__init__(f"row {row}, column {column}: {type(cause).__name__}: {cause}")
