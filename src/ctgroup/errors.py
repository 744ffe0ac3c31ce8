"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
anything else from this hierarchy -> 4.
"""


class CtgroupError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CtgroupError):
    """Invalid or out-of-bounds configuration value."""


class DataError(CtgroupError):
    """Problem with input data (traces, artifacts)."""


class _LineError(DataError):
    """A data error about one input line; carries its 1-based number when known."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class TraceParseError(_LineError):
    """A trace line could not be parsed."""


class RejectedRecordError(_LineError):
    """A syntactically valid record violates a field constraint (e.g. size <= 0)."""


class EmptyTraceError(DataError):
    """A trace contained zero valid records."""


class DimensionMismatchError(CtgroupError):
    """Two feature vectors over different transaction counts were combined."""


class UnknownDatumError(DataError):
    """A block address could not be resolved (e.g. no chunk assignment)."""

    def __init__(self, address):
        super().__init__(f"no chunk assignment for block address {address}")
        self.address = address


class InvariantError(CtgroupError):
    """An internal invariant was violated; indicates a bug or artifact mismatch."""
