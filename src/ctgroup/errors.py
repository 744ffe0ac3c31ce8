"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
anything else from this hierarchy -> 4.
"""


def _rebuilt(cls, args, state):
    error = cls.__new__(cls, *args)
    error.args = args
    error.__dict__.update(state)
    return error


class CtgroupError(Exception):
    """Base class for all toolkit errors.

    An error pickles as its class, args and attributes and is rebuilt
    without calling ``__init__``, whose parameters may differ from its
    args, so one raised in a forked worker raises again in the parent as
    itself (forks.py).
    """

    def __reduce__(self):
        return _rebuilt, (type(self), self.args, self.__dict__)


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
    """A block address could not be resolved (e.g. no chunk assignment);
    the raiser's message says against what."""

    def __init__(self, address, message):
        super().__init__(message)
        self.address = address


class WorkerError(CtgroupError):
    """A forked worker process died, or sent back what could not be read."""


class InvariantError(CtgroupError):
    """An internal invariant was violated; indicates a bug or artifact mismatch."""
