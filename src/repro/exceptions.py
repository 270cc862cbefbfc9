"""Exception hierarchy for the repro (FTPMfTS) library.

All exceptions raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration mistakes from data problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when mining or transformation parameters are invalid.

    Examples: a negative support threshold, an overlap duration larger than the
    maximal pattern duration, or an unknown pruning mode.
    """


class DataError(ReproError):
    """Raised when input data is malformed.

    Examples: a time series with non-increasing timestamps, an empty symbolic
    database, or a sequence database whose sequences reference unknown series.
    """


class SymbolizationError(DataError):
    """Raised when a raw value cannot be mapped to a symbol."""


class MiningError(ReproError):
    """Raised when the mining process itself encounters an inconsistent state."""


class SessionFormatError(DataError, MiningError):
    """Raised when a session/checkpoint file cannot be read.

    Covers everything from a truncated pickle to a payload written by an
    incompatible format version.  Inherits both :class:`DataError` (the file
    is malformed input) and :class:`MiningError` (the CLI maps mining
    runtime failures — this one included — to exit code 1), so existing
    ``except DataError`` callers keep working.

    Attributes
    ----------
    path:
        The session file that failed to load, when known.
    version:
        The format version detected in the file, when one was readable.
    """

    def __init__(
        self,
        message: str,
        *,
        path: object = None,
        version: int | None = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.version = version


class MemoryBudgetExceeded(MiningError):
    """Raised when a worker's shard working set outgrows its memory share.

    The process engine's watchdog (:mod:`repro.core.resources`) polls the
    worker's resident-set growth while a shard evaluates and raises this —
    cleanly, from Python — before the kernel's OOM killer would have fired.
    The coordinator treats it as a *recoverable* signal: the shard is split
    in half and resubmitted (recursively, down to a one-candidate floor),
    then degraded further (smaller kernel chunks, in-process evaluation)
    before the run is allowed to fail.  Kept
    picklable (message-only) so it survives the process-pool boundary.
    """


class RepresentationOverflowError(MiningError):
    """Raised when occurrence evidence no longer fits its storage dtype.

    The columnar occurrence store indexes instance lists with ``int32``
    (see :class:`repro.core.hpg.PatternEntry`); an instance-list position
    beyond ``2**31 - 1`` would silently wrap into a negative index and
    materialise the *wrong* instance.  Insertion raises this instead, and
    so does a level whose (event, sequence) groups times distinct instance
    starts would not fit the batched pass's ``int64`` window keys.
    """
