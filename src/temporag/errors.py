"""Exception hierarchy shared by all temporag modules.

``TemporagError`` is the common base. ``DataError`` subclasses map to CLI
exit code 2, ``ConfigError`` to 1, ``ProviderUnavailableError`` to 3.
"""

from __future__ import annotations


class TemporagError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TemporagError):
    """Invalid configuration or command usage."""


class DataError(TemporagError):
    """Invalid input data or domain invariant violation."""


class ProviderUnavailableError(TemporagError):
    """An external provider (LVLM, embedder, detector) could not be reached."""


# --- core-model -----------------------------------------------------------


class EmptyTextError(DataError):
    """Snippet or query text is empty after whitespace trim."""


class TimeOutOfRangeError(DataError):
    def __init__(self, t: float, duration_s: float):
        super().__init__(f"time {t!r} outside [0, {duration_s!r}]")
        self.t = t
        self.duration_s = duration_s


class InvertedIntervalError(DataError):
    """t_start exceeds t_end."""


# --- text index ------------------------------------------------------------


class MixedChannelsError(DataError):
    """Documents of more than one channel passed to a single index build."""


class DuplicateDocIdError(DataError):
    def __init__(self, doc_id: str):
        super().__init__(f"duplicate doc id {doc_id!r}")
        self.doc_id = doc_id


class VersionMismatchError(DataError):
    """Persisted index file has an unsupported magic or format version."""


# --- vectors --------------------------------------------------------------


class ZeroVectorError(DataError):
    """Cannot normalize a vector with zero norm."""


class DimMismatchError(DataError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"expected dim {expected}, got {got}")
        self.expected = expected
        self.got = got


# --- temporal rescorer ------------------------------------------------------


class EmptyFrameListError(DataError):
    """Anchor computation requires at least one frame."""


class AllZeroMassError(DataError):
    """Every raw_score * decay product in the candidate pool is zero."""


# --- frame selector ----------------------------------------------------------


class LengthMismatchError(DataError):
    def __init__(self, n_frames: int, n_sims: int):
        super().__init__(f"{n_frames} frames but {n_sims} similarities")


# --- ingestion ---------------------------------------------------------------


class MalformedTimestampError(DataError):
    def __init__(self, line_no: int, detail: str):
        super().__init__(f"line {line_no}: {detail}")
        self.line_no = line_no


class MissingHeaderError(DataError):
    """WebVTT input does not begin with the WEBVTT header."""


class EmptyFileError(DataError):
    """Input contains no cues or records."""


class NoValidLinesError(DataError):
    """Every line of a JSONL file failed to parse."""


class InvalidBoxError(DataError):
    """Bounding box violates x1 < x2, y1 < y2 within [0, 1]."""


# --- pipeline ----------------------------------------------------------------


class EmptyIndexError(DataError):
    """Retrieval requested against an index with no documents."""


class BudgetTooSmallError(ConfigError):
    def __init__(self, budget: int, minimum: int):
        super().__init__(f"budget {budget} below minimum {minimum}")


# --- eval harness -------------------------------------------------------------


class InfeasibleSpecError(DataError):
    """Synthetic corpus spec cannot be realized (duplicate placement)."""
