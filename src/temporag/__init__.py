"""Temporal-aware retrieval engine for long-video question answering.

Indexes time-stamped auxiliary text channels (speech transcripts and
on-screen text), selects information-dense keyframes
by entropy weighting, rescores lexical hits by temporal proximity to
query anchors, and composes an augmented prompt for an external
video-language model.
"""

from .errors import TemporagError
from .types import (
    Channel,
    FrameRecord,
    QueryRequest,
    RetrievalRequest,
    ScoredSnippet,
    Snippet,
    VideoRecord,
    validate_snippet,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "FrameRecord",
    "QueryRequest",
    "RetrievalRequest",
    "ScoredSnippet",
    "Snippet",
    "TemporagError",
    "VideoRecord",
    "__version__",
    "validate_snippet",
]
