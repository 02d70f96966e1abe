"""Exception classes shared by all temporag modules: one class per CLI exit code.

``TemporagError`` is the common base. ``ConfigError`` maps to exit code 1,
``DataError`` to 2 and ``ProviderUnavailableError`` to 3. The message
says what failed; no caller tells failures apart by anything else.
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
