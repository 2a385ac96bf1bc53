"""Exception hierarchy for the toolkit.

Every error raised on purpose derives from :class:`KinerecoError` so the CLI
can map failures to a single machine-parsable stderr line.
"""


class KinerecoError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(KinerecoError):
    """Invalid session configuration (bad rotation, collinear geometry, ...)
    or command-line parameter."""


class FormatError(KinerecoError):
    """A file does not match the documented on-disk format."""


class DataError(KinerecoError):
    """Well-formed file with bad content (NaN cells, non-monotone time, ...)."""


class WindowError(KinerecoError):
    """A recording does not cover the requested impact window."""


class DegenerateSignalError(KinerecoError):
    """A signal is identically zero (or zero-variance) where structure is required."""
