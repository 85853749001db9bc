"""Exception hierarchy shared across the package.

Everything raised on purpose derives from VolcError so the CLI can map
domain failures to a single exit code.
"""


class VolcError(Exception):
    """Base class for all domain errors."""


class ShapeError(VolcError):
    """Invalid tensor shape, or shapes that do not match an operation's
    contract; a batch of one, on which train-mode batchnorm has no batch
    statistics, is one."""


class InvalidParameterError(VolcError):
    """An argument is outside its allowed values: a range, a mode string,
    a missing RngStream, or a sensor profile that does not fit its patch."""


class CatalogError(VolcError):
    """A sample's meta.json is missing, unreadable or malformed; the message
    names the file and the key."""


class MissingClassError(VolcError):
    """An operation that needs both classes saw only one."""


class ModelFormatError(VolcError):
    """A VBP1 or VRC1 plane file cannot be read or is not parseable: no
    file, a path that cannot be read (a directory, say), bad magic,
    truncation, trailing bytes, an empty plane, an unknown sensor id or a
    non-finite value; the message names the OS error or the byte offset."""
