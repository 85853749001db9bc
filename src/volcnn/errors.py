"""Exception hierarchy shared across the package.

Everything raised on purpose derives from VolcError so the CLI can map
domain failures to a single exit code.
"""


class VolcError(Exception):
    """Base class for all domain errors."""


class ShapeError(VolcError):
    """Invalid tensor shape, or shapes that do not match an operation's contract."""


class InvalidParameterError(VolcError):
    """A numeric argument is outside its allowed range."""


class DegenerateBatchError(VolcError):
    """Batch statistics requested on a batch too small to define them."""


class ProfileError(VolcError):
    """Sensor profile does not match the patch it was applied to."""


class CatalogError(VolcError):
    """A catalog or manifest row failed to parse, or a sample's meta.json is
    missing or malformed; the message carries the line number, or the file
    and the key."""


class MissingClassError(VolcError):
    """An operation that needs both classes saw only one."""


class DivergenceError(VolcError):
    """Training loss became non-finite; message names epoch and batch."""


class EmptyInputError(VolcError):
    """An aggregate was requested over zero samples."""


class InvalidScoreError(VolcError):
    """Classification score outside [0, 1]."""


class ModelFormatError(VolcError):
    """Model file is not parseable (bad magic, truncation); names the offset."""


class ChecksumError(ModelFormatError):
    """Model file parsed but its trailing CRC32 does not match."""


class ModelIntegrityError(VolcError):
    """Parsed weight data inconsistent with the declared layer table."""
