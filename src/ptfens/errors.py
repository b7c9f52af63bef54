"""Exception hierarchy shared across the package, and the text-file opener
that turns unreadable files and undecodable bytes into one of these errors.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and
subclasses) -> 2, anything else -> 3, except an OSError (an output that
cannot be written) -> 1.
"""

import io


class PtfensError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PtfensError):
    """Bad command line usage, config file, or run configuration."""


class DataError(PtfensError):
    """Invalid input data, file contents, or arguments."""


class ParameterError(DataError):
    """Retention parameters outside their family's domain."""


class InputError(DataError):
    """Operation input violates a precondition."""


class SchemaError(DataError):
    """Column-mapping schema is missing or inconsistent with the data file."""


class TableLookupError(DataError):
    """A texture class is absent from a class lookup table."""


class AnnSpecError(DataError):
    """Malformed network spec or input of the wrong dimension."""


class GridFormatError(DataError):
    """ASCII grid file violates the expected format."""


class CoregistrationError(DataError):
    """Raster layers do not share an identical header."""


class MemberPredictionError(DataError):
    """An ensemble member failed to predict; carries the member name."""


def open_text(path, error, newline=None):
    """A UTF-8 text file as a readable stream, decoded up front.

    A file that cannot be read (missing, a directory, no permission) or a
    byte that is not UTF-8 raises error (a ConfigError or DataError
    subclass) naming the file, and for a byte its offset, instead of an
    OSError or a UnicodeDecodeError surfacing mid-parse. newline has the
    meaning it has for open().
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return io.StringIO(text, newline=newline)
