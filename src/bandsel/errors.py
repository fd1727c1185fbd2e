"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: config errors exit 2, data and file
format errors exit 3, numeric failures exit 4.
"""


class BandselError(Exception):
    """Base class for all package errors."""


class DimensionError(BandselError, ValueError):
    """Array shapes do not satisfy an operation's contract."""


class ConfigError(BandselError, ValueError):
    """Invalid hyperparameter, flag, or argument value."""


class DataError(BandselError, ValueError):
    """Input data violates an invariant (labels out of range, non-finite values)."""


class FormatError(BandselError, ValueError):
    """Malformed cube file or CSV; message carries the byte offset when known."""


class NumericError(BandselError, ArithmeticError):
    """Non-finite value encountered during optimization."""
