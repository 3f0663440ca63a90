"""Exception and warning types shared across the package.

The CLI maps these onto exit codes: ConfigurationError -> 2,
IntegrityError -> 3. Everything else is a plain failure. No error type
guards a zero-norm row: normalization passes one through with a
DegenerateVectorWarning, and the training losses take the encoder's unit
rows as given.
"""


class ConfigurationError(ValueError):
    """A config value, flag combination, or input shape that cannot be run."""


class IntegrityError(RuntimeError):
    """A persisted artifact (checkpoint, index) failed validation on read."""


class DimensionMismatchError(ValueError):
    """Two vectors/matrices that must agree in shape do not."""


class InsufficientDataError(ValueError):
    """Too few usable samples for a statistical test."""


class TrainingDivergedError(RuntimeError):
    """A non-finite loss was encountered; carries a diagnostic state dump."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class DegenerateVectorWarning(UserWarning):
    """A zero-norm vector passed through an operation that tolerates it."""
