"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigurationError -> 2 (a mismatched
embedding dimension included), IntegrityError -> 3. Everything else is a
plain failure. No error type guards a zero-norm row: the encoder emits unit
rows and every consumer takes them as given.
"""


class ConfigurationError(ValueError):
    """A config value, flag combination, or input shape that cannot be run."""


class IntegrityError(RuntimeError):
    """A persisted artifact (checkpoint, index) failed validation on read."""


class InsufficientDataError(ValueError):
    """Too few usable samples for a statistical test."""


class TrainingDivergedError(RuntimeError):
    """A non-finite loss was encountered; carries a diagnostic state dump."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
