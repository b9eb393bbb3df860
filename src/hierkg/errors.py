"""Exception hierarchy shared across the engine.

Errors partition into the classes the CLI maps to exit codes:
usage/invalid-argument, data (ingest/store), provider, internal.
"""


class HierKGError(Exception):
    """Base class for all engine errors."""


class InvalidArgumentError(HierKGError):
    """A caller-supplied argument violates a precondition."""


class NotFoundError(HierKGError):
    """A referenced id does not exist."""


class IngestError(HierKGError):
    """An input file that cannot be read, or malformed or referentially broken ingest data."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StoreError(HierKGError):
    """Index directory is missing, corrupt, or incompatible."""


class ProviderUnavailableError(HierKGError):
    """A live provider failed after all retries."""


class GenerationParseError(HierKGError):
    """Provider output did not match the expected schema."""

    def __init__(self, message: str, raw_text: str = ""):
        super().__init__(message)
        self.raw_text = raw_text
