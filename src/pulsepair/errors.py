"""Exception types shared across the package.

The CLI maps these onto process exit codes, so stage code should raise
the most specific type that applies rather than bare ValueError.
"""


class ValidationError(ValueError):
    """Bad configuration, bad data file, or a violated precondition."""


class ArchiveFormatError(ValidationError):
    """Malformed CSV: an archive, candidates, stats or drift-scan file.

    Carries the 1-based line number of the offending row when known.  The
    message starts with the file's path and that line, when given.
    """

    def __init__(self, message: str, line_no: int | None = None, path=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line_no = line_no


class StageError(RuntimeError):
    """A pipeline stage failed after validation passed."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage


class UsageError(Exception):
    """Bad command line (unknown subcommand, missing required flag)."""
