"""Exception types shared across the package.

Remote-source failures are *not* exceptions: connectors fold them into
FailureClass values so a bad network day never aborts a run. The classes
here cover local misuse, unreadable inputs, and safety gates.
"""


class CitecheckError(Exception):
    """Base class for all citecheck errors."""


class RootNotFound(CitecheckError):
    """Scan root does not exist."""


class PermissionDenied(CitecheckError):
    """Scan root itself is unreadable (unreadable subdirectories are skipped, not fatal)."""


class NoCandidates(CitecheckError):
    """Workspace contains no supported artifact."""


class UnsupportedFormat(CitecheckError):
    """File extension or rendering format outside the supported set."""


class UnreadableFile(CitecheckError):
    """File exists but could not be read."""


class CorruptArchive(CitecheckError):
    """A .docx payload is not a readable ZIP archive."""


class MissingDocumentPart(CitecheckError):
    """A .docx archive lacks word/document.xml."""


class FixtureMissing(CitecheckError):
    """Replay transport has no usable stored response for a request key."""

    def __init__(self, request_key: str, problem: str = "no recorded fixture"):
        super().__init__(f"{problem} for request key: {request_key}")
        self.request_key = request_key


class AlignmentMismatch(CitecheckError):
    """Verdict list does not align 1:1 with extraction entries (programming error)."""


class StaleFile(CitecheckError):
    """Target file changed since the rewrite plan was computed."""


class WriteDenied(CitecheckError):
    """Write-back refused (existing backup, unwritable target)."""


class BlockedByPolicy(CitecheckError):
    """Replacement write requested but the policy gate denied the plan."""


class UsageError(CitecheckError):
    """Bad command-line invocation (exit code 64)."""


class ConfigError(CitecheckError):
    """Inconsistent run configuration (replay without a fixture store, ...)."""
