"""Error types shared by all daemons and clients.

Each exception carries a stable ``code`` string; daemons map it onto the
wire as ``{"ok": false, "error": {"code": ..., "msg": ...}}`` and the CLI
prints it as ``E_<code>`` on stderr.
"""


class SamError(Exception):
    code = "ERROR"

    @property
    def msg(self) -> str:
        return str(self)


# -- catalog ---------------------------------------------------------------

class DuplicateName(SamError):
    code = "DUPLICATE_NAME"


class NotFound(SamError):
    code = "NOT_FOUND"


class ValidationError(SamError):
    code = "VALIDATION"

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class MalformedQuery(SamError):
    code = "MALFORMED_QUERY"


class UnknownEndpoint(SamError):
    code = "UNKNOWN_ENDPOINT"


class DuplicateLocation(SamError):
    code = "DUPLICATE_LOCATION"


# -- transfer --------------------------------------------------------------

class SourceUnavailable(SamError):
    code = "SOURCE_UNAVAILABLE"


class CrcMismatch(SamError):
    code = "CRC_MISMATCH"


class BadRequest(SamError):
    code = "BAD_REQUEST"


# -- station ---------------------------------------------------------------

class NoReplica(SamError):
    code = "NO_REPLICA"


class TransferExhausted(SamError):
    code = "TRANSFER_EXHAUSTED"


class CacheFull(SamError):
    code = "CACHE_FULL"


class NotResident(SamError):
    code = "NOT_RESIDENT"


class NotPinned(SamError):
    code = "NOT_PINNED"


class AccessDenied(SamError):
    code = "ACCESS_DENIED"


# -- store -----------------------------------------------------------------

class StoreFull(SamError):
    code = "STORE_FULL"


class FileTooLarge(SamError):
    code = "FILE_TOO_LARGE"


# -- project ---------------------------------------------------------------

class DuplicateProject(SamError):
    code = "DUPLICATE_PROJECT"


class ProjectEnded(SamError):
    code = "PROJECT_ENDED"


class NotHeld(SamError):
    code = "NOT_HELD"


# -- migration -------------------------------------------------------------

class MissingTable(SamError):
    code = "MISSING_TABLE"


class MalformedRow(SamError):
    code = "MALFORMED_ROW"

    def __init__(self, table: str, line_number: int, reason: str):
        self.table = table
        self.line_number = line_number
        super().__init__(f"{table}:{line_number}: {reason}")


# -- generic ---------------------------------------------------------------

class ConnectFailed(SamError):
    """A daemon could not be reached; the CLI renders this as E_CONN."""
    code = "CONN"


class RemoteError(SamError):
    """An error response received over the wire, code preserved verbatim."""

    def __init__(self, code: str, msg: str = ""):
        self.code = code
        super().__init__(msg)


class JournalCorrupt(SamError):
    code = "JOURNAL_CORRUPT"
