"""Exception hierarchy for the PIP reproduction.

Every error raised by the library derives from :class:`PIPError` so callers
can catch library failures with a single except clause.

Each class carries a stable, machine-readable ``code`` (``"PIP-..."``):
the network service layer maps exceptions to wire errors by code — never
by string matching on messages — and the client maps codes back to the
same exception classes, so ``except TransactionError:`` works identically
against a local database and a remote one.  Codes are part of the wire
protocol (see ``docs/server.md``); changing one is a protocol break.
"""


class PIPError(Exception):
    """Base class for all errors raised by this library."""

    #: Stable machine-readable error code (wire-protocol contract).
    code = "PIP-ERROR"


class SchemaError(PIPError):
    """A table or query referenced a column or type that does not exist."""

    code = "PIP-SCHEMA"


class ParseError(PIPError):
    """The SQL front end could not parse its input.

    Carries the offending position so error messages can point at the
    source text.
    """

    code = "PIP-PARSE"

    def __init__(self, message, position=None, text=None):
        self.position = position
        self.text = text
        if position is not None and text is not None:
            line = text.count("\n", 0, position) + 1
            col = position - (text.rfind("\n", 0, position) + 1) + 1
            message = "%s (line %d, column %d)" % (message, line, col)
        super().__init__(message)


class PlanError(PIPError):
    """A logical plan could not be built or executed."""

    code = "PIP-PLAN"


class DistributionError(PIPError):
    """A distribution class was misused (bad parameters, missing method)."""

    code = "PIP-DISTRIBUTION"


class SamplingError(PIPError):
    """The sampling subsystem could not produce a usable sample."""

    code = "PIP-SAMPLING"


class InconsistentConditionError(PIPError):
    """An operation required a consistent condition but got a contradiction."""

    code = "PIP-INCONSISTENT"


class StorageError(PIPError):
    """The durable storage subsystem hit an unrecoverable on-disk state
    (damaged WAL header, unreadable snapshot, mismatched database seed)."""

    code = "PIP-STORAGE"


class SessionError(PIPError):
    """A session was used after it (or its database) was closed."""

    code = "PIP-SESSION"


class TransactionError(SessionError):
    """Transaction misuse: nested ``begin()``, ``commit()``/``rollback()``
    without an open transaction, or a write-write conflict detected at
    commit (another session committed to the same table first)."""

    code = "PIP-TXN"


class WireFormatError(PIPError):
    """A wire payload could not be encoded or decoded (unknown envelope
    version, malformed message, value the codec refuses to carry)."""

    code = "PIP-WIRE"


class AuthError(PIPError):
    """The server rejected a request's credentials (missing, unknown, or
    not authorized for the requested database)."""

    code = "PIP-AUTH"


class AdmissionError(PIPError):
    """The server refused a request under load: the bounded request queue
    is full, or the tenant exceeded its concurrency cap for too long.
    Clients should back off and retry."""

    code = "PIP-BUSY"


class ProtocolError(PIPError):
    """A peer violated the wire protocol (bad opcode, unknown operation,
    malformed frame or JSON)."""

    code = "PIP-PROTOCOL"


class ShutdownError(SessionError):
    """The server is draining: it no longer accepts new statements; the
    connection's open transaction (if any) has been rolled back."""

    code = "PIP-SHUTDOWN"


#: Every PIPError subclass the wire protocol can name, keyed by code.
#: The client uses this to re-raise the *same* exception class a local
#: database would have raised.
CODE_TO_ERROR = {
    cls.code: cls
    for cls in (
        PIPError,
        SchemaError,
        ParseError,
        PlanError,
        DistributionError,
        SamplingError,
        InconsistentConditionError,
        StorageError,
        SessionError,
        TransactionError,
        WireFormatError,
        AuthError,
        AdmissionError,
        ProtocolError,
        ShutdownError,
    )
}


def error_code(exc):
    """The stable wire code for an exception (``"PIP-INTERNAL"`` for
    anything that is not a :class:`PIPError`)."""
    if isinstance(exc, PIPError):
        return exc.code
    return "PIP-INTERNAL"


def error_from_code(code, message):
    """Rebuild the exception a wire error stands for.

    Unknown codes (a newer server) degrade to :class:`PIPError` — the
    message still reaches the caller, and ``except PIPError:`` still
    catches it.
    """
    cls = CODE_TO_ERROR.get(code, PIPError)
    if cls is ParseError:
        return ParseError(message)
    exc = cls(message)
    return exc
