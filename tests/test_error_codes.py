"""Stable machine-readable error codes (ISSUE 7, satellite 2).

The wire protocol transports exceptions by ``code``, never by message
matching, so every :class:`PIPError` subclass must carry a distinct,
stable ``PIP-*`` code and the client must rebuild the exact class from
the code alone.
"""

import pytest

from repro.util import errors
from repro.util.errors import (
    CODE_TO_ERROR,
    AdmissionError,
    AuthError,
    ParseError,
    PIPError,
    ProtocolError,
    SessionError,
    ShutdownError,
    TransactionError,
    error_code,
    error_from_code,
)

from tests.differential.generator import row_path


def _pip_error_classes():
    found = []
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, PIPError):
            found.append(obj)
    return found


class TestCodes:
    def test_every_error_class_has_a_stable_code(self):
        for cls in _pip_error_classes():
            assert isinstance(cls.code, str) and cls.code.startswith("PIP-"), cls

    def test_codes_are_distinct(self):
        codes = [cls.code for cls in _pip_error_classes()]
        assert len(codes) == len(set(codes)), codes

    def test_registry_covers_every_class(self):
        for cls in _pip_error_classes():
            assert CODE_TO_ERROR[cls.code] is cls

    def test_expected_wire_codes(self):
        # Spot-check the codes the protocol documentation names: these are
        # wire contract, so renames must fail a test, not slip through.
        assert TransactionError.code == "PIP-TXN"
        assert AuthError.code == "PIP-AUTH"
        assert AdmissionError.code == "PIP-BUSY"
        assert ProtocolError.code == "PIP-PROTOCOL"
        assert ShutdownError.code == "PIP-SHUTDOWN"
        assert errors.SchemaError.code == "PIP-SCHEMA"
        assert errors.ParseError.code == "PIP-PARSE"
        assert errors.WireFormatError.code == "PIP-WIRE"

    def test_subclass_relationships_survive_the_wire(self):
        # ShutdownError and TransactionError are SessionErrors locally, so
        # a remote ``except SessionError:`` must catch them too.
        assert issubclass(CODE_TO_ERROR["PIP-TXN"], SessionError)
        assert issubclass(CODE_TO_ERROR["PIP-SHUTDOWN"], SessionError)


class TestMapping:
    def test_error_code_for_pip_errors(self):
        assert error_code(TransactionError("x")) == "PIP-TXN"
        assert error_code(PIPError("x")) == "PIP-ERROR"

    def test_error_code_for_foreign_exceptions(self):
        assert error_code(ValueError("x")) == "PIP-INTERNAL"
        assert error_code(RuntimeError("x")) == "PIP-INTERNAL"

    def test_round_trip_rebuilds_the_same_class(self):
        for cls in _pip_error_classes():
            original = (ParseError("boom") if cls is ParseError
                        else cls("boom"))
            rebuilt = error_from_code(error_code(original), str(original))
            assert type(rebuilt) is cls
            assert str(rebuilt) == str(original)

    def test_unknown_code_degrades_to_base_class(self):
        exc = error_from_code("PIP-FROM-THE-FUTURE", "novel failure")
        assert type(exc) is PIPError
        assert "novel failure" in str(exc)

    def test_rebuilt_errors_are_raisable(self):
        with pytest.raises(TransactionError):
            raise error_from_code("PIP-TXN", "write-write conflict")
        with pytest.raises(SessionError):
            # subclass relationship: PIP-SHUTDOWN is catchable as SessionError
            raise error_from_code("PIP-SHUTDOWN", "draining")


class TestAggregateTargetErrors:
    """A target that has no float value is the statement's mistake: both
    executors raise ``PlanError`` naming operator, target and value, and a
    client sees ``PIP-PLAN`` — not a bare ``ValueError`` / ``TypeError`` /
    ``ZeroDivisionError`` / ``OverflowError`` behind ``PIP-INTERNAL``."""

    CASES = [
        ("SELECT expected_sum(s) FROM t", "expected_sum(s)", "'x'", "ValueError"),
        ("SELECT expected_min(s) FROM t", "expected_min(s)", "(0 - 'x')", "TypeError"),
        (
            "SELECT expected_sum(v / 0) FROM t WHERE k = 1",
            "expected_sum((v / 0))",
            "(1.5 / 0)",
            "ZeroDivisionError",
        ),
        ("SELECT expected_sum(v) FROM t", "expected_sum(v)", "1000000", "OverflowError"),
    ]

    @staticmethod
    def _db():
        from repro import PIPDatabase

        db = PIPDatabase(seed=1)
        db.create_table("t", [("k", "int"), ("s", "str"), ("v", "any")])
        db.insert_many("t", [(1, "x", 1.5), (2, "y", 10**400)])
        return db

    @pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "row"])
    @pytest.mark.parametrize("text,call,value,cause", CASES)
    def test_sql_raises_plan_error(self, columnar, text, call, value, cause):
        with row_path(not columnar), pytest.raises(errors.PlanError) as caught:
            self._db().sql(text)
        message = str(caught.value)
        assert message.startswith(call + ": " + value), message
        assert cause in message
        assert type(caught.value.__cause__).__name__ == cause

    def test_values_that_convert_still_do(self):
        db = self._db()
        db.sql("CREATE TABLE u (s str, b bool)")
        db.insert_many("u", [("1.5", True), ("2", False)])
        assert db.sql(
            "SELECT expected_sum(s) AS s, expected_sum(b) AS b, expected_max(s) AS m FROM u"
        ).rows() == [(3.5, 1.0, 2.0)]

    def test_client_sees_the_code(self):
        from repro.client import connect
        from repro.server.testing import run_server

        with run_server(self._db()) as server:
            with connect(server.url) as session:
                with pytest.raises(errors.PlanError) as caught:
                    session.execute("SELECT expected_sum(s) FROM t")
        assert error_code(caught.value) == "PIP-PLAN"
        assert "expected_sum(s): 'x'" in str(caught.value)
