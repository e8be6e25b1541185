"""Structure: the mutation-record vocabulary has one owner.

``src/repro/storage/records.py`` is the only module that spells a record
op (``docs/durability.md`` has the table).  Autocommit statements,
transaction staging and WAL replay used to be three transcriptions of
every op, kept in step by hand; this test fails when a fourth arrives —
one of the distinctive op names as a string literal in any other module
under ``src/repro`` — or when one of the old per-op entry points returns.
"""

import ast
import os

from repro.session.transaction import Transaction
from repro.storage.manager import DurabilityManager

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")
OWNER = os.path.join(SRC, "storage", "records.py")

#: Op names that mean nothing but a mutation record.  (``insert``,
#: ``delete``, ``update``, ``register`` and ``create_variable`` are also
#: SQL words and are left out.)
DISTINCTIVE = {
    "create_table",
    "drop_table",
    "insert_many",
    "register_alias",
    "register_distribution",
    "txn_begin",
    "txn_commit",
    "txn_abort",
}


def _op_literals(path):
    """``(line, op)`` for every distinctive op spelled as a string literal
    in ``path``; the names a module exports in ``__all__`` do not count."""
    tree = ast.parse(open(path, encoding="utf-8").read(), filename=path)
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported.update(id(child) for child in ast.walk(node.value))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and node.value in DISTINCTIVE
        and id(node) not in exported
    ]


def test_op_names_are_spelled_in_one_module():
    strays = []
    for directory, _dirs, files in os.walk(SRC):
        for name in files:
            path = os.path.join(directory, name)
            if name.endswith(".py") and path != OWNER:
                strays += [
                    "%s:%d %r" % (os.path.relpath(path, REPO_ROOT), line, op)
                    for line, op in _op_literals(path)
                ]
    assert not strays, "record ops spelled outside storage/records.py: %s" % strays
    # ...and the owner does spell them: a rename must not void this test.
    assert {op for _line, op in _op_literals(OWNER)} == DISTINCTIVE


def test_no_per_op_entry_point_came_back():
    assert not [name for name in vars(Transaction) if name.startswith("stage_")]
    assert not hasattr(DurabilityManager, "journal_record")
