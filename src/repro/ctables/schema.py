"""Table schemas.

A schema is an ordered list of named columns.  Column *types* are advisory:
the engine is dynamically typed like the paper's Postgres embedding, but
declared types drive validation on insert and pretty-printing.  The special
type ``EXPR`` marks columns that may hold symbolic equations (the paper's
``VarExp`` datatype, Figure 4).
"""

from repro.symbolic.expression import Expression, is_numeric
from repro.util.errors import SchemaError

#: Recognised column types.
INT = "int"
FLOAT = "float"
STR = "str"
BOOL = "bool"
EXPR = "expr"
ANY = "any"

_TYPES = (INT, FLOAT, STR, BOOL, EXPR, ANY)

#: The exact cell types JSON and ``as_expression`` carry untouched: a
#: column holding only these needs no per-cell look (projection, the wire).
PLAIN = frozenset((int, float, str, bool, type(None)))


class Column:
    """One named, typed column."""

    __slots__ = ("name", "ctype")

    def __init__(self, name, ctype=ANY):
        if not name or not isinstance(name, str):
            raise SchemaError("column name must be a non-empty string")
        if ctype not in _TYPES:
            raise SchemaError(
                "unknown column type %r (one of %s)" % (ctype, ", ".join(_TYPES))
            )
        self.name = name
        self.ctype = ctype

    def accepts(self, value):
        """Whether ``value`` is legal for this column."""
        if value is None:
            return True
        if isinstance(value, Expression):
            return self.ctype in (EXPR, ANY, FLOAT, INT)
        if self.ctype == ANY:
            return True
        if self.ctype == INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self.ctype == FLOAT:
            return is_numeric(value)
        if self.ctype == STR:
            return isinstance(value, str)
        if self.ctype == BOOL:
            return isinstance(value, bool)
        if self.ctype == EXPR:
            return is_numeric(value)
        return False

    def accepts_all(self, cells):
        """Whether :meth:`accepts` takes every cell.  Of a :data:`PLAIN`
        type it takes all values or none, so such cells are asked once per
        type; anything else (an expression, a NumPy scalar) cell by cell."""
        if self.ctype == ANY:
            return True
        kinds = set(map(type, cells))
        if kinds <= PLAIN:
            return all(self.accepts(kind()) for kind in kinds)
        return all(map(self.accepts, cells))

    def __eq__(self, other):
        if not isinstance(other, Column):
            return NotImplemented
        return self.name == other.name and self.ctype == other.ctype

    def __hash__(self):
        return hash((self.name, self.ctype))

    def __repr__(self):
        return "Column(%r, %r)" % (self.name, self.ctype)


class Schema:
    """An ordered collection of columns with name-based lookup.

    Column names must be unique.  Qualified lookups (``alias.col``) fall
    back to suffix matching so expressions written against aliased scans
    still bind after the planner strips qualifiers.
    """

    __slots__ = ("columns", "_index")

    def __init__(self, columns):
        cols = []
        for item in columns:
            if isinstance(item, Column):
                cols.append(item)
            elif isinstance(item, str):
                cols.append(Column(item))
            elif isinstance(item, tuple) and len(item) == 2:
                cols.append(Column(item[0], item[1]))
            else:
                raise SchemaError("bad column spec %r" % (item,))
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError("duplicate column names: %s" % ", ".join(duplicates))
        self.columns = tuple(cols)
        self._index = {c.name: i for i, c in enumerate(cols)}

    @property
    def names(self):
        # The index is keyed in column order and names are unique, so it
        # already is the name list (row_mapping asks once per row).
        return tuple(self._index)

    def __len__(self):
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __contains__(self, name):
        return name in self._index

    def index_of(self, name):
        """Position of column ``name``; supports qualified-suffix fallback."""
        if name in self._index:
            return self._index[name]
        if "." in name:
            suffix = name.split(".")[-1]
            if suffix in self._index:
                return self._index[suffix]
        matches = [i for n, i in self._index.items() if n.split(".")[-1] == name]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise SchemaError("ambiguous column reference %r" % (name,))
        raise SchemaError(
            "no column %r in schema (%s)" % (name, ", ".join(self.names))
        )

    def column(self, name):
        return self.columns[self.index_of(name)]

    def rename(self, mapping):
        """New schema with columns renamed per ``mapping`` (old -> new)."""
        return Schema(
            [Column(mapping.get(c.name, c.name), c.ctype) for c in self.columns]
        )

    def prefixed(self, alias):
        """New schema with every column qualified as ``alias.name``."""
        return Schema(
            [Column("%s.%s" % (alias, c.name.split(".")[-1]), c.ctype) for c in self.columns]
        )

    def concat(self, other):
        """Schema of a product; raises on name collision."""
        return Schema(list(self.columns) + list(other.columns))

    def project(self, names):
        """Schema restricted to ``names`` (in the given order)."""
        return Schema([self.columns[self.index_of(n)] for n in names])

    def __eq__(self, other):
        if not isinstance(other, Schema):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def __repr__(self):
        return "Schema(%s)" % (", ".join("%s:%s" % (c.name, c.ctype) for c in self.columns))
