"""Wire-format serialization for query results.

The network service layer (``repro.server`` / ``repro.client``) moves
:class:`~repro.engine.results.ResultSet` objects between processes as a
**versioned JSON envelope**: result rows, schema, per-cell estimate
metadata (estimator method, sample counts, confidence intervals) and the
statement's :class:`~repro.engine.results.QueryStats`.  The codec lives
here — not in the server — because the envelope is useful standalone
(dump a result to a file, diff two runs, feed a dashboard).

Cells travel column-major — ``"cells"`` is one JSON array per column (per
chunk, when streamed) — and a column of exact ``int``/``float``/``str``/
``bool``/``None`` cells goes to ``json`` as the list it is: one test on
the set of its types, no call per cell.

Fidelity contract: a payload round-trip is **bit-identical** for every
value the engine produces.

* JSON-native scalars (``None``/bool/int/str) pass through untouched.
* Floats survive exactly: Python's ``json`` emits ``repr(float)``, the
  shortest string that round-trips to the same IEEE-754 double (NaN and
  infinities use the Python extension literals, fine between Python
  peers).
* NumPy scalars are unwrapped to the equivalent Python scalar — the same
  double, just no longer wrapped.
* Symbolic cells (expressions over random variables, non-TRUE row
  conditions) are carried as tagged pickle blobs (base64).  Pickle is
  only ever decoded on the *client* side of an authenticated connection
  — the server never unpickles client input (see ``docs/server.md``).

The envelope is versioned (:data:`WIRE_VERSION`); decoding a payload
from a different major version raises
:class:`~repro.util.errors.WireFormatError` rather than guessing.
"""

import base64
import pickle

from repro.ctables.schema import PLAIN
from repro.util.errors import WireFormatError

#: Envelope version.  Bump on any change a current decoder cannot read
#: (2: cells column-major under ``"cells"``; 1 carried ``"rows"``).
WIRE_VERSION = 2

#: Tag key marking a non-JSON-native encoded value.
_TAG = "$pip"


def encode_value(value):
    """One cell value → a JSON-serializable form (see module contract)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # NumPy scalars: unwrap to the equivalent Python scalar (exact for
    # float64/int64, which is all the engine produces).
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        unwrapped = item()
        if isinstance(unwrapped, (bool, int, float, str)):
            return unwrapped
    if isinstance(value, (tuple, list)):
        return {_TAG: "tuple" if isinstance(value, tuple) else "list",
                "items": [encode_value(v) for v in value]}
    # Symbolic expressions, conditions, random variables: pickle by
    # reference to their classes (the PR 3 pickle hooks make this stable).
    try:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise WireFormatError(
            "cannot serialize value of type %s for the wire: %s"
            % (type(value).__name__, exc)
        ) from exc
    return {_TAG: "pickle", "b64": base64.b64encode(blob).decode("ascii")}


def decode_value(value):
    """Inverse of :func:`encode_value`.

    Only call on payloads from a trusted peer: tagged pickle blobs
    execute the pickle machinery.
    """
    if isinstance(value, dict) and _TAG in value:
        kind = value[_TAG]
        if kind == "pickle":
            return pickle.loads(base64.b64decode(value["b64"]))
        if kind in ("tuple", "list"):
            items = [decode_value(v) for v in value["items"]]
            return tuple(items) if kind == "tuple" else items
        raise WireFormatError("unknown value tag %r" % (kind,))
    return value


def encode_column(cells):
    """One column's cells (a list) → a JSON list: the very list when all
    are of the plain types, else each through :func:`encode_value`."""
    if PLAIN.issuperset(map(type, cells)):
        return cells
    return list(map(encode_value, cells))


def decode_columns(cells):
    """A parsed ``"cells"`` entry → one list of decoded cells per column."""
    if not isinstance(cells, list) or not all(isinstance(c, list) for c in cells):
        raise WireFormatError("cells must be one JSON array per column")
    return [
        c if PLAIN.issuperset(map(type, c)) else list(map(decode_value, c))
        for c in cells
    ]


def check_version(payload):
    """Validate an envelope's shape and version; returns the payload."""
    if not isinstance(payload, dict):
        raise WireFormatError(
            "payload must be a dict, got %s" % (type(payload).__name__,)
        )
    version = payload.get("version")
    if version != WIRE_VERSION:
        raise WireFormatError(
            "unsupported wire version %r (this build speaks %d)"
            % (version, WIRE_VERSION)
        )
    return payload


def encode_estimate(estimate):
    """A :class:`~repro.engine.results.CellEstimate` → plain dict."""
    return {
        "column": estimate.column,
        "row": estimate.row_index,
        "method": estimate.method,
        "n_samples": encode_value(estimate.n_samples),
        "exact": bool(estimate.exact),
        "interval": (
            None
            if estimate.interval is None
            else [encode_value(estimate.interval[0]),
                  encode_value(estimate.interval[1])]
        ),
    }


def decode_estimate(entry):
    from repro.engine.results import CellEstimate

    interval = entry.get("interval")
    return CellEstimate(
        entry["column"],
        entry["row"],
        entry["method"],
        decode_value(entry["n_samples"]),
        entry["exact"],
        None if interval is None else (decode_value(interval[0]),
                                       decode_value(interval[1])),
    )


def encode_stats(stats):
    """A :class:`~repro.engine.results.QueryStats` → plain dict."""
    if stats is None:
        return None
    return {name: encode_value(getattr(stats, name)) for name in stats.__slots__}


def decode_stats(entry):
    """Inverse of :func:`encode_stats`.  Keys this build's ``QueryStats``
    does not have are ignored, so a payload recorded by a build with
    other optional fields still decodes."""
    from repro.engine.results import QueryStats

    if entry is None:
        return None
    if not isinstance(entry, dict) or "elapsed" not in entry or "rows" not in entry:
        raise WireFormatError(
            "stats must be an object with 'elapsed' and 'rows', got %r" % (entry,)
        )
    return QueryStats(**{
        name: decode_value(entry[name])
        for name in QueryStats.__slots__ if name in entry
    })
