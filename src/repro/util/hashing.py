"""Deterministic seed derivation.

The paper stores only a seed per random variable: "multiple calls to
Generate with the same seed value produce the same sample, so only the seed
value need be stored" (Section V-B).  We mirror that by deriving every
pseudo-random stream from a stable 64-bit hash of ``(variable id, subscript,
world index, base seed)``.  Python's builtin ``hash`` is salted per process,
so the hash is a BLAKE2b digest of the parts' :func:`exact_key` bytes
instead: typed, independent of process state, and computed in C.
"""

import hashlib as _hashlib
import marshal as _marshal
import struct as _struct

import numpy as _np

#: Leaves :func:`exact_key` writes by value and type as they are.
_LEAVES = frozenset((str, int, float, bool, type(None), bytes))
_WORD = _struct.Struct("<Q").unpack


def _plain(part):
    """``part`` with every leaf a built-in scalar.

    marshal writes anything with a buffer — a NumPy scalar — as its raw
    bytes, so ``np.float64(1.5)`` would hash apart from ``1.5`` and an
    ``np.int64`` like the ``bytes`` of the same bits.  A container whose
    items are all plain leaves is returned as it is (the common case,
    checked at C speed); a leaf of a subclass (``np.float64`` is a
    ``float``) becomes its base type.
    """
    kind = type(part)
    if kind in _LEAVES:
        return part
    if kind is tuple or kind is list:
        if _LEAVES.issuperset(map(type, part)):
            return part
        return kind([p if type(p) in _LEAVES else _plain(p) for p in part])
    for base in (bool, int, float, str):
        if isinstance(part, base):
            return base(part)
    if isinstance(part, _np.generic):
        return _plain(part.item())
    raise TypeError("unhashable seed part: %r" % (part,))


def stable_hash64(*parts):
    """Combine ints/strings/floats/nested tuples into a stable 64-bit hash.

    The result depends only on the values supplied and their types, never
    on process state, so sampling is reproducible across runs and
    machines.  ``1``, ``1.0`` and ``True`` hash apart, as do ``0.0`` and
    ``-0.0``; a NumPy scalar hashes as the Python scalar it holds.  Tuples
    and lists hash structurally (the sample bank keys cache entries by the
    nested ``key()`` tuples of atoms and conditions).
    """
    if not _LEAVES.issuperset(map(type, parts)):
        parts = _plain(parts)
    return _WORD(_hashlib.blake2b(_marshal.dumps(parts, 2), digest_size=8).digest())[0]


def derive_seed(base_seed, *parts):
    """Derive a child seed from a base seed and identifying parts.

    Used to give each (variable, subscript, world) triple its own
    independent-looking but fully deterministic stream.
    """
    return stable_hash64(base_seed, *parts)


def exact_key(structure):
    """``structure`` as bytes that only structures hashing alike share.

    A dict keyed on the nested tuples themselves would conflate what
    Python equality conflates — ``1``, ``1.0`` and ``True``; ``0.0`` and
    ``-0.0`` — although :func:`stable_hash64` hashes each differently, so
    a memo of anything derived from such a hash has to be keyed more
    finely than ``==``.  ``marshal`` format 2 writes every value with its
    type and floats by their bytes, and has neither back-references nor
    interning flags, so the bytes depend on the values alone, never on
    object identity.

    Meant for what :func:`stable_hash64` accepts: str/bool/int/float/None
    and tuples or lists of them.  Returns ``None`` for an object marshal
    refuses, so that the caller computes instead of memoising (and the
    hash raises its own ``TypeError``).
    """
    try:
        return _marshal.dumps(structure, 2)
    except ValueError:
        return None
