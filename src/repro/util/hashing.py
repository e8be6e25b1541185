"""Deterministic seed derivation.

The paper stores only a seed per random variable: "multiple calls to
Generate with the same seed value produce the same sample, so only the seed
value need be stored" (Section V-B).  We mirror that by deriving every
pseudo-random stream from a stable 64-bit hash of ``(variable id, subscript,
world index, base seed)``.  Python's builtin ``hash`` is salted per process,
so we implement a small splitmix64-style mixer over a stable encoding
instead.
"""

import marshal as _marshal
import struct as _struct

_MASK64 = (1 << 64) - 1


def _mix64(x):
    """splitmix64 finalizer; good avalanche behaviour, trivially portable."""
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _feed(acc, part):
    if isinstance(part, str):
        for ch in part.encode("utf-8"):
            acc = _mix64(acc ^ ch)
    elif isinstance(part, bool):
        acc = _mix64(acc ^ int(part))
    elif isinstance(part, int):
        if 0 <= part <= _MASK64:
            # One word, fed as it is: every stored stream, bank key and
            # spill file depends on this encoding.
            acc = _mix64(acc ^ part)
        else:
            # Negative or wider than 64 bits.  Folded into one word, n and
            # ~n would collide, and so would 1 and 1 << 64: feed a tag
            # carrying sign and limb count, then the magnitude's limbs.
            magnitude = abs(part)
            limbs = (magnitude.bit_length() + 63) // 64
            acc = _mix64(acc ^ 0x696E74 ^ (limbs << 1 | (part < 0)))
            for shift in range(0, 64 * limbs, 64):
                acc = _mix64(acc ^ ((magnitude >> shift) & _MASK64))
    elif isinstance(part, float):
        # struct keeps the encoding independent of PYTHONHASHSEED, so keys
        # derived from distribution parameters survive process restarts
        # (the sample bank's on-disk spill relies on this).
        acc = _mix64(acc ^ 0x666C ^ int.from_bytes(_struct.pack("<d", part), "little"))
    elif part is None:
        acc = _mix64(acc ^ 0xDEADBEEF)
    elif isinstance(part, (tuple, list)):
        # Length-prefixed, and every element is terminated by a separator
        # mix: without it adjacent strings concatenate ambiguously, so
        # ("x", "ab", "c") and ("x", "a", "bc") would collide — fatal for
        # the sample bank's content-addressed keys.
        acc = _mix64(acc ^ 0x7475706C ^ len(part))
        for item in part:
            acc = _feed(acc, item)
            acc = _mix64(acc ^ 0x1F)
    else:
        raise TypeError("unhashable seed part: %r" % (part,))
    return acc


def stable_hash64(*parts):
    """Combine ints/strings/floats/nested tuples into a stable 64-bit hash.

    The result depends only on the values supplied, never on process state,
    so sampling is reproducible across runs and machines.  Tuples and lists
    hash structurally (the sample bank keys cache entries by the nested
    ``key()`` tuples of atoms and conditions).
    """
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        acc = _feed(acc, part)
    return acc


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
    ``-0.0`` — although :func:`stable_hash64` feeds each differently, so a
    memo of anything derived from such a hash has to be keyed more finely
    than ``==``.  ``marshal`` format 2 writes every value with its type
    and floats by their bytes, and has neither back-references nor
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
