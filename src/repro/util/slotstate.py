"""Pickle support for immutable ``__slots__`` classes.

The symbolic layer (expressions, atoms, conditions, variables) blocks
``__setattr__`` to enforce immutability.  That also breaks pickle's
default slot restoration, which goes through ``setattr``.  The parallel
sampling executor ships groups, atoms and conditions to worker processes
by pickle, so those classes install the two hooks below: state capture
walks the MRO's ``__slots__``, restoration writes through
``object.__setattr__`` (bypassing the immutability guard exactly once,
during unpickling — the object is not yet visible to anyone else).

A slot named ``_…`` holds a *derived* form (an atom's linear form), not
state: a node's pickle does not depend on what it was asked first.
"""


def slot_state(obj):
    """All non-derived slot values of ``obj`` (across the MRO) as a dict."""
    state = {}
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name[0] != "_" and hasattr(obj, name):
                state[name] = getattr(obj, name)
    return state


def restore_slot_state(obj, state):
    """Write a :func:`slot_state` dict back, bypassing immutability."""
    for name, value in state.items():
        object.__setattr__(obj, name, value)
