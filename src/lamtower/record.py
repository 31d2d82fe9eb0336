"""Immutable value records: the `record` class decorator.

A record's fields are its annotations, in order, and a class-level value of
a field is its default.  The decorator gives the class __slots__, an
__init__ that sets each slot through its descriptor and then calls
__post_init__ when the class defines one, __eq__ and __hash__ over the field
tuple (a value of another class compares NotImplemented), the repr
`Name(field=value, ...)` and __match_args__; setting or deleting an
attribute raises AttributeError.  These are the methods a frozen, slotted
standard-library data class gets, built by one exec per class, without the
import and per-class cost of that machinery (and of the inspect module).
The class body defines none of these methods itself.  Slots it declares
itself are not fields.  The class's module sets each at most once per
instance (object.__setattr__): in __post_init__, or on an instance that
module has just built, as word_reduce marks a frontseed.Word reduced; a
slot never set reads as missing.  Each is read-only afterwards and left out
of ==, hash, repr and __match_args__.
"""


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    own = tuple(vars(cls).get("__slots__", ()))  # a tuple of names
    skip = ("__dict__", "__weakref__", "__slots__", *own)  # the new class remakes slots
    ns = {k: v for k, v in vars(cls).items() if k not in skip}
    names = tuple(ns.get("__annotations__", ()))
    g = {f"_d_{n}": ns.pop(n) for n in names if n in ns}  # the defaults
    params = "".join(f", {n}=_d_{n}" if f"_d_{n}" in g else f", {n}" for n in names)
    body = [f"_s_{n}(self, {n})" for n in names]
    if "__post_init__" in ns:
        body.append("self.__post_init__()")
    mine = "".join(f"self.{n}," for n in names)
    theirs = "".join(f"other.{n}," for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = (
        f"def __init__(self{params}):\n " + "\n ".join(body or ["pass"]) + "\n"
        "def __eq__(self, other):\n"
        f" if other.__class__ is self.__class__: return ({mine}) == ({theirs})\n"
        " return NotImplemented\n"
        f"def __hash__(self): return hash(({mine}))\n"
        f"def __repr__(self): return f'{{self.__class__.__qualname__}}({shown})'\n")
    g["__name__"] = cls.__module__
    exec(source, g)
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        ns[name] = g[name]
        g[name].__qualname__ = f"{cls.__qualname__}.{name}"
    ns.update(__slots__=names + own, __match_args__=names, __qualname__=cls.__qualname__,
              __setattr__=_setattr, __delattr__=_delattr)
    new = type(cls)(cls.__name__, cls.__bases__, ns)
    # the slot descriptors exist only now; __init__ reads them as globals
    g.update({f"_s_{n}": vars(new)[n].__set__ for n in names})
    return new
