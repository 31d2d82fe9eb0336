"""JSON trees for terms, steps, cells, tower cells, words, and witnesses.

Every registered value encodes to {"$t": <its class name>, "f": [children]},
and a tag decodes only to the class of that name; enums encode by value,
tuples as lists (no registered type carries a raw list field, so decoding
restores tuples).  Round-tripping is the identity.
"""

from __future__ import annotations

import json
from enum import Enum

from . import cells, completion, frontseed, terms, witness

_REGISTRY: dict[str, type] = {}
_ENUMS: dict[str, type] = {}


def _register(*classes):
    for c in classes:
        _REGISTRY[c.__name__] = c


def _register_enum(*classes):
    for c in classes:
        _ENUMS[c.__name__] = c


_register(
    terms.Var, terms.App, terms.Lam, terms.RedStep,
    cells.RedSeq, cells.Hole, cells.CAppFun, cells.CAppArg, cells.CLam,
    cells.Refl, cells.Symm, cells.Trans, cells.WhiskerL, cells.WhiskerR,
    cells.HComp, cells.Assoc, cells.UnitL, cells.UnitR, cells.StepCong,
    cells.Interchange, cells.Pentagon, cells.Triangle,
    completion.RTowerCell, completion.SigmaCell,
    frontseed.AssL, frontseed.WlL, frontseed.WrL, frontseed.ReflL,
    frontseed.SeedL, frontseed.Word, frontseed.FS1Seed, frontseed.FS2Seed,
    frontseed.HeadNorm, frontseed.VComp, frontseed.PasteR, frontseed.FillerE,
    witness.TBeta, witness.TEta, witness.ReflM, witness.ReflN, witness.Comp,
)
_register_enum(terms.StepKind, terms.Dir, witness.SpanEndpoint, witness.Tag)

# The shape of a decoded term, step, sequence, context, letter or word,
# read off its own fields, since each child was checked as it was decoded;
# replay is validate_seq's.  Refl/Symm/Trans stay unchecked: what they may
# hold depends on the dimension their caller expects.
_TERM = (terms.Var, terms.App, terms.Lam)
_CONTEXT = (cells.Hole, cells.CAppFun, cells.CAppArg, cells.CLam)
_LETTER = (frontseed.AssL, frontseed.WlL, frontseed.WrL, frontseed.ReflL,
           frontseed.SeedL)


def _seqs(*xs) -> bool:
    return all(isinstance(x, cells.RedSeq) for x in xs)


def _flags(v) -> bool:
    return isinstance(v.inv, bool) and isinstance(v.eq, bool)


def _whiskering(v) -> bool:
    return _seqs(v.edge) and isinstance(v.inner, frontseed.Word) and _flags(v)


_WELL_FORMED = {
    terms.Var: lambda v: type(v.index) is int and v.index >= 0,
    terms.App: lambda v: isinstance(v.fun, _TERM) and isinstance(v.arg, _TERM),
    terms.Lam: lambda v: isinstance(v.body, _TERM),
    terms.RedStep: terms.is_step,
    cells.RedSeq: lambda v: (isinstance(v.terms, tuple) and isinstance(v.steps, tuple)
                             and all(isinstance(t, _TERM) for t in v.terms)
                             and all(isinstance(s, terms.RedStep) for s in v.steps)),
    cells.CAppFun: lambda v: isinstance(v.ctx, _CONTEXT) and isinstance(v.arg, _TERM),
    cells.CAppArg: lambda v: isinstance(v.fun, _TERM) and isinstance(v.ctx, _CONTEXT),
    cells.CLam: lambda v: isinstance(v.ctx, _CONTEXT),
    frontseed.AssL: lambda v: _seqs(v.a, v.b, v.c) and _flags(v),
    frontseed.WlL: _whiskering,
    frontseed.WrL: _whiskering,
    frontseed.ReflL: lambda v: _seqs(v.edge),
    frontseed.SeedL: lambda v: (isinstance(v.name, str) and _seqs(v.src, v.tgt)
                                and _flags(v)),
    frontseed.Word: lambda v: (_seqs(v.src, v.tgt) and isinstance(v.letters, tuple)
                               and all(isinstance(l, _LETTER) for l in v.letters)),
}


def encode(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Enum):
        return {"$e": [type(obj).__name__, obj.value]}
    if isinstance(obj, tuple):
        return [encode(x) for x in obj]
    cls = type(obj)
    name = cls.__name__
    if _REGISTRY.get(name) is cls:
        fields = [encode(getattr(obj, f)) for f in cls.__match_args__]
        return {"$t": name, "f": fields}
    raise TypeError(f"cannot encode {name}")


def decode(data):
    """The value `data` encodes; ValueError when it is not an encoding (an
    unknown tag or enum, the wrong number of fields for its tag, fields its
    constructor cannot take, or an ill-shaped term, step, sequence, context,
    letter or word)."""
    if data is None or isinstance(data, (bool, int, str)):
        return data
    if isinstance(data, list):
        return tuple(decode(x) for x in data)
    if not isinstance(data, dict):
        raise ValueError(f"cannot decode a JSON {type(data).__name__}")
    if "$e" in data:
        pair = data["$e"]
        if not (isinstance(pair, list) and len(pair) == 2 and pair[0] in _ENUMS):
            raise ValueError(f"unknown enum {pair!r}")
        return _ENUMS[pair[0]](pair[1])
    tag = data.get("$t")
    cls = _REGISTRY.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ValueError(f"unknown tag {tag!r}")
    fields = data.get("f")
    arity = len(cls.__match_args__)
    if not isinstance(fields, list) or len(fields) != arity:
        raise ValueError(f"{cls.__name__} expects a list of {arity} fields")
    args = [decode(x) for x in fields]
    try:
        value = cls(*args)
        if cls is completion.RTowerCell:
            return _validated_tower_cell(value)
    except (TypeError, AttributeError) as e:
        # A constructor's own checks read its fields (RedSeq takes their
        # lengths, witness.Comp their endpoints, a tower cell its triple) and
        # fail on values of another type.
        raise ValueError(f"{cls.__name__} cannot hold these fields: {e}") from e
    if cls in _WELL_FORMED and not _WELL_FORMED[cls](value):
        raise ValueError(f"{cls.__name__} cannot hold these fields: ill-shaped")
    return value


def _validated_tower_cell(cell):
    """A decoded tower cell rebuilt by its checking constructor, so that a
    cell no constructor would build fails here and not at a later read; its
    lower cells were validated as they were decoded."""
    if cell.dim <= 3:
        return completion.explicit_cell(cell.dim, cell.payload)
    x, y, h = cell.payload
    if x.dim + 1 != cell.dim:
        raise cells.IllFormed(
            f"a dimension-{cell.dim} cell holds a triple of dimension-{x.dim} cells")
    return completion.triple_cell(x, y, h)


def dumps(obj, **kwargs) -> str:
    return json.dumps(encode(obj), sort_keys=True, **kwargs)


def loads(text: str):
    return decode(json.loads(text))
