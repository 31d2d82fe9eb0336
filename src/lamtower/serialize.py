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

_REGISTRY: dict[str, type] = {c.__name__: c for c in (
    terms.Var, terms.App, terms.Lam, terms.RedStep,
    cells.RedSeq, cells.Refl, cells.Symm, cells.Trans, cells.WhiskerL,
    cells.WhiskerR, cells.HComp, cells.Assoc, cells.UnitL, cells.UnitR,
    cells.StepCong, cells.Interchange, cells.Pentagon, cells.Triangle,
    completion.RTowerCell, completion.SigmaCell,
    frontseed.AssL, frontseed.WlL, frontseed.WrL, frontseed.ReflL,
    frontseed.SeedL, frontseed.Word, frontseed.FS1Seed, frontseed.FS2Seed,
    frontseed.HeadNorm, frontseed.VComp, frontseed.PasteR, frontseed.FillerE,
    witness.TBeta, witness.TEta, witness.ReflM, witness.ReflN, witness.Comp,
)}
_ENUMS: dict[str, type] = {c.__name__: c for c in (
    terms.StepKind, terms.Dir, witness.SpanEndpoint)}

# The shape of a decoded value, read off its own fields, since each child
# was checked as it was decoded; replay is validate_seq's, and a word's
# letters must chain end to end.  The payloads of Refl/Symm/Trans/HComp and
# the cells of the whiskerings stay unchecked: what they may hold depends on
# the dimension their caller expects.
_TERM = (terms.Var, terms.App, terms.Lam)
_LETTER = (frontseed.AssL, frontseed.WlL, frontseed.WrL, frontseed.ReflL,
           frontseed.SeedL)


def _are(kind, *xs) -> bool:
    return all(isinstance(x, kind) for x in xs)


def _seqs(*xs) -> bool:
    return _are(cells.RedSeq, *xs)


def _seq_fields(v) -> bool:
    return _seqs(*(getattr(v, f) for f in v.__match_args__))


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
                             and _are(_TERM, *v.terms) and _are(terms.RedStep, *v.steps)),
    cells.WhiskerL: lambda v: _seqs(v.prefix),
    cells.WhiskerR: lambda v: _seqs(v.suffix),
    **dict.fromkeys((cells.Assoc, cells.UnitL, cells.UnitR, cells.Pentagon,
                     cells.Triangle), _seq_fields),
    cells.StepCong: lambda v: (isinstance(v.around, _TERM) and isinstance(v.path, tuple)
                               and _are(terms.Dir, *v.path)
                               and isinstance(v.cell, cells.H2_CLASSES)),
    cells.Interchange: lambda v: _are(cells.H2_CLASSES, v.a, v.b, v.c, v.d),
    completion.SigmaCell: lambda v: (type(v.dim) is int and v.dim >= 4 and isinstance(
        v.payload, (cells.Refl, cells.Symm, cells.Trans))),
    frontseed.AssL: lambda v: _seqs(v.a, v.b, v.c) and _flags(v),
    frontseed.WlL: _whiskering,
    frontseed.WrL: _whiskering,
    frontseed.ReflL: lambda v: _seqs(v.edge),
    frontseed.SeedL: lambda v: (isinstance(v.name, str) and _seqs(v.src, v.tgt)
                                and _flags(v)),
    frontseed.Word: lambda v: (_seqs(v.src, v.tgt) and isinstance(v.letters, tuple)
                               and _are(_LETTER, *v.letters) and _chains(v)),
    frontseed.PasteR: lambda v: isinstance(v.word, frontseed.Word),
    frontseed.FillerE: lambda v: (isinstance(v.faces, tuple)
                                  and _are(frontseed.Word, v.src, v.tgt)),
}


def _chains(w) -> bool:
    """The letters of w lead from w.src to w.tgt, as frontseed.word_of
    chains them; an empty word starts where it ends."""
    if not w.letters:
        return w.src == w.tgt
    try:
        chained = frontseed.word_of(w.letters)
    except ValueError:  # adjacent letters, or a letter's own edges, do not compose
        return False
    return chained.src == w.src and chained.tgt == w.tgt


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
    constructor cannot take, or fields of the wrong kind for the class, as
    _WELL_FORMED reads them)."""
    if data is None or isinstance(data, (bool, int, str)):
        return data
    if isinstance(data, list):
        return tuple(decode(x) for x in data)
    if not isinstance(data, dict):
        raise ValueError(f"cannot decode a JSON {type(data).__name__}")
    if "$e" in data:
        pair = data["$e"]
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and pair[0] in _ENUMS):
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
