import hashlib
import json
import random
import re

import pytest

from lamtower import serialize
from lamtower.cells import (HComp, Interchange, Pentagon, RedSeq, Refl, StepCong,
                            Symm, Trans, Triangle, WhiskerL, WhiskerR, boundary3,
                            empty_seq, seq_invert)
from lamtower.completion import (RTowerCell, explicit_cell, realize,
                                 realize_boundary_check, triple_cell)
from lamtower.frontseed import (AssL, FS2Seed, ReflL, SeedL, WlL, Word, WrL,
                                boundary3_words, empty_word, fs_assoc_compare,
                                fs_bridges, fs_pentagon)
from lamtower.gen import (gen_composable_seqs, gen_h2, gen_h3, gen_rtower_cell,
                          gen_term, gen_zigzag)
from lamtower.terms import App, Dir, Lam, Var
from lamtower.witness import Comp, ReflM, TBeta, pad, span_beta_seq


_P = span_beta_seq()
_E = serialize.encode


def _roundtrip(obj):
    return serialize.loads(serialize.dumps(obj)) == obj


def test_term_roundtrip(rng):
    for _ in range(50):
        assert _roundtrip(gen_term(rng, 10))


def test_seq_roundtrip(rng):
    for _ in range(30):
        assert _roundtrip(gen_zigzag(rng, gen_term(rng, 7), rng.randint(0, 4)))


def test_cell_roundtrip(rng):
    for _ in range(30):
        assert _roundtrip(gen_h2(rng, depth=2))
        assert _roundtrip(gen_h3(rng, depth=2))


def test_tower_cell_roundtrip(rng):
    for dim in (0, 1, 2, 3, 4, 6, 8):
        cell = gen_rtower_cell(rng, dim)
        assert _roundtrip(cell)
        from lamtower.completion import realize
        assert _roundtrip(realize(dim, cell))


def test_word_and_cell3_roundtrip(rng):
    p, q, r, s = gen_composable_seqs(rng, 4)
    cell = fs_assoc_compare(p, q, r)
    assert _roundtrip(cell)
    assert _roundtrip(boundary3_words(cell)[0])
    assert _roundtrip(fs_pentagon(p, q, r, s))


def test_witness_roundtrip():
    assert _roundtrip(pad(Comp(ReflM(), TBeta()), 2, 2))


def test_deterministic_bytes(rng):
    cell = gen_h3(rng, depth=2)
    assert serialize.dumps(cell) == serialize.dumps(cell)


@pytest.mark.parametrize("data, message", [
    ({"$t": "NoSuchCell", "f": []}, "unknown tag 'NoSuchCell'"),
    ({"f": [0]}, "unknown tag None"),
    ({"$t": "Var", "f": [0, 1]}, "Var expects a list of 1 fields"),
    ({"$t": "App", "f": [{"$t": "Var", "f": [0]}]}, "App expects a list of 2 fields"),
    ({"$t": "Var"}, "Var expects a list of 1 fields"),
    ({"$e": ["NoSuchEnum", 1]}, "unknown enum"),
    ({"$e": 3}, "unknown enum"),
    (1.5, "cannot decode a JSON float"),
    ({"$t": "RedSeq", "f": [5, []]}, "RedSeq cannot hold these fields"),
    ({"$t": "Comp", "f": [1, 2]}, "Comp cannot hold these fields"),
    # ill-shaped terms, steps and sequences, refused as they are decoded
    ({"$t": "Var", "f": ["x"]}, "Var cannot hold these fields: ill-shaped"),
    ({"$t": "Var", "f": [-1]}, "Var cannot hold these fields: ill-shaped"),
    ({"$t": "App", "f": [{"$t": "Var", "f": [0]}, 1]}, "App cannot hold these fields: ill-shaped"),
    ({"$t": "Lam", "f": [[]]}, "Lam cannot hold these fields: ill-shaped"),
    ({"$t": "RedStep", "f": [{"$e": ["StepKind", "beta"]}, 5, True, None]},
     "RedStep cannot hold these fields: ill-shaped"),
    ({"$t": "RedSeq", "f": [[1], []]}, "RedSeq cannot hold these fields: ill-shaped"),
    # words, letters and contexts, likewise
    ({"$t": "Word", "f": [1, 2, []]}, "Word cannot hold these fields: ill-shaped"),
    ({"$t": "StepCong", "f": [_E(Var(0)), [5], _E(Refl(_P))]},
     "StepCong cannot hold these fields: ill-shaped"),
    # words whose letters do not chain from src to tgt: two reflexive
    # letters that word_reduce would drop, so the word loaded equal to the
    # empty word on p; an empty word between different edges; and a chained
    # word that ends somewhere else than its tgt
    (serialize.encode(Word(_P, _P, (ReflL(seq_invert(_P)), ReflL(empty_seq(_P.source))))),
     "Word cannot hold these fields: ill-shaped"),
    (serialize.encode(Word(_P, seq_invert(_P), ())), "Word cannot hold these fields: ill-shaped"),
    (serialize.encode(Word(_P, seq_invert(_P), (ReflL(_P),))),
     "Word cannot hold these fields: ill-shaped"),
    # an enum name that is not a string, refused before it is looked up
    ({"$e": [[], "a"]}, "unknown enum [[], 'a']"),
    ({"$e": [{}, "a"]}, "unknown enum [{}, 'a']"),
])
def test_decode_rejects_non_encodings(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize.decode(data)


_W = _E(empty_word(_P))


@pytest.mark.parametrize("data", [
    # sequences where a 2-cell, an int or a term stands
    {"$t": "Assoc", "f": [1, 2, 3]},
    {"$t": "UnitL", "f": [_E(Refl(_P))]},
    {"$t": "UnitR", "f": [5]},
    {"$t": "Pentagon", "f": [1, 2, 3, 4]},
    {"$t": "Triangle", "f": [_E(_P), 2]},
    {"$t": "WhiskerL", "f": [5, _E(Refl(_P))]},
    {"$t": "WhiskerR", "f": [_E(Refl(_P)), _E(Var(0))]},
    # a term, a path and a 2-cell; four 2-cells
    {"$t": "StepCong", "f": [5, [], _E(Refl(_P))]},
    {"$t": "StepCong", "f": [_E(Var(0)), 5, _E(Refl(_P))]},
    {"$t": "StepCong", "f": [_E(Var(0)), [], _E(_P)]},
    _E(Interchange(Refl(_P), Refl(_P), Refl(_P), _P)),
    # a dimension that is an int >= 0, and a payload of that dimension
    {"$t": "SigmaCell", "f": [9, 1]},
    {"$t": "SigmaCell", "f": [True, _E(Var(0))]},
    {"$t": "SigmaCell", "f": [-1, _E(Var(0))]},
    {"$t": "SigmaCell", "f": [2, _E(_P)]},
    {"$t": "SigmaCell", "f": [3, _E(Refl(Refl(_P)))]},
    # a word to paste; a face tuple and two words
    {"$t": "PasteR", "f": [_E(Refl(_P)), _E(_P)]},
    {"$t": "FillerE", "f": [[], 1, 2, 3]},
    {"$t": "FillerE", "f": [5, _W, _W, 3]},
    {"$t": "FillerE", "f": [[], _W, 2, 3]},
])
def test_loads_refuses_cells_with_fields_of_the_wrong_kind(data):
    message = f"{data['$t']} cannot hold these fields: ill-shaped"
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize.loads(json.dumps(data))


def test_decode_checks_every_field_of_words_letters_and_contexts():
    p = span_beta_seq()
    e, t = empty_seq(p.target), p.source
    inner = Word(p, p, (ReflL(p),))
    values = [
        Word(p, p, (ReflL(p), SeedL("s", p, p, True))),
        AssL(p, e, e), AssL(p, e, e, True, True), WlL(p, inner), WrL(inner, p, True),
        ReflL(p), SeedL("s", p, e, False, True),
        StepCong(t, (), Refl(p)), StepCong(App(Lam(t), t), (Dir.FUN, Dir.BODY), Refl(p)),
    ]
    for value in values:
        assert _roundtrip(value)
        good = serialize.encode(value)
        # any field of the wrong kind: an int where a sequence, word, flag,
        # name, letter tuple, path, cell or term belongs
        for i in range(len(good["f"])):
            data = dict(good, f=good["f"][:i] + [5] + good["f"][i + 1:])
            with pytest.raises(ValueError, match="ill-shaped"):
                serialize.decode(data)
    word = serialize.encode(inner)
    for letters in ([5], [serialize.encode(p)]):
        data = dict(word, f=word["f"][:2] + [letters])
        with pytest.raises(ValueError, match="Word cannot hold these fields: ill-shaped"):
            serialize.decode(data)
    # a whiskering letter's inner is a word, not a sequence
    data = serialize.encode(WlL(p, inner))
    data["f"][1] = serialize.encode(p)
    with pytest.raises(ValueError, match="WlL cannot hold these fields: ill-shaped"):
        serialize.decode(data)


# --- encodings made before the groupoid constructors were shared -------------
#
# Each dimension used to have its own copy of refl/symm/trans/whiskering, with
# its own tag.  The samples below were written by that code (span_beta_seq
# and its inverse, with empty sequences at either end).  Each class now has
# one tag, its name, so loads refuses them; the value the shared constructors
# build in their place keeps the boundary pinned as the sha256 of its
# serialized boundary at that code.

_FRAGMENTS = {
    "P": '{"$t": "RedSeq", "f": [[{"$t": "App", "f": [{"$t": "Lam", "f": [{"$t": "App", "f": [{"$t": "Var", "f": [1]}, {"$t": "Var", "f": [0]}]}]}, {"$t": "Var", "f": [1]}]}, {"$t": "App", "f": [{"$t": "Var", "f": [0]}, {"$t": "Var", "f": [1]}]}], [{"$t": "RedStep", "f": [{"$e": ["StepKind", "beta"]}, [], true, null]}]]}',
    "PI": '{"$t": "RedSeq", "f": [[{"$t": "App", "f": [{"$t": "Var", "f": [0]}, {"$t": "Var", "f": [1]}]}, {"$t": "App", "f": [{"$t": "Lam", "f": [{"$t": "App", "f": [{"$t": "Var", "f": [1]}, {"$t": "Var", "f": [0]}]}]}, {"$t": "Var", "f": [1]}]}], [{"$t": "RedStep", "f": [{"$e": ["StepKind", "beta"]}, [], false, {"$t": "App", "f": [{"$t": "Lam", "f": [{"$t": "App", "f": [{"$t": "Var", "f": [1]}, {"$t": "Var", "f": [0]}]}]}, {"$t": "Var", "f": [1]}]}]}]]}',
    "EM": '{"$t": "RedSeq", "f": [[{"$t": "App", "f": [{"$t": "Lam", "f": [{"$t": "App", "f": [{"$t": "Var", "f": [1]}, {"$t": "Var", "f": [0]}]}]}, {"$t": "Var", "f": [1]}]}], []]}',
    "EN": '{"$t": "RedSeq", "f": [[{"$t": "App", "f": [{"$t": "Var", "f": [0]}, {"$t": "Var", "f": [1]}]}], []]}',
}
_FRAGMENTS["TRI"] = '{"$t": "Triangle", "f": [%(P)s, %(EN)s]}' % _FRAGMENTS

_OLD_JSON = {
    "Refl3": '{"$t": "Refl3", "f": [{"$t": "Refl", "f": [%(P)s]}]}',
    "Symm3": '{"$t": "Symm3", "f": [%(TRI)s]}',
    "Trans3": '{"$t": "Trans3", "f": [%(TRI)s, {"$t": "Symm3", "f": [%(TRI)s]}]}',
    "WhiskerL3": '{"$t": "WhiskerL3", "f": [%(PI)s, %(TRI)s]}',
    "WhiskerR3": '{"$t": "WhiskerR3", "f": [%(TRI)s, %(PI)s]}',
    "HComp3": '{"$t": "HComp3", "f": [%(TRI)s, {"$t": "Triangle", "f": [%(PI)s, %(EM)s]}]}',
    "Refl3W": '{"$t": "Refl3W", "f": [{"$t": "Word", "f": [%(P)s, %(P)s, []]}]}',
    "InvE": '{"$t": "InvE", "f": [{"$t": "FS2Seed", "f": [%(P)s, %(PI)s, %(P)s, %(PI)s]}]}',
    "WlCong3": '{"$t": "WlCong3", "f": [%(P)s, {"$t": "FS2Seed", "f": [%(PI)s, %(P)s, %(PI)s, %(P)s]}]}',
    "WrCong3": '{"$t": "WrCong3", "f": [{"$t": "FS2Seed", "f": [%(P)s, %(PI)s, %(P)s, %(PI)s]}, %(P)s]}',
}

_OLD_BOUNDARY_SHA = {
    "Refl3": "e634579fba9255b896469378d52555b6a88ec4d6a2b4d75565686017b496347e",
    "Symm3": "0b292e025d943faa807e0211b59d4c9cb8a16a160fe6362d5ac66b159f608844",
    "Trans3": "437f3a63e809da6cee13a08d605a1759b970255da4a2f531171980201db5708b",
    "WhiskerL3": "7ce00a92be5ce22d15ebb7a01c69a41c9e9c6efeefaf85593c716d239548d09d",
    "WhiskerR3": "ef5559460595ec8b077e930436a0076ebd3dbb5c61c8623b3b1b32790c1ba300",
    "HComp3": "983ffe8144d1cedd4471e67eec8637814e315aaab595e96ee3721af6c0439b49",
    "Refl3W": "827ab4454b9bdf65ccea5f6a620ecd57adb9d11654b79634f75ee18eb0fa4eef",
    "InvE": "b0d71b19ab90f3afd148676077944abfe78703aef043197e6a42241c46daa24d",
    "WlCong3": "7d1307fdaa4e4eff05924e23276bbf2b2be162cf18261d4fed40e19a83ff745e",
    "WrCong3": "efda642230bda74c53207e457ce6527e7cae96e1ba7ed8979ddb08ace034bffa",
}


def _shared_values():
    p = span_beta_seq()
    pi, em, en = seq_invert(p), empty_seq(p.source), empty_seq(p.target)
    tri = Triangle(p, en)
    return {
        "Refl3": Refl(Refl(p)),
        "Symm3": Symm(tri),
        "Trans3": Trans(tri, Symm(tri)),
        "WhiskerL3": WhiskerL(pi, tri),
        "WhiskerR3": WhiskerR(tri, pi),
        "HComp3": HComp(tri, Triangle(pi, em)),
        "Refl3W": Refl(empty_word(p)),
        "InvE": Symm(FS2Seed(p, pi, p, pi)),
        "WlCong3": WhiskerL(p, FS2Seed(pi, p, pi, p)),
        "WrCong3": WhiskerR(FS2Seed(p, pi, p, pi), p),
    }


def _sha(obj) -> str:
    return hashlib.sha256(serialize.dumps(obj).encode()).hexdigest()


def _refuses_tag(text, tag):
    with pytest.raises(ValueError, match=re.escape(f"unknown tag {tag!r}")):
        serialize.loads(text)


@pytest.mark.parametrize("tag", sorted(_OLD_JSON))
def test_old_tags_decode_to_shared_constructors(tag):
    _refuses_tag(_OLD_JSON[tag] % _FRAGMENTS, tag)
    value = _shared_values()[tag]
    words = tag in ("Refl3W", "InvE", "WlCong3", "WrCong3")
    ends = boundary3_words(value) if words else boundary3(value)
    assert _sha(ends) == _OLD_BOUNDARY_SHA[tag]
    # encoding emits the shared tag, which decodes to the same value
    text = serialize.dumps(value)
    assert f'"$t": "{type(value).__name__}"' in text and tag not in text
    assert serialize.loads(text) == value


def test_generated_boundaries_pinned():
    # boundary3 over generated 3-cells and boundary3_words over pentagon
    # fillers and bridges, serialized; pinned when each dimension still had
    # its own groupoid constructors
    rng = random.Random(2024)
    cells3 = [gen_h3(rng, depth=2) for _ in range(40)]
    quads = [gen_composable_seqs(rng, 4, max_steps=3) for _ in range(4)]
    out = [boundary3(c) for c in cells3]
    out += [boundary3_words(fs_pentagon(*q)) for q in quads]
    out += [boundary3_words(b) for q in quads for b in fs_bridges(*q, Pentagon(*q))]
    assert _sha(tuple(out)) == (
        "88280aa95a41a9cc9e2f5644f31da0b931375e4284049aa17b989be723f1552f")


# --- encodings made before higher derivations were the shared constructors ---
#
# A dimension-5 tower cell over a triangle 3-cell and its realization, as
# serialize.dumps wrote them when derivations had their own HDRefl/HDSymm/
# HDTrans classes (sha256 of the expanded text pinned below).  loads refuses
# those tags; dumps of the same values writes that text without the HD.

_HD_FRAGMENTS = {
    "ETA": '{"$t": "RTowerCell", "f": [3, %(TRI)s]}',
    "C4": '{"$t": "RTowerCell", "f": [4, [%(ETA)s, %(ETA)s, {"$t": "HDSymm", "f": [{"$t": "HDRefl", "f": [%(ETA)s]}]}]]}',
    "C5": '{"$t": "RTowerCell", "f": [5, [%(C4)s, %(C4)s, {"$t": "HDTrans", "f": [{"$t": "HDRefl", "f": [%(C4)s]}, {"$t": "HDSymm", "f": [{"$t": "HDRefl", "f": [%(C4)s]}]}]}]]}',
    "S3": '{"$t": "SigmaCell", "f": [3, %(TRI)s]}',
    "S4": '{"$t": "SigmaCell", "f": [4, {"$t": "HDSymm", "f": [{"$t": "HDRefl", "f": [%(S3)s]}]}]}',
    "S5": '{"$t": "SigmaCell", "f": [5, {"$t": "HDTrans", "f": [{"$t": "HDRefl", "f": [%(S4)s]}, {"$t": "HDSymm", "f": [{"$t": "HDRefl", "f": [%(S4)s]}]}]}]}',
}


def _old_hd_json():
    texts = dict(_FRAGMENTS)
    for key, template in _HD_FRAGMENTS.items():  # in dependency order
        texts[key] = template % texts
    return texts["C5"], texts["S5"]


def test_old_derivation_tags_decode_to_shared_constructors():
    old_cell, old_image = _old_hd_json()
    assert hashlib.sha256(old_cell.encode()).hexdigest() == (
        "5872271c957573bdc9c26f96c92c61350239939dd32930086c7598172d046dd7")
    assert hashlib.sha256(old_image.encode()).hexdigest() == (
        "2a721afcdff088999a4159b546dbb94a07e08470b38018771e8f5258d35cbadb")
    p = span_beta_seq()
    eta = explicit_cell(3, Triangle(p, empty_seq(p.target)))
    c4 = triple_cell(eta, eta, Symm(Refl(eta)))
    c5 = triple_cell(c4, c4, Trans(Refl(c4), Symm(Refl(c4))))
    _refuses_tag(old_cell, "HDSymm")  # C4's derivation is decoded first
    _refuses_tag(old_image, "HDTrans")
    eta_text = _HD_FRAGMENTS["ETA"] % _FRAGMENTS
    for tag in ("HDRefl", "HDSymm", "HDTrans"):
        _refuses_tag('{"$t": "%s", "f": [%s]}' % (tag, eta_text), tag)
    for value, old in ((c5, old_cell), (realize(5, c5), old_image)):
        text = serialize.dumps(value)
        assert '"HD' not in text
        # realization is now the identity through dimension 3
        old = old.replace(_HD_FRAGMENTS["S3"] % _FRAGMENTS, eta_text)
        assert text == re.sub(r'"\$t": "HD(Refl|Symm|Trans)"', r'"$t": "\1"', old)
        assert serialize.loads(text) == value
    assert realize_boundary_check(5, serialize.loads(serialize.dumps(c5)))


# --- decoded tower cells are checked as their constructors check them -------

def test_loads_refuses_ill_formed_tower_cells():
    p = span_beta_seq()
    eta = explicit_cell(3, Triangle(p, empty_seq(p.target)))
    c4 = triple_cell(eta, eta, Refl(eta))
    other = triple_cell(eta, eta, Symm(Refl(eta)))
    for cell, message in (
            # a Trans joint between c4 and other: realize used to accept this
            # cell, and only realize_boundary_check raised
            (RTowerCell(5, (c4, c4, Trans(Trans(Refl(c4), Refl(other)), Refl(c4)))),
             "Trans: middle boundaries differ"),
            (RTowerCell(5, (c4, other, Refl(c4))), "derivation endpoints do not match"),
            (RTowerCell(6, (c4, c4, Refl(c4))), "holds a triple of dimension-4 cells"),
            (RTowerCell(4, (eta, RTowerCell(3, Refl(Refl(p))), Refl(eta))), "not parallel"),
            (RTowerCell(2, Refl(Refl(p))), "dimension 2 does not accept Refl"),
            (RTowerCell(0, p), "dimension 0 does not accept RedSeq"),
            # payloads that only their leftmost leaf used to check
            (RTowerCell(1, RedSeq(seq_invert(p).terms, p.steps)), "must replay its steps"),
            (RTowerCell(2, Trans(Refl(p), Refl(seq_invert(p)))), "middle boundaries differ"),
            (RTowerCell(5, (c4, c4)), "not enough values to unpack"),
            (RTowerCell(5, 7), "RTowerCell cannot hold these fields"),
            # terms that are not terms all the way down, refused as the
            # sequence or the term is decoded, before the tower cell
            (RTowerCell(1, RedSeq((1,), ())), "RedSeq cannot hold these fields: ill-shaped"),
            (RTowerCell(0, Var("x")), "Var cannot hold these fields: ill-shaped"),
            (RTowerCell(0, Var(-1)), "Var cannot hold these fields: ill-shaped")):
        text = serialize.dumps(cell)
        with pytest.raises(ValueError, match=message):
            serialize.loads(text)


def test_each_tag_names_its_class():
    # one tag per class: an alias tag would decode to a class of another name
    for table in (serialize._REGISTRY, serialize._ENUMS):
        assert all(cls.__name__ == tag for tag, cls in table.items())
