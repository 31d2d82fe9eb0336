import re

import pytest

from lamtower import serialize
from lamtower.frontseed import boundary3_words, fs_assoc_compare, fs_pentagon
from lamtower.gen import (gen_composable_seqs, gen_h2, gen_h3, gen_rtower_cell,
                          gen_term, gen_zigzag)
from lamtower.witness import Comp, ReflM, TBeta, pad


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
    for dim in (4, 6, 8):
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
    ({"$t": "HDTrans", "f": [1, 2]}, "HDTrans cannot hold these fields"),
])
def test_decode_rejects_non_encodings(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize.decode(data)
