import hashlib
import itertools
import random
import time

import pytest

from lamtower.domains import (CapExceeded, FinPoset, LazyMono, Tower,
                              check_law_budget, check_projection_pair,
                              enumerate_stage, flat_base, flat_stage1_size,
                              lub, step_join_sample, step_map)
from lamtower.kinfinity import verify_laws

BOT, SR1, SL1 = 0, 1, 2


def test_flat_base_shape(tower):
    base = tower.base
    assert base.labels == ("bot", "sR1", "sL1")
    assert base.bottom == 0
    # flatness: x <= y implies x = bottom or x = y
    for i in range(3):
        for j in range(3):
            if base.leq[i][j]:
                assert i == 0 or i == j


def test_flat_base_requires_poles():
    with pytest.raises(ValueError):
        flat_base(("sR1", "other"))
    with pytest.raises(ValueError):
        flat_base(("sR1", "sL1", "sR1"))


def test_poset_axioms_rejected():
    bad = ((True, True), (True, True))  # not antisymmetric
    with pytest.raises(ValueError):
        FinPoset(("a", "b"), bad, 0)


def _order(n, pairs):
    """The n x n relation holding exactly at the given (i, j) pairs."""
    return tuple(tuple((i, j) in pairs for j in range(n)) for i in range(n))


_DIAG4 = {(i, i) for i in range(4)} | {(0, j) for j in range(4)}


@pytest.mark.parametrize("leq, message", [
    (_order(3, {(0, 0), (0, 1), (0, 2), (1, 1)}), "reflexive"),
    (_order(3, {(0, 0), (0, 1), (1, 1), (2, 2)}), "bottom"),
    (_order(4, _DIAG4 | {(1, 2), (2, 1)}), "antisymmetric"),
    (_order(4, _DIAG4 | {(1, 2), (2, 3)}), "transitive"),  # 1 <= 2 <= 3, not 1 <= 3
])
def test_poset_each_axiom_rejected(leq, message):
    with pytest.raises(ValueError, match=message):
        FinPoset(tuple("abcd"[:len(leq)]), leq, 0)


def _violations(leq, bottom):
    """The axioms the relation breaks, by the direct s^3 definition."""
    n, out = len(leq), set()
    for i in range(n):
        if not leq[i][i]:
            out.add("reflexive")
        if not leq[bottom][i]:
            out.add("bottom")
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                out.add("antisymmetric")
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    out.add("transitive")
    return out


def test_poset_check_agrees_with_definition(rng):
    # random relations, most of them reflexive with bottom 0, so that
    # antisymmetry and transitivity are reached
    for _ in range(400):
        n = rng.randint(1, 5)
        leq = tuple(tuple(i == j or i == 0 or rng.random() < 0.3 for j in range(n))
                    if rng.random() < 0.9 else
                    tuple(rng.random() < 0.5 for j in range(n))
                    for i in range(n))
        broken = _violations(leq, 0)
        try:
            FinPoset(tuple(map(str, range(n))), leq, 0)
        except ValueError as err:
            assert any(name in str(err) for name in broken)
        else:
            assert not broken


def test_enumerate_stage1_at_base5_is_fast():
    t = Tower(flat_base(("sR1", "sL1", "s2", "s3")))
    start = time.perf_counter()
    stage = enumerate_stage(t, 1)
    assert time.perf_counter() - start < 1.0
    assert len(stage.elements) == 629
    assert stage.poset.bottom == stage.elements.index((0,) * 5)


def _flat_leq(i, j):
    return i == 0 or i == j


def test_stage1_matches_brute_force(tower):
    # independent enumeration over all 27 tables with a hand-written order
    brute = set()
    for table in itertools.product(range(3), repeat=3):
        ok = all(not _flat_leq(i, j) or _flat_leq(table[i], table[j])
                 for i in range(3) for j in range(3))
        if ok:
            brute.add(table)
    assert set(tower.stage1) == brute
    assert len(tower.stage1) == 11


def test_enumerate_stage(tower):
    s0 = enumerate_stage(tower, 0)
    assert len(s0.elements) == 3
    s1 = enumerate_stage(tower, 1)
    assert len(s1.elements) == 11
    assert s1.poset.bottom == s1.elements.index((0, 0, 0))
    with pytest.raises(CapExceeded):
        enumerate_stage(tower, 2)


def test_projection_pair_stage0(tower):
    assert tower.proj(0, tower.emb(0, SR1)) == SR1
    for x in range(3):
        assert tower.proj(0, tower.emb(0, x)) == x
    # section: forced by monotonicity g(bot) <= g(y)
    for g in tower.stage1:
        assert tower.leq(1, tower.emb(0, tower.proj(0, g)), g)


def test_projection_pair_stage1(tower):
    for g in tower.stage1:
        assert tower.proj(1, tower.emb(1, g)) == g


def test_projection_pair_report(tower, rng):
    assert check_projection_pair(tower, 0)["ok"]
    sample = [step_map(tower, 1, rng.choice(tower.stage1), rng.choice(tower.stage1))
              for _ in range(50)]
    rep = check_projection_pair(tower, 1, sample)
    assert rep["ok"] and rep["retract_checked"] == 11


def test_non_monotone_rejected(tower):
    with pytest.raises(ValueError):
        tower.make_mono(0, (SR1, BOT, BOT))  # bot maps above its successors
    assert tower.make_mono(0, (BOT, SR1, SL1)).table == (0, 1, 2)


def test_lub_examples(tower):
    assert lub(tower, 0, [BOT]) == BOT
    assert lub(tower, 0, [SR1, SL1]) is None
    assert lub(tower, 0, [BOT, SL1]) == SL1
    f = (0, 1, 0)
    g = (0, 1, 2)
    assert lub(tower, 1, [f, g]) == g  # comparable pair: the larger
    assert lub(tower, 1, [(1, 1, 1), (2, 2, 2)]) is None


def _brute_lub(tower, level, xs, candidates):
    ubs = [u for u in candidates if all(tower.leq(level, x, u) for x in xs)]
    least = [u for u in ubs if all(tower.leq(level, u, v) for v in ubs)]
    return least[0] if least else None


def test_lub_agrees_with_brute_force(tower, rng):
    candidates0 = list(range(3))
    for size in (1, 2, 3):
        for xs in itertools.combinations(candidates0, size):
            assert lub(tower, 0, list(xs)) == _brute_lub(tower, 0, xs, candidates0)
    for _ in range(60):
        xs = [rng.choice(tower.stage1) for _ in range(rng.randint(1, 3))]
        assert lub(tower, 1, xs) == _brute_lub(tower, 1, xs, tower.stage1)
    # level 2, on joins of two level-1 step maps: the stage-2 order is
    # pointwise, so the brute-force join takes the brute-force level-1 lub
    # slot by slot; every pair at base size 3, a seeded sample at 4
    t4 = Tower(flat_base(POLES[4]))
    for t, pairs in ((tower, None), (t4, 400)):
        steps = sorted({step_map(t, 1, a, b) for a in t.stage1 for b in t.stage1})
        if pairs is None:
            joined = list(itertools.combinations_with_replacement(steps, 2))
        else:
            joined = [(rng.choice(steps), rng.choice(steps)) for _ in range(pairs)]
        slot_lub = {}
        for f, g in joined:
            slots = []
            for s, u in zip(f, g):
                if (s, u) not in slot_lub:
                    slot_lub[s, u] = _brute_lub(t, 1, (s, u), t.stage1)
                slots.append(slot_lub[s, u])
            expected = None if None in slots else tuple(slots)
            got = lub(t, 2, [f, g])
            assert got == expected
            if got is not None:  # canonical slots
                assert all(s is t.stage1[t.stage1_index[s]] for s in got)


def _poset(labels, covers):
    """The pointed poset on labels (the first is bottom) generated by the
    covering pairs (i, j), i below j."""
    n = len(labels)
    leq = [[i == j or i == 0 for j in range(n)] for i in range(n)]
    for i, j in covers:
        leq[i][j] = True
    for k, i, j in itertools.product(range(n), repeat=3):  # k outermost
        leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    return FinPoset(tuple(labels), tuple(map(tuple, leq)), 0)


CHAIN3 = _poset(("bot", "a", "c"), [(1, 2)])
DIAMOND = _poset(("bot", "a", "b", "top"), [(1, 3), (2, 3)])


@pytest.mark.parametrize("base, stage1_size", [(CHAIN3, 10), (DIAMOND, 36)],
                         ids=["3-chain", "diamond"])
def test_lub_on_non_flat_bases_agrees_with_brute_force(base, stage1_size):
    # both bases are lattices, so every pair has a join at stages 0 and 1
    t = Tower(base)
    assert len(t.stage1) == stage1_size
    for level, elems in ((0, range(len(base))), (1, t.stage1)):
        for x in elems:
            for y in elems:
                expected = _brute_lub(t, level, (x, y), elems)
                assert expected is not None
                assert lub(t, level, [x, y]) == expected


def _pointed_posets(max_size):
    """Every pointed poset with at most max_size elements, one per
    isomorphism class: bottom is element 0, below a poset on the rest, and
    each poset on the rest is kept in its least form under relabelling."""
    out = []
    for n in range(1, max_size + 1):
        rest = range(1, n)
        pairs = [(i, j) for i in rest for j in rest if i != j]
        perms = [dict(zip(rest, p)) for p in itertools.permutations(rest)]
        seen = set()
        for bits in itertools.product((False, True), repeat=len(pairs)):
            less = set(itertools.compress(pairs, bits))  # strict order
            if any((j, i) in less or any((j, k) in less and (i, k) not in less
                                         for k in rest) for i, j in less):
                continue  # not antisymmetric or not transitive
            form = min(tuple(sorted((p[i], p[j]) for i, j in less)) for p in perms)
            if form not in seen:
                seen.add(form)
                leq = tuple(tuple(i == 0 or i == j or (i, j) in less for j in range(n))
                            for i in range(n))
                out.append(FinPoset(tuple(f"e{i}" for i in range(n)), leq, 0))
    return out


def _pointwise_joins(base, elems):
    """{(x, y): least upper bound or None} over every pair of elems, in the
    order read pointwise from the base order (elems are base indices or
    stage-1 tables): the least upper bound of x and y is the element whose
    up-set is their common up-set."""
    leq0 = base.leq

    def below(a, b):
        if type(a) is int:
            return leq0[a][b]
        return all(leq0[p][q] for p, q in zip(a, b))
    ups = {a: frozenset(b for b in elems if below(a, b)) for a in elems}
    by_up = {up: a for a, up in ups.items()}
    return {(x, y): by_up.get(ups[x] & ups[y]) for x in elems for y in elems}


# ⊥ < a, b < c, d, listed (bot, c, d, a, b): a and b have two minimal upper
# bounds, so no join, and stage 1 has joins no pointwise join finds
TWO_TOPS = _poset(("bot", "c", "d", "a", "b"), [(3, 1), (3, 2), (4, 1), (4, 2)])


def test_pointed_posets_up_to_isomorphism():
    # 1, 1, 2, 5 pointed posets with 1..4 elements (posets with 0..3)
    sizes = [len(b) for b in _pointed_posets(4)]
    assert [sizes.count(n) for n in (1, 2, 3, 4)] == [1, 1, 2, 5]


# each id lists the up-set size of each element, bottom first
@pytest.mark.parametrize("base", _pointed_posets(4) + [TWO_TOPS],
                         ids=lambda b: "-".join(map(str, map(sum, b.leq))))
def test_lub_on_small_pointed_posets_agrees_with_brute_force(base):
    t = Tower(base)
    for level, elems in ((0, tuple(range(len(base)))), (1, t.stage1)):
        for (x, y), expected in _pointwise_joins(base, elems).items():
            got = lub(t, level, [x, y])
            assert got == expected, (level, x, y)
            if level == 1 and got is not None:
                assert got is t.stage1[t.stage1_index[got]]


def test_stage1_join_where_no_pointwise_join_exists():
    t = Tower(TWO_TOPS)
    assert lub(t, 0, [3, 4]) is None
    assert lub(t, 1, [(0, 1, 1, 0, 3), (0, 1, 1, 0, 4)]) == (0, 1, 1, 0, 1)
    # no upper bound at all: a constant at c and a constant at d
    assert lub(t, 1, [(1,) * 5, (2,) * 5]) is None


def test_step_map_examples(tower):
    assert step_map(tower, 0, BOT, SL1) == (SL1, SL1, SL1)
    sm = step_map(tower, 0, SR1, SL1)
    assert sm[SR1] == SL1 and sm[SL1] == BOT and sm[BOT] == BOT
    # level 1, every (a, b), against the flat-base pointwise order
    for a in tower.stage1:
        for b in tower.stage1:
            expected = tuple(b if all(_flat_leq(x, y) for x, y in zip(a, g))
                             else (BOT,) * 3 for g in tower.stage1)
            assert step_map(tower, 1, a, b) == expected


def test_stage1_algebraicity_proxy(tower):
    # every element is the join of the step maps below it
    steps = [step_map(tower, 0, a, b)
             for a in range(3) for b in range(3)]
    for g in tower.stage1:
        below = [s for s in steps if tower.leq(1, s, g)]
        assert lub(tower, 1, below) == g


def test_extra_poles():
    t = Tower(flat_base(("sR1", "sL1", "s2")))
    assert len(t.base) == 4
    # flat base: monotonicity only constrains f(bot) <= f(x)
    brute = sum(all(table[0] == 0 or table[0] == table[i] for i in range(4))
                for table in itertools.product(range(4), repeat=4))
    assert len(t.stage1) == brute == 67


def test_flat_stage1_size_matches_enumeration():
    assert [flat_stage1_size(k) for k in (1, 2, 3, 4)] == [3, 11, 67, 629]
    assert flat_stage1_size(5) == 7781
    for k in (2, 3, 4):
        poles = ("sR1", "sL1") + tuple(f"s{i}" for i in range(k - 2))
        assert len(Tower(flat_base(poles)).stage1) == flat_stage1_size(k)


def test_law_budget_admits_base5_refuses_base6():
    check_law_budget(flat_stage1_size(3))
    check_law_budget(flat_stage1_size(4))
    with pytest.raises(CapExceeded, match="7781 elements"):
        check_law_budget(flat_stage1_size(5))


def test_construction_builds_no_stage1_table():
    t = Tower(flat_base(("sR1", "sL1", "s2", "s3", "s4")))
    assert len(t.base) == 6 and len(t.stage1) == 7781
    assert t._emb1 == {} and t._up1 is None and t._probes is None
    assert t._probe_pos == {} and t._threads == {} and t._probe_proj1 == ()
    # embedding a pole fills one entry, not the whole table
    t.emb(1, t.emb(0, 1))
    assert len(t._emb1) == 1 and t._up1 is None


def test_towers_keep_their_own_tables():
    t3 = Tower(flat_base())
    t4 = Tower(flat_base(("sR1", "sL1", "s2")))
    for t in (t3, t4):
        t.stage2_probes()
        t.leq(1, t.bottom(1), t.stage1[-1])
    assert t3._emb1 is not t4._emb1 and t3._up1 is not t4._up1
    assert len(t3._emb1) == len(t3._up1) == 11 and len(t4._emb1) == len(t4._up1) == 67
    assert len(t3.stage2_probes()) == 11 and len(t4.stage2_probes()) == 67
    for t in (t3, t4):
        n = len(t.base)
        for g in t.stage1:
            assert t.emb(1, g) == tuple((g[u[0]],) * n for u in t.stage1)
        for a in t.stage1:
            for b in t.stage1:
                assert t.leq(1, a, b) == all(_flat_leq(x, y) for x, y in zip(a, b))
            assert t._up1[a] == {b for b in t.stage1 if t.leq(1, a, b)}


POLES = {3: ("sR1", "sL1"), 4: ("sR1", "sL1", "s2")}


# sha256 of repr(step_join_sample(tower, random.Random(seed), 200)), pinned
# when the sampler moved from the CLI into domains: the same rng draws and
# the same joins in the same order
STEP_JOIN_PINS = {
    (3, 0): "a7de0055a1a8692287ea7b356471368b5dc3cf4da20077a76365590fae078409",
    (3, 1): "db86a80e5f319e54ebf71c0b8682cad930d82bb2318b0d43796e29e8cc667591",
    (3, 2): "bf2450bb816f132644c7ef953794a9c5eb92558730ff65118f2350b7027ab450",
    (4, 0): "aa6045cfeb7b27bff8f7378224ce7b020ea24a8e4b8512bbb5eaf37d1370f5d4",
    (4, 1): "f132c23ca478252a1b91a9e8526261b885a6e66d95e59da9adef2cfd91bdbb0e",
    (4, 2): "7be45a74e0f9b04046121a2ce1993a213ede7c9aa01d4d747b0fa23e3a3bccf7",
}


@pytest.mark.parametrize("base_size", [3, 4])
def test_step_join_sample_pinned(base_size):
    t = Tower(flat_base(POLES[base_size]))
    for seed in (0, 1, 2):
        sample = step_join_sample(t, random.Random(seed), 200)
        digest = hashlib.sha256(repr(sample).encode()).hexdigest()
        assert len(sample) == 200 and digest == STEP_JOIN_PINS[base_size, seed]


@pytest.mark.parametrize("base_size", [3, 4])
def test_proj1_reads_constant_map_indices(base_size):
    t = Tower(flat_base(POLES[base_size]))
    n = len(t.base)
    assert t._const1 == tuple(t.stage1.index((x,) * n) for x in range(n))
    sample = step_join_sample(t, random.Random(base_size), 100)
    assert len(sample) == 100
    for u in sample + [t.bottom(2)] + [t.emb(1, g) for g in t.stage1]:
        reference = tuple(t.proj(0, t.apply(2, u, t.emb(0, x))) for x in range(n))
        assert t.proj(1, u) == reference


@pytest.mark.parametrize("base_size", [3, 4])
def test_leq_shortcut_agrees_with_pointwise_order(base_size, rng):
    t = Tower(flat_base(POLES[base_size]))

    def below(a, b):  # stage 2, pointwise over the flat base
        return all(_flat_leq(x, y) for f, g in zip(a, b) for x, y in zip(f, g))

    tables = [t.emb(1, g) for g in t.stage1] + step_join_sample(t, rng, 30)
    for a in tables:
        assert t.leq(2, a, a) and t.leq(2, a, tuple(list(a)))  # same and equal
        for b in rng.sample(tables, 10):
            assert t.leq(2, a, b) == below(a, b)
    for g in t.stage1:
        assert t.leq(1, g, g) and t.leq(1, g, tuple(list(g)))


def test_make_mono_rejects_entries_outside_the_stage(tower):
    # a constant table is monotone by leq's reflexive shortcut whatever its
    # entry, so membership in the stage is checked first
    for entry in (-1, 3):
        with pytest.raises(ValueError, match="not a stage-0 element"):
            tower.make_mono(0, (entry,) * 3)
    outside = (SR1, BOT, BOT)  # not monotone, so not a stage-1 element
    with pytest.raises(ValueError, match="not a stage-1 element"):
        tower.make_mono(1, (outside,) * 11)
    with pytest.raises(ValueError, match="not a stage-1 element"):
        tower.make_mono(1, (tower.stage1[0],) * 10 + ((0, 0, 7),))
    const = tower.make_mono(1, (tower.stage1[4],) * 11)
    assert const.table == (tower.stage1[4],) * 11


def _stage3_maps(t):
    """Fresh stage-3 maps: emb(2, .) of some stage-2 tables, and the identity
    of stage 2, which has no construction key."""
    ws = [t.bottom(2)] + [t.emb(1, g) for g in t.stage1[::7]]
    return [t.emb(2, w) for w in ws] + [LazyMono(lambda w: w)]


@pytest.mark.parametrize("base_size", [3, 4])
def test_apply3_at_probes_out_of_order(base_size):
    # apply(3, u, w) at probe i fills u.probed up to i, so probes read in any
    # order give u.fn(w), and the vector stays the prefix at_probes reads
    t = Tower(flat_base(POLES[base_size]))
    probes = t.stage2_probes()
    order = list(range(len(probes)))
    random.Random(base_size).shuffle(order)
    for u in _stage3_maps(t):
        ref = [u.fn(w) for w in probes]
        top = -1
        for i in order:
            assert t.apply(3, u, probes[i]) == ref[i]
            top = max(top, i)
            assert u.probed == ref[:top + 1]
        assert list(t.at_probes(u)) == ref and u.memo == {}


@pytest.mark.parametrize("base_size", [3, 4])
def test_apply3_off_the_probes_uses_the_memo(base_size, rng):
    # a table equal to a probe but not that object, and a step join, are not
    # probes: apply(3, ...) evaluates them through the memo
    t = Tower(flat_base(POLES[base_size]))
    probes = t.stage2_probes()
    joins = step_join_sample(t, rng, 10)
    for u in _stage3_maps(t):
        for i, w in enumerate(probes):
            copy = tuple(list(w))
            assert copy is not w and t.probe_position(copy) is None
            assert t.probe_position(w) == i
            assert t.apply(3, u, copy) == t.apply(3, u, w) == u.fn(w)
        for j in joins:
            assert t.probe_position(j) is None
            assert t.apply(3, u, j) == u.fn(j)
        assert len(u.memo) == len(set(probes + tuple(joins)))


@pytest.mark.parametrize("base_size", [3, 4])
def test_probes_are_the_embedded_stage1(base_size):
    # one probe per stage-1 element, in stage-1 order, and no two equal:
    # bottom(2) is e_1(bottom(1)), the first of them, and not a probe again
    t = Tower(flat_base(POLES[base_size]))
    probes = t.stage2_probes()
    assert list(probes) == [t.emb(1, g) for g in t.stage1]
    assert len(set(probes)) == len(probes) == len(t.stage1)
    assert t.bottom(2) == probes[0]


def test_suite_maps_at_bottom2_are_read_at_the_first_probe(monkeypatch):
    # nothing was lost with the separate bottom(2) probe: every stage-3 map
    # a base-3 law suite builds has its value at bottom(2) at probe 0
    maps = []
    init = LazyMono.__init__

    def recording_init(self, fn, key=None):
        init(self, fn, key)
        maps.append(self)

    monkeypatch.setattr(LazyMono, "__init__", recording_init)
    t = Tower(flat_base())
    assert verify_laws(t, depth=3)["ok"]
    monkeypatch.undo()
    assert maps
    for u in maps:
        assert u.fn(t.bottom(2)) == next(iter(t.at_probes(u)))


def test_tabulate_builds_each_stage(tower):
    # stages 1 and 2 are tables over the enumerated domain; stage 3 is a map
    # that evaluates nothing when it is built, and then once per probe
    assert tower.tabulate(0, lambda x: x) == tuple(range(len(tower.base)))
    assert tower.tabulate(1, lambda g: g) == tower.stage1
    log = []
    u = tower.tabulate(2, lambda w: log.append(w) or w)
    assert isinstance(u, LazyMono) and log == [] and u.probed == [] and u.memo == {}
    probes = tower.stage2_probes()
    assert [tower.apply(3, u, w) for w in probes] == list(probes) == log
    assert tower.eq(3, u, tower.tabulate(2, lambda w: w)) and tower.leq(3, u, u)
    with pytest.raises(CapExceeded):
        tower.tabulate(3, lambda u: u)
    for compare in (tower.leq, tower.eq):
        with pytest.raises(CapExceeded, match="above stage 3"):
            compare(4, u, u)
