import hashlib
import itertools
import random
import time
from collections import Counter
from functools import partial

import kref
import pytest
from kref import element

from lamtower import witness
from lamtower.domains import (CapExceeded, FinPoset, LazyMono, NotInStage,
                              Probe, Tower, check_projection_pair, flat_base,
                              flat_stage1_size, lub, step_join_sample, step_map)
from lamtower.kinfinity import (Constant, FromThread, Identity, Thread, _embed,
                                app, bottom_thread, check_law_budget, cut,
                                reify, stage_embed, thread_eq, thread_le,
                                thread_row, verify_laws)

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


def test_stage1_is_a_pointed_poset_at_base5_quickly():
    # FinPoset checks that the stage-1 order is reflexive, antisymmetric and
    # transitive, and that bottom(1) is below every element
    t = Tower(flat_base(("sR1", "sL1", "s2", "s3")))
    start = time.perf_counter()
    order = tuple(tuple(t.leq(1, a, b) for b in t.stage1) for a in t.stage1)
    poset = FinPoset(tuple(map(str, t.stage1_tables)), order, t.bottom(1))
    assert time.perf_counter() - start < 1.0
    assert len(poset) == 629 and poset.bottom == element(t, (0,) * 5)


def test_stage1_matches_brute_force(tower):
    # the reference enumerates all 27 tables and keeps the monotone ones; a
    # stage-1 element is its position among them
    assert kref.Ref(tower.base).d1 == tower.stage1_tables and len(tower.stage1) == 11
    assert tower.stage1 == tuple(range(11))


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


def test_projection_pair_report_lists_stage1_elements_as_tables(tower, monkeypatch):
    # a faulty proj that sends everything to sR1's element: stage-1 failures
    # show as their tables, stage-2 ones as tuples of tables
    sr1 = tower.emb(0, SR1)
    monkeypatch.setattr(tower, "proj", lambda n, u: sr1 if n else SR1)
    not_sr1 = [t for t in kref.Ref(tower.base).d1 if t != (SR1, SR1, SR1)]
    rep = check_projection_pair(tower, 0)
    assert rep["retract_failures"] == [BOT, SL1]
    assert rep["section_failures"] == not_sr1
    rep = check_projection_pair(tower, 1, [tower.bottom(2)])
    assert rep["retract_failures"] == not_sr1
    assert rep["section_failures"] == [((BOT, BOT, BOT),) * 11]


def test_a_table_that_is_not_monotone_has_no_position(tower):
    # bot to sR1 and sR1 to bot, as a tabulation and as a projection
    with pytest.raises(NotInStage, match=r"^table \(1, 0, 0\) is not a stage-1 element$"):
        tower.tabulate(0, (SR1, BOT, BOT).__getitem__)
    u = [tower.bottom(1)] * len(tower.stage1)
    u[tower.emb(0, BOT)] = tower.emb(0, SR1)
    with pytest.raises(NotInStage, match=r"^table \(1, 0, 0\) is not"):
        tower.proj(1, tuple(u))
    assert issubclass(NotInStage, ValueError)


def test_lub_examples(tower):
    assert lub(tower, 0, [BOT]) == BOT
    assert lub(tower, 0, [SR1, SL1]) is None
    assert lub(tower, 0, [BOT, SL1]) == SL1
    f = element(tower, (0, 1, 0))
    g = element(tower, (0, 1, 2))
    assert lub(tower, 1, [f, g]) == g  # comparable pair: the larger
    assert lub(tower, 1, [element(tower, (1, 1, 1)), element(tower, (2, 2, 2))]) is None


def _exact_joins(t):
    """Whether the join of every two stage-1 elements is the reference's,
    the element whose up-set is the meet of theirs."""
    join, T = kref.Ref(t.base).join(1), kref.Tabled(t)
    return all(T.of(1, lub(t, 1, [x, y])) == join([T.of(1, x), T.of(1, y)])
               for x in t.stage1 for y in t.stage1)


def test_lub_agrees_with_brute_force(tower, mismatches):
    # every operation against the reference (kref.diff) at base sizes 3 and
    # 4, joins among them: of every pair below stage 2, and of every pair of
    # stage-2 step maps at base 3 and 400 seeded pairs at base 4
    assert mismatches(tower.base) == mismatches(flat_base(POLES[4])) == []


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
def test_lub_on_non_flat_bases_agrees_with_brute_force(base, stage1_size, mismatches):
    # both bases are lattices, so every pair has a join at stages 0 and 1
    t = Tower(base)
    assert len(t.stage1) == stage1_size and mismatches(base) == []
    for level, elems in ((0, range(len(base))), (1, t.stage1)):
        assert all(lub(t, level, [x, y]) is not None for x in elems for y in elems)


# the flat base with its bottom listed last, so that stage-1 position 0 is
# the constant map at a pole, not bottom(1)
BOTTOM_LAST = FinPoset(("sR1", "sL1", "bot"), _order(3, {(0, 0), (1, 1), (2, 0), (2, 1), (2, 2)}), 2)


def test_a_base_whose_bottom_is_not_its_first_element(mismatches):
    t = Tower(BOTTOM_LAST)
    assert t.bottom(1) == element(t, (2, 2, 2)) != 0 and mismatches(BOTTOM_LAST) == []
    report = verify_laws(t, depth=3)
    assert report["ok"] and [c["checked"] for c in report["checks"]] == [154, 12, 70, 11]


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


# ⊥ < a, b < c, d, listed (bot, c, d, a, b): a and b have two minimal upper
# bounds, so no join, and stage 1 has joins no pointwise join finds
TWO_TOPS = _poset(("bot", "c", "d", "a", "b"), [(3, 1), (3, 2), (4, 1), (4, 2)])


def test_pointed_posets_up_to_isomorphism():
    # 1, 1, 2, 5 pointed posets with 1..4 elements (posets with 0..3)
    sizes = [len(b) for b in _pointed_posets(4)]
    assert [sizes.count(n) for n in (1, 2, 3, 4)] == [1, 1, 2, 5]


def _up_set_sizes(base):
    """A test id: the up-set size of each element, bottom first."""
    return "-".join(map(str, map(sum, base.leq)))


SMALL_BASES = _pointed_posets(4) + [TWO_TOPS]


@pytest.mark.parametrize("base", SMALL_BASES, ids=_up_set_sizes)
def test_lub_on_small_pointed_posets_agrees_with_brute_force(base, mismatches):
    # every operation against the reference (kref.diff), and every stage-1
    # join the reference's
    assert mismatches(base) == [] and _exact_joins(Tower(base))


# the checked counts of the four laws on each of SMALL_BASES
SMALL_BASE_LAW_COUNTS = [
    [2, 2, 6, 1], [15, 4, 25, 3], [154, 12, 70, 11], [130, 11, 65, 10],
    [4757, 68, 355, 67], [1760, 41, 220, 40], [1760, 41, 220, 40],
    [1440, 37, 200, 36], [1365, 36, 195, 35], [18354, 134, 690, 133]]


@pytest.mark.parametrize("base, counts", zip(SMALL_BASES, SMALL_BASE_LAW_COUNTS),
                         ids=map(_up_set_sizes, SMALL_BASES))
def test_laws_and_projection_pairs_on_small_pointed_posets(base, counts):
    t = Tower(base)
    report = verify_laws(t, depth=3)
    assert report["ok"], report
    assert [c["checked"] for c in report["checks"]] == counts
    sample = step_join_sample(t, random.Random(0), 20)
    for n in (0, 1):
        pp = check_projection_pair(t, n, sample if n == 1 else ())
        assert pp["ok"], pp


# the 16 pointed posets with exactly 5 elements, with their stage-1 sizes;
# the flat one (629) is the base of `kinfty check --base-size 5`
FIVE_ELEMENT_BASES = [b for b in _pointed_posets(5) if len(b) == 5]
FIVE_ELEMENT_STAGE1_SIZES = [629, 265, 221, 262, 167, 155, 141, 135, 154, 133,
                             147, 178, 136, 133, 133, 126]
FIVE_ELEMENT_IDS = [f"{_up_set_sizes(b)}-s{s}"
                    for b, s in zip(FIVE_ELEMENT_BASES, FIVE_ELEMENT_STAGE1_SIZES)]


@pytest.mark.parametrize("base", FIVE_ELEMENT_BASES, ids=FIVE_ELEMENT_IDS)
def test_lub_on_five_element_pointed_posets_agrees_with_brute_force(base):
    # every stage-1 join the reference's
    assert _exact_joins(Tower(base))


@pytest.mark.parametrize("base, s", zip(FIVE_ELEMENT_BASES[1:], FIVE_ELEMENT_STAGE1_SIZES[1:]),
                         ids=FIVE_ELEMENT_IDS[1:])
def test_laws_and_projection_pairs_on_non_flat_five_element_posets(base, s):
    # s stage-1 elements; the flat base is pinned by the stdout of
    # `kinfty check --base-size 5` instead
    test_laws_and_projection_pairs_on_small_pointed_posets(
        base, [s * (5 + s), s + 1, 5 * (5 + s), s])


@pytest.mark.parametrize("base", [flat_base(), TWO_TOPS], ids=["flat3", "two-tops"])
def test_a_probe_shares_its_stage1_points_thread(base):
    # p_1 e_1 = id: probe i = e_1(g) gets g's thread of the stage-1 row, and
    # it equals the probe's own embedding coordinatewise
    t = Tower(base)
    for depth in (2, 3):
        row = thread_row(t, 1, depth)
        for i, probe in enumerate(t.stage2_probes()):
            shared = stage_embed(t, 2, probe, depth)
            assert shared is row[i] and shared.coords[2] is probe
            assert thread_eq(shared, _embed(t, 2, probe, depth))


def test_stage1_join_where_no_pointwise_join_exists():
    t = Tower(TWO_TOPS)
    assert lub(t, 0, [3, 4]) is None
    f, g = element(t, (0, 1, 1, 0, 3)), element(t, (0, 1, 1, 0, 4))
    assert lub(t, 1, [f, g]) == element(t, (0, 1, 1, 0, 1))
    # no upper bound at all: a constant at c and a constant at d
    assert lub(t, 1, [element(t, (1,) * 5), element(t, (2,) * 5)]) is None


def test_step_map_examples(tower):
    assert step_map(tower, 0, BOT, SL1) == element(tower, (SL1, SL1, SL1))
    assert step_map(tower, 0, SR1, SL1) == element(tower, (BOT, SL1, BOT))


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
    assert len(kref.Ref(t.base).d1) == len(t.stage1) == 67


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
    assert t._thread_rows == {} and t._least[1] == {}
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


POLES = {3: ("sR1", "sL1"), 4: ("sR1", "sL1", "s2")}


# sha256 of repr(step_join_sample(tower, random.Random(seed), 200)) with
# each join's stage-1 slots written as tables, pinned when the sampler moved
# from the CLI into domains: the same rng draws and the same joins in the
# same order
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
        sample = kref.Tabled(t).step_join_sample(random.Random(seed), 200)
        digest = hashlib.sha256(repr(sample).encode()).hexdigest()
        assert len(sample) == 200 and digest == STEP_JOIN_PINS[base_size, seed]


@pytest.mark.parametrize("base_size", [3, 4])
def test_apply3_at_probes_out_of_order(base_size):
    # apply(3, u, w) at any probe fills u.probed whole, so probes read in
    # any order give u.fn(w), and at_probes returns that vector
    t = Tower(flat_base(POLES[base_size]))
    probes = t.stage2_probes()
    order = list(range(len(probes)))
    random.Random(base_size).shuffle(order)
    # keyed maps, and the identity of stage 2, which has no key
    for u in [t.emb(2, w) for w in (t.bottom(2), probes[-1])] + [LazyMono(lambda w: w)]:
        ref = [u.fn(w) for w in probes]
        for i in order:
            assert t.apply(3, u, probes[i]) == ref[i]
            assert u.probed == ref
        assert t.at_probes(u) is u.probed and u.memo == {}


@pytest.mark.parametrize("base_size", [3, 4])
def test_apply3_off_the_probes_uses_the_memo(base_size, rng):
    # a table equal to a probe but not that object, and a step join, are not
    # probes: apply(3, ...) evaluates them through the memo
    t = Tower(flat_base(POLES[base_size]))
    probes = t.stage2_probes()
    joins = step_join_sample(t, rng, 10)
    for u in [t.emb(2, w) for w in (t.bottom(2), probes[-1])] + [LazyMono(lambda w: w)]:
        for i, w in enumerate(probes):
            copy = tuple(list(w))
            assert copy is not w and type(copy) is not Probe
            assert type(w) is Probe and w.pos == i
            assert t.apply(3, u, copy) == t.apply(3, u, w) == u.fn(w)
        for j in joins:
            assert type(j) is not Probe
            assert t.apply(3, u, j) == u.fn(j)
        assert len(u.memo) == len(set(probes + tuple(joins)))


@pytest.mark.parametrize("base_size", [3, 4])
def test_keyed_stage3_maps_compare_as_their_keys(base_size):
    # leq(3) of two emb(2, .) maps is leq(2) of their keys; the probe-by-probe
    # answer, on fresh maps, must be the same: probes, bottom(2), a plain copy
    # of a probe, and step joins
    t = Tower(flat_base(POLES[base_size]))
    probes = t.stage2_probes()
    keys = list(probes[::5]) + [t.bottom(2), tuple(probes[-1])]
    keys += step_join_sample(t, random.Random(base_size), 10)
    below = 0
    for x, y in itertools.product(keys, repeat=2):
        a, b = t.emb(2, x), t.emb(2, y)
        pointwise = all(map(partial(t.leq, 2), t.at_probes(t.emb(2, x)),
                            t.at_probes(t.emb(2, y))))
        assert t.leq(3, a, b) == pointwise == t.leq(2, x, y)
        assert a.probed == b.probed == []  # decided without reading a probe
        below += pointwise
    assert (len(keys), below) == {3: (15, 58), 4: (26, 80)}[base_size]


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
        assert u.fn(t.bottom(2)) == t.at_probes(u)[0]


def test_tabulate_builds_each_stage(tower):
    # a stage-1 element is the position of its table, a stage-2 one a table
    # over stage 1 (stage 2 has no enumeration); stage 3 is a map
    # that evaluates nothing when it is built, and then once per probe
    assert tower.tabulate(0, lambda x: x) == element(tower, range(len(tower.base)))
    assert tower.tabulate(1, lambda g: g) == tower.stage1
    log = []
    u = tower.tabulate(2, lambda w: log.append(w) or w)
    assert isinstance(u, LazyMono) and log == [] and u.probed == [] and u.memo == {}
    probes = tower.stage2_probes()
    assert [tower.apply(3, u, w) for w in probes] == list(probes) == log
    assert tower.eq(3, u, tower.tabulate(2, lambda w: w)) and tower.leq(3, u, u)
    with pytest.raises(CapExceeded):
        tower.tabulate(3, lambda u: u)
    with pytest.raises(CapExceeded, match="stage 2 has no global enumeration"):
        tower.domain(2)
    for compare in (tower.leq, tower.eq):
        with pytest.raises(CapExceeded, match="above stage 3"):
            compare(4, u, u)


# -- naturality in the base ----------------------------------------------------

NATURALITY_BASES = _pointed_posets(4) + [flat_base(("sR1", "sL1", "s2", "s3")), TWO_TOPS,
                                         BOTTOM_LAST]


@pytest.mark.parametrize("base", NATURALITY_BASES, ids=_up_set_sizes)
def test_base_automorphisms_commute_with_the_tower(base):
    # each order automorphism sigma of the base, lifted to the stages
    # (kref.Ref.lift), commutes with emb and proj at stages 0 and 1, with
    # apply at stage 1 and with the stage-1 order and joins, sends the probe
    # e_1(g) to e_1(sigma g) and permutes the probe vectors of emb(2, .)
    # maps; past 70 stage-1 elements the order, the joins and stage 2 are
    # read at 24 seeded ones, so no position or pole is special
    ref, T = kref.Ref(base), kref.Tabled(Tower(base))
    d0, d1, probes = ref.d0, ref.d1, T.stage2_probes()
    some = d1 if len(d1) <= 70 else random.Random(0).sample(d1, 24)
    ws = [probes[ref.index[g]] for g in some]
    stage2 = ws + [T.step_map(1, f, g) for f, g in zip(some, some[1:])]
    stage2 += [tuple(list(w)) for w in ws[:3]] + T.step_join_sample(random.Random(0), 5)
    maps = {w: T.emb(2, w) for w in (ws[0], ws[-1], stage2[len(ws)], stage2[-1])}
    for sigma in kref.automorphisms(base):
        act = ref.lift(sigma)
        for x in d0:
            assert act(1, T.emb(0, x)) == T.emb(0, act(0, x))
        for f in d1:
            assert act(0, T.proj(0, f)) == T.proj(0, act(1, f))
            for x in d0:
                assert act(0, T.apply(1, f, x)) == T.apply(1, act(1, f), act(0, x))
        for f in some:
            moved = probes[ref.index[act(1, f)]]
            assert act(2, T.emb(1, f)) == T.emb(1, act(1, f)) == moved
            for g in some:
                assert T.leq(1, f, g) == T.leq(1, act(1, f), act(1, g))
                j = T.lub(1, [f, g])
                assert (None if j is None else act(1, j)) == T.lub(1, [act(1, f), act(1, g)])
        for u in stage2:
            assert act(1, T.proj(1, u)) == T.proj(1, act(2, u))
        for w, u in maps.items():
            v = T.emb(2, act(2, w))
            for g in some:
                moved = probes[ref.index[act(1, g)]]
                assert T.apply(3, v, moved) == act(2, T.apply(3, u, probes[ref.index[g]]))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_the_pole_swap_takes_the_beta_point_to_the_eta_point(depth):
    # swapping sR1 and sL1 is an automorphism of the flat base, and its lift
    # takes the beta class's point to the eta class's coordinate by
    # coordinate (the stage-3 one on the probes): the classes are told apart
    # only by the fixed interpretation, which sends each to its pole
    tower = witness.default_tower()
    ref, T = kref.Ref(tower.base), kref.Tabled(tower)
    swap = tuple(map(tower.base.labels.index, ("bot", "sL1", "sR1")))
    assert swap in kref.automorphisms(tower.base)
    act, probes = ref.lift(swap), T.stage2_probes()
    beta, eta = (T.coords(witness.interpret(w, depth, tower).point)
                 for w in (witness.TBeta(), witness.TEta()))
    for n in range(min(depth, 2) + 1):
        assert beta[n] != eta[n] and act(n, beta[n]) == eta[n]
    if depth == 3:
        moved = act(3, partial(T.apply, 3, beta[3]))
        assert [moved(w) for w in probes] == [T.apply(3, eta[3], w) for w in probes]


@pytest.mark.parametrize("base", NATURALITY_BASES, ids=_up_set_sizes)
def test_base_automorphisms_commute_with_the_thread_operations(base):
    # each automorphism sigma, lifted to threads coordinate by coordinate
    # (kref.tower_lift, which agrees with kref.Ref.lift on stage 2; a
    # stage-3 coordinate is read on the probes, which sigma permutes, so
    # sigma(x) at e_1(sigma g) is sigma of x at e_1(g)), commutes with
    # stage_embed at stages 0-2 and with app and reify(FromThread(x)) at
    # depths 1-3; stage 1, the probes and the probe reads are sampled at 3
    # seeded stage-1 elements, so no position or pole is special.  app takes
    # x embedded from those and, as an embedded stage-1 point reads only p_0
    # of its argument, from the identity of stage 2 (which reads every
    # stage-1 point as it is), a step map and a step join; reify takes the
    # first stage-1 point and the identity, each reification made once
    t = Tower(base)
    ref, T, probes = kref.Ref(base), kref.Tabled(t), t.stage2_probes()
    some = random.Random(0).sample(t.stage1, min(3, len(t.stage1)))
    ws = [probes[g] for g in some]
    spread = [t.tabulate(1, lambda g: g), step_map(t, 1, some[0], some[-1])]
    spread += step_join_sample(t, random.Random(0), 1)
    points = [range(len(base)), some, ws + [tuple(ws[-1])] + spread]
    reified: dict = {}

    def reified_at(n, u, d):
        if (n, u, d) not in reified:
            reified[n, u, d] = reify(FromThread(stage_embed(t, n, u, d)), d, t)
        return reified[n, u, d]

    for sigma in kref.automorphisms(base):
        act, ref_act = kref.tower_lift(ref, t, sigma), ref.lift(sigma)
        for u in points[2]:
            assert T.of(2, act(2, u)) == ref_act(2, T.of(2, u))

        def commute(x, y):  # y is sigma(x)
            assert list(map(act, range(3), x.coords[:3])) == list(y.coords[:3])
            for g in some if x.depth == 3 else ():
                assert act(2, t.apply(3, x.coords[3], probes[g])) == \
                    t.apply(3, y.coords[3], probes[act(1, g)])

        for d in (1, 2, 3):
            def embed(n, u):
                return stage_embed(t, n, u, d), stage_embed(t, n, act(n, u), d)
            pairs = [embed(n, u) for n in range(min(d, 2) + 1) for u in points[n]]
            for x, sx in pairs:
                commute(x, sx)
            for x, sx in [embed(1, g) for g in some] + [embed(2, u) for u in spread if d > 1]:
                for y, sy in pairs:
                    commute(app(x, y), app(sx, sy))
            for n, u in [(1, some[0])] + [(2, spread[0])] * (d > 1):
                commute(reified_at(n, u, d), reified_at(n, act(n, u), d))


@pytest.mark.parametrize("base", [b for b in NATURALITY_BASES if len(b) in (2, 3)],
                         ids=_up_set_sizes)
def test_verify_laws_reports_the_same_on_conjugate_sample_threads(base):
    # sigma(x) is built coordinate by coordinate (kref.lift_thread), its
    # stage-3 coordinate a map evaluated on demand; the samples are reified
    # threads and an incoherent one, as in the pinned law reports
    t = Tower(base)
    top = stage_embed(t, 1, t.stage1[-1], 3)
    bad = Thread(t, ((top.coords[0] + 1) % len(base),) + top.coords[1:], check=False)
    xs = [reify(Identity(), 3, t), reify(Constant(top), 3, t), reify(FromThread(top), 3, t), bad]
    report = verify_laws(t, 3, sample_threads=xs)
    assert not report["ok"] and report["checks"][-1]["checked"] == len(t.stage1) + 4
    ref = kref.Ref(base)
    for sigma in kref.automorphisms(base):
        lift = kref.lift_thread(ref, t, sigma)
        assert verify_laws(t, 3, sample_threads=list(map(lift, xs))) == report


# -- the truncations form an inverse system: cut laws between depths ---------

def _first_difference(t, x, y):
    """The first stage at which threads x and y of one depth differ, or None."""
    return next((n for n in range(x.depth + 1)
                 if not t.eq(n, x.coords[n], y.coords[n])), None)


def _cut_endomap(g, d):
    """g with its value or point cut to depth d."""
    if isinstance(g, Constant):
        return Constant(cut(g.value, d))
    if isinstance(g, FromThread):
        return FromThread(cut(g.point, d))
    return g


def _cut_laws(t, pick):
    """The cut laws from depth D to d = D - 1, for D 3 and 2, on tower t;
    the failures, each with the first stage where its two sides differ, and
    the cases checked per law.

    The threads at depth D are every base point, the stage-1 elements
    `pick` and four step joins, embedded, and the reifications of Identity,
    Constant(bottom) and FromThread of the first three picked points.
    - stage_embed: cut_d(e_n(u)) = e_n(u) at depth d, or e_d(p_d(u)) when
      n = D;
    - reify: cut_d(reify(g)) = reify(cut_d(g)), g's point or value cut;
    - app: app(cut_d(x), cut_d(y)) <= cut_d(app(x, y)), with equality when
      x's top coordinate is e_d of its stage-d one: every thread here but
      the identity's reification and, at D = 2, the embedded joins.  Depth
      d applies x_d to y_(d-1) = p(y_d) and embeds, depth D applies x_D to
      y_d, and e_d p_d is below the identity;
    - the cut is monotone for thread_le and preserves thread_eq.
    "app_equal" counts the app pairs whose two sides are equal.
    """
    failures, counts = [], Counter()
    joins = step_join_sample(t, random.Random(0), 4)
    for D in (3, 2):
        d = D - 1
        keys = [(0, x) for x in range(len(t.base))] + [(1, g) for g in pick]
        keys += [(2, w) for w in joins]
        threads = [stage_embed(t, n, u, D) for n, u in keys]
        exact = [n <= d for n, _ in keys]
        for (n, u), x in zip(keys, threads):
            low = stage_embed(t, n, u, d) if n <= d else stage_embed(t, d, t.proj(d, u), d)
            counts["stage_embed"] += 1
            if (diff := _first_difference(t, cut(x, d), low)) is not None:
                failures.append(("stage_embed", D, n, u, diff))
        gs = [Identity(), Constant(bottom_thread(t, D))]
        gs += [FromThread(x) for (n, _), x in zip(keys, threads) if n == 1][:3]
        for g in gs:
            r, low = reify(g, D, t), reify(_cut_endomap(g, d), d, t)
            counts["reify"] += 1
            if (diff := _first_difference(t, cut(r, d), low)) is not None:
                failures.append(("reify", D, type(g).__name__, diff))
            threads.append(r)
            exact.append(type(g) is not Identity)
        cuts = [cut(x, d) for x in threads]
        for i, (x, cx) in enumerate(zip(threads, cuts)):
            for j, (y, cy) in enumerate(zip(threads, cuts)):
                low, high = app(cx, cy), cut(app(x, y), d)
                counts["app"] += 1
                diff = _first_difference(t, low, high)
                counts["app_equal"] += diff is None
                if not thread_le(low, high) or (exact[i] and diff is not None):
                    failures.append(("app", D, i, j, diff))
                if thread_le(x, y):
                    counts["le"] += 1
                    if not thread_le(cx, cy):
                        failures.append(("le", D, i, j))
                if thread_eq(x, y):
                    counts["eq"] += 1
                    if not thread_eq(cx, cy):
                        failures.append(("eq", D, i, j))
    return failures, dict(counts)


def _cut_pick(t):
    """Every stage-1 element of a base with at most 4 elements, else 16
    seeded ones, as kref.diff reads them."""
    s = len(t.stage1)
    return range(s) if len(t.base) <= 4 else sorted(random.Random(0).sample(range(s), 16))


# the cases of each cut law on each of SMALL_BASES: stage_embed, reify, app,
# app pairs that are equal (not only below), le pairs and eq pairs
SMALL_BASE_CUT_COUNTS = [
    (6, 6, 72, 72, 72, 72), (18, 10, 392, 365, 234, 96),
    (36, 10, 1058, 1021, 308, 86), (34, 10, 968, 905, 404, 84),
    (150, 10, 12800, 12690, 1410, 204), (96, 10, 5618, 5504, 1170, 150),
    (96, 10, 5618, 5526, 1368, 150), (88, 10, 4802, 4710, 1422, 142),
    (86, 10, 4608, 4503, 1654, 140), (50, 10, 1800, 1751, 328, 76)]
CUT_LAWS = ("stage_embed", "reify", "app", "app_equal", "le", "eq")


@pytest.mark.parametrize("base, counts", zip(SMALL_BASES, SMALL_BASE_CUT_COUNTS),
                         ids=map(_up_set_sizes, SMALL_BASES))
def test_cut_laws_on_small_pointed_posets(base, counts):
    t = Tower(base)
    assert _cut_laws(t, _cut_pick(t)) == ([], dict(zip(CUT_LAWS, counts)))


def test_cut_laws_on_a_sample_of_the_flat_base5():
    t = Tower(flat_base(("sR1", "sL1", "s2", "s3")))
    assert _cut_laws(t, _cut_pick(t)) == (
        [], dict(zip(CUT_LAWS, (50, 10, 1800, 1766, 192, 76))))


def test_a_wrong_stage3_application_fails_the_cut_laws(monkeypatch):
    # apply(3, u, w) gives the bottom probe at the last probe, for every u.
    # Only depth 3 applies a stage-3 coordinate, so the laws from depth 3
    # fail: app, and reify of FromThread, whose restrictions apply at depth
    # 3 but read the cut point at depth 2
    apply = Tower.apply

    def wrong(self, level, f, x):
        if level == 3 and x is self.stage2_probes()[-1]:
            return self.emb(1, self.bottom(1))
        return apply(self, level, f, x)
    t = Tower(flat_base())
    monkeypatch.setattr(Tower, "apply", wrong)
    failures, _ = _cut_laws(t, _cut_pick(t))
    assert len(failures) == 28
    assert {(law, depth) for law, depth, *_ in failures} == {("app", 3), ("reify", 3)}
