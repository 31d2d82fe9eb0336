import json

import pytest
from lamtower.cli import main
from lamtower.domains import CapExceeded, Tower, flat_base
from lamtower.kinfinity import (Constant, DepthTooSmall, FromThread, Identity,
                                Tabulated, Thread, _top_eq, _top_le, app,
                                app_shadow,
                                bottom_thread, coherent, reify, restrict,
                                stage_embed, thread_eq, thread_le, verify_laws)

BOT, SR1, SL1 = 0, 1, 2
ID1 = (0, 1, 2)


def test_stage_embed_bottom(tower):
    t = bottom_thread(tower, 2)
    assert t.coords[0] == BOT
    assert t.coords[1] == (BOT, BOT, BOT)
    assert coherent(t)


def test_stage_embed_pole_coords(tower):
    t = stage_embed(tower, 0, SR1, 2)
    const = (SR1, SR1, SR1)
    assert t.coords[0] == SR1
    assert t.coords[1] == const
    assert t.coords[2] == tower.emb(1, const)
    assert coherent(t)


def test_stage_embed_compatible_with_emb(tower):
    # embedding from stage n+1 after f_n^+ equals embedding from stage n
    for x in range(3):
        via_0 = stage_embed(tower, 0, x, 2)
        via_1 = stage_embed(tower, 1, tower.emb(0, x), 2)
        assert thread_eq(via_0, via_1)


def test_stage_embed_depth_guard(tower):
    with pytest.raises(DepthTooSmall):
        stage_embed(tower, 3, None, 2)


def test_retract_coordinate(tower):
    for u in tower.stage1:
        t = stage_embed(tower, 1, u, 3)
        assert t.coords[1] == u


def test_app_shadow_identity(tower):
    x = stage_embed(tower, 1, ID1, 2)
    y = stage_embed(tower, 0, SR1, 2)
    assert thread_eq(app_shadow(0, x, y), stage_embed(tower, 0, SR1, 2))


def test_app_shadow_constant_bottom(tower):
    x = stage_embed(tower, 1, (BOT, BOT, BOT), 2)
    y = stage_embed(tower, 0, SL1, 2)
    assert thread_eq(app_shadow(0, x, y), bottom_thread(tower, 2))


def test_shadow_chain_monotone(tower, rng):
    for _ in range(20):
        u = rng.choice(tower.stage1)
        v = rng.choice(tower.stage1)
        x = stage_embed(tower, 1, u, 3)
        y = stage_embed(tower, 1, v, 3)
        shadows = [app_shadow(n, x, y) for n in range(3)]
        assert thread_le(shadows[0], shadows[1])
        assert thread_le(shadows[1], shadows[2])


def test_app_examples(tower):
    x = stage_embed(tower, 1, ID1, 3)
    y = stage_embed(tower, 0, SL1, 3)
    assert thread_eq(app(x, y), stage_embed(tower, 0, SL1, 3))
    assert thread_eq(app(bottom_thread(tower, 3), y), bottom_thread(tower, 3))


def test_stagewise_application_formula(tower):
    # pi_n(app(x, embed_n(y))) == pi_{n+1}(x)(y), exact, n in {0, 1}
    for u in tower.stage1:
        x = stage_embed(tower, 1, u, 3)
        for n in (0, 1):
            for y in tower.domain(n):
                lhs = app(x, stage_embed(tower, n, y, 3)).coords[n]
                rhs = tower.apply(n + 1, x.coords[n + 1], y)
                assert lhs == rhs


def test_restrict_identity_and_constant(tower):
    assert restrict(Identity(), 0, 3, tower) == (0, 1, 2)
    assert restrict(Identity(), 1, 3, tower) == tower.stage1
    bot = bottom_thread(tower, 3)
    assert restrict(Constant(bot), 0, 3, tower) == (BOT, BOT, BOT)
    assert restrict(Constant(bot), 1, 3, tower) == (tower.bottom(1),) * 11


def test_restrict_coherence(tower):
    # f_n^-(r_{n+1}(g)) == r_n(g) for n in {0, 1}
    x = stage_embed(tower, 1, (BOT, SR1, SL1), 3)
    for g in (Identity(), Constant(bottom_thread(tower, 3)), FromThread(x)):
        r0 = restrict(g, 0, 3, tower)
        r1 = restrict(g, 1, 3, tower)
        r2 = restrict(g, 2, 3, tower)
        assert tower.proj(1, r1) == r0
        assert tower.proj(2, r2) == r1


def test_reify_identity_coords(tower):
    t = reify(Identity(), 3, tower)
    assert t.coords[0] == BOT
    assert t.coords[1] == (0, 1, 2)
    assert t.coords[2] == tower.stage1  # the identity table on stage 1
    assert coherent(t)


def test_reify_retract_law(tower):
    for u in tower.stage1:
        x = stage_embed(tower, 1, u, 3)
        assert thread_eq(reify(FromThread(x), 3, tower), x)


def test_reify_constant_bottom(tower):
    t = reify(Constant(bottom_thread(tower, 3)), 3, tower)
    assert t.coords[0] == BOT
    assert thread_eq(t, bottom_thread(tower, 3))


def test_tabulated_endomap(tower):
    x = stage_embed(tower, 0, SR1, 3)
    y = stage_embed(tower, 0, SL1, 3)
    g = Tabulated([(x, y)])
    assert thread_eq(g.apply(x), y)
    with pytest.raises(ValueError):
        g.apply(y)


def test_incoherent_thread_rejected(tower):
    good = stage_embed(tower, 0, SR1, 2)
    bad_coords = (SL1,) + good.coords[1:]
    with pytest.raises(ValueError):
        Thread(tower, bad_coords)
    bad = Thread(tower, bad_coords, check=False)
    assert not coherent(bad)


def test_verify_laws_pass(tower):
    report = verify_laws(tower, depth=3)
    assert report["ok"]
    names = {c["name"] for c in report["checks"]}
    assert names == {"stagewise_application", "retract_reify_app",
                     "section_on_embedded_stages", "density_chain"}


def test_verify_laws_flags_corrupt_input(tower):
    good = stage_embed(tower, 0, SR1, 3)
    bad = Thread(tower, (SL1,) + good.coords[1:], check=False)
    report = verify_laws(tower, depth=3, sample_threads=[bad])
    density = next(c for c in report["checks"] if c["name"] == "density_chain")
    assert not density["pass"]
    assert density["detail"][0]["reason"] == "incoherent input"


def test_density_truncation_identity(tower):
    x = reify(Identity(), 3, tower)
    top = stage_embed(tower, 3, x.coords[3], 3)
    assert thread_eq(top, x)


def test_thread_returning_ops_stay_coherent(tower, rng):
    # post-hoc revalidation: every operation that returns a thread returns a
    # coherent one, including the paths that skip the constructor check
    for _ in range(15):
        u = rng.choice(tower.stage1)
        v = rng.choice(tower.stage1)
        x = stage_embed(tower, 1, u, 3)
        y = stage_embed(tower, 1, v, 3)
        assert coherent(x) and coherent(y)
        assert coherent(app(x, y))
        for n in range(3):
            assert coherent(app_shadow(n, x, y))
        assert coherent(reify(FromThread(x), 3, tower))


def _tower(base_size):
    extra = tuple(f"s{i}" for i in range(base_size - 3))
    return Tower(flat_base(("sR1", "sL1") + extra))


def test_verify_laws_base4_passes_every_law():
    report = verify_laws(_tower(4), depth=3)
    assert report["ok"] and all(c["pass"] for c in report["checks"])
    checked = {c["name"]: c["checked"] for c in report["checks"]}
    assert checked == {"stagewise_application": 4757, "retract_reify_app": 68,
                       "section_on_embedded_stages": 355, "density_chain": 67}


def test_verify_laws_repeat_matches_fresh_tower():
    used = _tower(4)
    first = verify_laws(used, depth=3)
    assert verify_laws(used, depth=3) == first == verify_laws(_tower(4), depth=3)


def test_verify_laws_base5_refused_before_tables():
    tower = _tower(5)
    with pytest.raises(CapExceeded, match="629 elements"):
        verify_laws(tower, depth=3)
    assert tower._emb1 == {} and tower._order1 is None and tower._probes is None


def test_cli_base5_refused(capsys):
    code = main(["kinfty", "check", "--base-size", "5"])
    out = capsys.readouterr().out
    assert code == 2
    assert "629 elements" in json.loads(out)["error"]


def _probe_maps(t):
    """Fresh stage-3 maps: emb(2, .) of some stage-2 tables and the stage-2
    restrictions of three endomaps."""
    maps = [t.emb(2, w) for w in [t.bottom(2)] + [t.emb(1, g) for g in t.stage1[::5]]]
    gs = (Identity(), Constant(bottom_thread(t, 3)),
          FromThread(stage_embed(t, 1, t.stage1[-1], 3)))
    return maps + [restrict(g, 2, 3, t) for g in gs]


def _below2(t, a, b):
    """Stage-2 order, pointwise over the base order, with no shortcut."""
    leq0 = t.base.leq
    return all(leq0[x][y] for f, g in zip(a, b) for x, y in zip(f, g))


@pytest.mark.parametrize("base_size", [3, 4])
def test_probe_vectors_match_probe_by_probe_reference(base_size):
    t = _tower(base_size)
    probes = t.stage2_probes()
    maps = _probe_maps(t)
    refs = [[u.fn(w) for w in probes] for u in maps]
    for a, ra in zip(maps, refs):
        for b, rb in zip(maps, refs):
            assert _top_eq(t, a, b) == (ra == rb)
            assert _top_le(t, a, b) == all(_below2(t, x, y) for x, y in zip(ra, rb))
    for u, ref in zip(maps, refs):
        assert t.proj(2, u) == tuple(t.proj(1, v) for v in ref[1:])
        assert u.probed == ref
    assert any(ra != rb for ra in refs for rb in refs)


def test_unequal_pair_stops_at_first_differing_probe(tower):
    probes = tower.stage2_probes()
    ident = restrict(Identity(), 2, 3, tower)
    const = restrict(Constant(bottom_thread(tower, 3)), 2, 3, tower)
    first = next(i for i, w in enumerate(probes) if ident.fn(w) != const.fn(w))
    assert not _top_eq(tower, ident, const)
    assert len(ident.probed) == len(const.probed) == first + 1 < len(probes)
    # a map compared with itself reads its one vector twice, filling it once
    assert _top_eq(tower, ident, ident) and _top_le(tower, ident, ident)
    assert ident.probed == [ident.fn(w) for w in probes]


def _law_report(checked, density_ok=True):
    names = ("stagewise_application", "retract_reify_app",
             "section_on_embedded_stages", "density_chain")
    checks = [{"name": name, "pass": True, "checked": count, "detail": []}
              for name, count in zip(names, checked)]
    if not density_ok:
        checks[-1].update({"pass": False, "detail": [
            {"law": "density", "reason": "incoherent input"}]})
    return {"depth": 3, "checks": checks, "ok": density_ok}


@pytest.mark.parametrize("base_size, plain, sampled", [
    (3, (154, 12, 70, 11), (154, 12, 84, 15)),
    (4, (4757, 68, 355, 67), (4757, 68, 426, 71)),
])
def test_verify_laws_reports_pinned(base_size, plain, sampled):
    # whole report dicts, with reified (non-embedded) sample threads whose
    # top coordinates compare probe by probe, and one incoherent thread
    t = _tower(base_size)
    good = stage_embed(t, 0, SR1, 3)
    bad = Thread(t, (SL1,) + good.coords[1:], check=False)
    xs = [reify(Identity(), 3, t), reify(Constant(bottom_thread(t, 3)), 3, t),
          reify(FromThread(stage_embed(t, 1, t.stage1[-1], 3)), 3, t), bad]
    assert verify_laws(t, depth=3) == _law_report(plain)
    assert verify_laws(t, depth=3, sample_threads=xs) == _law_report(sampled, False)
