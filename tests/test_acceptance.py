"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (equalities and order relations in discrete structures);
the only numeric bounds are the stated sample counts and runtime targets.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import json
import random
import time

from lamtower.cells import Pentagon, Refl
from lamtower.cli import main, parse_term
from lamtower.completion import (explicit_cell, hd_map, pack, pi0_equiv,
                                 realize, realize_boundary_check,
                                 cell_boundary, sigma_boundary, triple_cell)
from lamtower.domains import Tower, flat_base, lub, step_map
from lamtower.frontseed import (boundary3_words, fs_assoc_compare, fs_bridges,
                                fs_pentagon, mixed_target_word, pentagon_words,
                                shell_word, word_reduce, words_equal)
from lamtower.gen import (gen_composable_seqs, gen_convertible_pair, gen_h3,
                          gen_hd_tree, gen_rtower_cell, gen_separated_pair,
                          gen_term, gen_word, insert_cancelling_pairs)
from lamtower.kinfinity import thread_eq, verify_laws
from lamtower.terms import FuelExhausted, apply_step, find_redexes, normalize
from lamtower.witness import (SpanEndpoint, TBeta, TEta, interpret, pad,
                              separation_report, tag_classify)
from lamtower.witness import Comp, ReflM, ReflN


def _report(num: int, name: str, ok: bool, detail: str, started: float):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {verdict} - {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"


def _corpus_term(rng):
    # two thirds of the corpus get a guaranteed top-level beta or eta redex so
    # the check is not dominated by normal forms (total size stays <= 12)
    from lamtower.terms import App, Lam, Var, shift
    roll = rng.random()
    if roll < 1 / 3:
        return App(Lam(gen_term(rng, 5, depth=1)), gen_term(rng, 5))
    if roll < 2 / 3:
        return Lam(App(shift(1, 0, gen_term(rng, 9)), Var(0)))
    return gen_term(rng, 12)


def test_criterion_1_step_soundness():
    started = time.perf_counter()
    rng = random.Random(101)
    failures = 0
    terms_checked = 0
    steps_checked = {"beta": 0, "eta": 0}
    while terms_checked < 2000:
        t = _corpus_term(rng)
        terms_checked += 1
        redexes = find_redexes(t)
        if not redexes:
            continue
        try:
            nf_t, _ = normalize(t, 2000)
        except FuelExhausted:
            continue
        for s in redexes:
            reduct = apply_step(t, s)
            try:
                nf_r, _ = normalize(reduct, 2000)
            except FuelExhausted:
                continue
            steps_checked[s.kind.value] += 1
            if nf_r != nf_t:
                failures += 1
    elapsed = time.perf_counter() - started
    total = sum(steps_checked.values())
    ok = (failures == 0 and steps_checked["beta"] >= 500
          and steps_checked["eta"] >= 500 and elapsed < 30.0)
    _report(1, "step soundness", ok,
            f"{terms_checked} terms, {total} steps "
            f"({steps_checked['beta']} beta, {steps_checked['eta']} eta), "
            f"{failures} failures", started)


def test_criterion_2_globularity():
    started = time.perf_counter()
    rng = random.Random(202)
    from lamtower.cells import globular_check
    bad = sum(not globular_check(gen_h3(rng, depth=2)) for _ in range(1000))
    _report(2, "globularity", bad == 0, f"1000 generated 3-cells, {bad} failures",
            started)


def test_criterion_3_hd_functor_laws():
    started = time.perf_counter()
    rng = random.Random(303)
    bad = 0
    for _ in range(1000):
        h = gen_hd_tree(rng, ("pt", rng.randrange(7)), 8)
        if hd_map(lambda x: x, h) != h:
            bad += 1
        f = lambda v: ("f", v)
        g = lambda v: ("g", v)
        if hd_map(lambda v: g(f(v)), h) != hd_map(g, hd_map(f, h)):
            bad += 1
    _report(3, "higher-derivation functor laws", bad == 0,
            f"1000 derivation trees of depth <= 8, {bad} failures", started)


def test_criterion_4_realization():
    started = time.perf_counter()
    rng = random.Random(404)
    bad = 0
    for dim in range(4, 10):
        for _ in range(500):
            cell = gen_rtower_cell(rng, dim)
            if not realize_boundary_check(dim, cell):
                bad += 1
    pack_bad = 0
    corpus = [explicit_cell(3, gen_h3(rng, depth=1)) for _ in range(20)]
    for theta in corpus:
        cell = theta
        for d in (4, 5, 6):
            cell = triple_cell(cell, cell, Refl(cell))
            packed = pack(d, cell)
            if (sigma_boundary(packed)[0] != realize(d - 1, cell_boundary(cell)[0])
                    or sigma_boundary(packed)[1] != realize(d - 1, cell_boundary(cell)[1])):
                pack_bad += 1
    ok = bad == 0 and pack_bad == 0
    _report(4, "realization boundary compatibility", ok,
            f"500 cells per dimension 4..9 ({bad} failures), "
            f"pack 4..6 on 20 reflexive towers ({pack_bad} failures)", started)


def test_criterion_5_zero_truncation():
    started = time.perf_counter()
    rng = random.Random(505)
    from lamtower.witness import SPAN_SOURCE, SPAN_TARGET
    span = pi0_equiv(SPAN_SOURCE, SPAN_TARGET, 100)
    ok = span is not None and span.source == SPAN_SOURCE and span.target == SPAN_TARGET
    replay_bad = 0
    for _ in range(100):
        m, n = gen_convertible_pair(rng)
        seq = pi0_equiv(m, n, 2000)
        if seq is None:
            replay_bad += 1
            continue
        current = m
        for s in seq.steps:
            current = apply_step(current, s)
        if current != n:
            replay_bad += 1
    notfound_bad = 0
    for _ in range(100):
        m, n = gen_separated_pair(rng)
        if pi0_equiv(m, n, 2000) is not None:
            notfound_bad += 1
    ok = ok and replay_bad == 0 and notfound_bad == 0
    _report(5, "0-truncation", ok,
            f"span zigzag ok, 100 convertible ({replay_bad} failures), "
            f"100 separated ({notfound_bad} failures)", started)


def test_criterion_6_front_seed_boundaries():
    started = time.perf_counter()
    rng = random.Random(606)
    bad = 0
    for _ in range(200):
        p, q, r, s = gen_composable_seqs(rng, 4, max_steps=2)
        left, right = pentagon_words(p, q, r, s)
        filler = fs_pentagon(p, q, r, s)
        fsrc, ftgt = boundary3_words(filler)
        if not (words_equal(fsrc, left) and words_equal(ftgt, right)):
            bad += 1
        asrc, atgt = boundary3_words(fs_assoc_compare(p, q, r))
        if not (words_equal(asrc, shell_word(p, q, r)) and not atgt.letters):
            bad += 1
        source_b, target_b, shell_b = fs_bridges(p, q, r, s, Pentagon(p, q, r, s))
        mixed = mixed_target_word(p, q, r, s)
        checks = [
            words_equal(boundary3_words(source_b)[0], left),
            not boundary3_words(source_b)[1].letters,
            words_equal(boundary3_words(target_b)[0], mixed),
            not boundary3_words(target_b)[1].letters,
            words_equal(boundary3_words(shell_b)[0], left),
            words_equal(boundary3_words(shell_b)[1], mixed),
        ]
        if not all(checks):
            bad += 1
    word_bad = 0
    for _ in range(1000):
        w = gen_word(rng, rng.randint(0, 5))
        red = word_reduce(w)
        if word_reduce(red) != red:
            word_bad += 1
        padded = insert_cancelling_pairs(rng, w, rng.randint(1, 4))
        if word_reduce(padded).letters != red.letters:
            word_bad += 1
    ok = bad == 0 and word_bad == 0
    _report(6, "front-seed boundary equations", ok,
            f"200 quadruples ({bad} failures), 1000 fuzzed words "
            f"({word_bad} failures)", started)


def test_criterion_7_projection_pairs():
    started = time.perf_counter()
    tower = Tower(flat_base())
    # independent brute-force count of monotone self-maps of the 3-pole base
    def leq0(i, j):
        return i == 0 or i == j
    brute = [t for t in itertools.product(range(3), repeat=3)
             if all(not leq0(i, j) or leq0(t[i], t[j])
                    for i in range(3) for j in range(3))]
    count_ok = len(brute) == 11 and set(brute) == set(tower.stage1_tables)

    retract_bad = 0
    for x in range(3):
        if tower.proj(0, tower.emb(0, x)) != x:
            retract_bad += 1
    for g in tower.stage1:
        if tower.proj(1, tower.emb(1, g)) != g:
            retract_bad += 1

    section_bad = sum(not tower.leq(1, tower.emb(0, tower.proj(0, g)), g)
                      for g in tower.stage1)

    rng = random.Random(707)
    joins = set()
    while len(joins) < 200:
        a, b = rng.choice(tower.stage1), rng.choice(tower.stage1)
        c, d = rng.choice(tower.stage1), rng.choice(tower.stage1)
        j = lub(tower, 2, [step_map(tower, 1, a, b), step_map(tower, 1, c, d)])
        if j is not None:
            joins.add(j)
    section2_bad = sum(not tower.leq(2, tower.emb(1, tower.proj(1, u)), u)
                       for u in joins)

    ok = count_ok and retract_bad == 0 and section_bad == 0 and section2_bad == 0
    _report(7, "projection pairs", ok,
            f"stage-1 count 11 ({count_ok}), retract exact on 3+11, section on "
            f"11 + {len(joins)} sampled step-map joins", started)


def test_criterion_8_inverse_limit_laws():
    started = time.perf_counter()
    tower = Tower(flat_base())
    from lamtower.kinfinity import stage_embed
    embeds = [stage_embed(tower, 1, u, 3) for u in tower.stage1]
    report = verify_laws(tower, depth=3, sample_threads=embeds)
    elapsed = time.perf_counter() - started
    ok = report["ok"] and elapsed < 60.0
    detail = "; ".join(f"{c['name']}={c['checked']}" for c in report["checks"])
    _report(8, "inverse-limit exact laws", ok, detail, started)


def test_criterion_9_witness_separation():
    started = time.perf_counter()

    def all_trees(size, src, tgt):
        if size == 1:
            return [w for w in (TBeta(), TEta(), ReflM(), ReflN())
                    if (w.src, w.tgt) == (src, tgt)]
        out = []
        for ls in range(1, size - 1):
            for mid in SpanEndpoint:
                for l in all_trees(ls, src, mid):
                    for r in all_trees(size - 1 - ls, mid, tgt):
                        out.append(Comp(l, r))
        return out

    m, n = SpanEndpoint.M, SpanEndpoint.N
    total = 0
    bad = 0
    for size in range(1, 8):
        for w in all_trees(size, m, n):
            total += 1
            tag = tag_classify(w)
            for i, j in ((0, 0), (1, 0), (0, 1), (2, 2)):
                if tag_classify(pad(w, i, j)) is not tag:
                    bad += 1

    tower = Tower(flat_base())
    beta_pt = interpret(TBeta(), 3, tower)
    eta_pt = interpret(TEta(), 3, tower)
    poles_ok = (tower.base.labels[beta_pt.coords[0]] == "sR1"
                and tower.base.labels[eta_pt.coords[0]] == "sL1"
                and not thread_eq(beta_pt, eta_pt))

    rep = separation_report(TBeta(), TEta(), 3, tower)
    sep_ok = (rep["points_distinct"] and rep["no_1cell"]
              and rep["no_higher_cells"])
    same = separation_report(TBeta(), pad(TBeta(), 3, 2), 3, tower)
    same_ok = not same["points_distinct"]

    ok = bad == 0 and total > 0 and poles_ok and sep_ok and same_ok
    _report(9, "witness classification and separation", ok,
            f"{total} witness trees of size <= 7, tags pad-invariant; "
            f"poles sR1/sL1 distinct; reports as stated", started)


def test_criterion_10_cli_determinism(capsys):
    started = time.perf_counter()
    runs = []
    for _ in range(2):
        main(["kinfty", "check", "--samples", "50", "--seed", "99"])
        runs.append(capsys.readouterr().out)
    deterministic = runs[0] == runs[1] and json.loads(runs[0])["ok"]

    rng = random.Random(1010)
    from lamtower.terms import to_text
    roundtrip_bad = 0
    for _ in range(50):
        t = gen_term(rng, 10)
        if parse_term(to_text(t)) != t:
            roundtrip_bad += 1

    ok = deterministic and roundtrip_bad == 0
    with capsys.disabled():
        _report(10, "CLI determinism and round-trip", ok,
                f"byte-identical reports, 50-term round-trip "
                f"({roundtrip_bad} failures)", started)
