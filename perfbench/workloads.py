"""The benchmark's four workloads: inputs built from a seed, and the items
one pass checks.

build(seed) is the set-up: it generates every input with lamtower.gen (plus
the term constructors) and returns a Plan.  A pass runs each item once.  An
item returns (status, text): status "ok", "fail" (a false verdict, a wrong
result or an unexpected exception), or "defect" (a capacity probe that ran
into a known limit such as RecursionError).  The text is folded into the
pass digest, so two commits can be compared item by item.

Why these workloads, and which layer each one stresses, is recorded in
DESIGN.md next to this file.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

from lamtower import cells, completion, domains, gen, kinfinity, serialize, terms
from lamtower import frontseed as F
from lamtower.terms import App, Lam, Var


@dataclass
class Plan:
    """The items of one workload, in pass order.  `probe` items measure a
    capacity limit and run with tracing paused (wrappers add stack frames)."""

    items: list[tuple[str, object, bool]]
    expected: dict[str, int]
    setup_times: dict[str, float] = field(default_factory=dict)

    def check_counts(self) -> None:
        got = Counter(kind_group(kind) for kind, _, _ in self.items)
        if dict(got) != self.expected:
            raise RuntimeError(f"item counts {dict(got)} != expected {self.expected}")


def kind_group(kind: str) -> str:
    """Deep-ladder probes carry their depth in the kind; group them by op."""
    return kind.rsplit(".d", 1)[0] if kind.startswith("deep.") else kind


def verdict(ok: bool, text: str = "") -> tuple[str, str]:
    return ("ok" if ok else "fail"), text


# ---------------------------------------------------------------------------
# Rendering for digests.

def render_seq(p: cells.RedSeq) -> str:
    return f"{terms.term_size(p.source)}~{len(p)}~{terms.term_size(p.target)}"


def render_word(w: F.Word) -> str:
    if not w.letters:
        return f"refl[{render_seq(w.src)}]"
    return " . ".join(_render_letter(l) for l in w.letters)


def _render_letter(l) -> str:
    inv = "^-1" if getattr(l, "inv", False) else ""
    eq = "=" if getattr(l, "eq", False) else ""
    if isinstance(l, F.AssL):
        return f"{eq}ass({len(l.a)},{len(l.b)},{len(l.c)}){inv}"
    if isinstance(l, F.WlL):
        return f"{eq}wl({len(l.edge)},{render_word(l.inner)}){inv}"
    if isinstance(l, F.WrL):
        return f"{eq}wr({render_word(l.inner)},{len(l.edge)}){inv}"
    if isinstance(l, F.ReflL):
        return "refl"
    return f"{eq}{l.name}{inv}"


def same_term(a, b) -> bool:
    """Structural equality without recursion, for checking results on terms
    too deep for ==."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, Var):
            if x.index != y.index:
                return False
        elif isinstance(x, Lam):
            stack.append((x.body, y.body))
        else:
            stack.append((x.fun, y.fun))
            stack.append((x.arg, y.arg))
    return True


# ---------------------------------------------------------------------------
# tower: globularity, derivation functor laws, realization by dimension.

TOWER_DIMS = range(4, 13)
TOWER_PER_DIM = 80


def _leaves(h) -> int:
    n, stack = 0, [h]
    while stack:
        node = stack.pop()
        if isinstance(node, completion.HDRefl):
            n += 1
        elif isinstance(node, completion.HDSymm):
            stack.append(node.inner)
        else:
            stack.extend((node.left, node.right))
    return n


def _tree_with_leaves(rng: random.Random, x, leaves: int):
    """A generated derivation tree on x with exactly `leaves` leaves."""
    while True:
        h = gen.gen_hd_tree(rng, x, 3)
        if _leaves(h) == leaves:
            return h


def realize_cell(rng: random.Random, dim: int):
    """A recursive-completion cell of dimension `dim` over a generated 3-cell.

    Realization maps over every leaf of every level's derivation tree, so a
    cell's work is the product of its trees' leaf counts.  gen_rtower_cell
    draws those counts at random and its cost per cell is heavy-tailed; here
    each even dimension's tree has two leaves and each odd one a single leaf,
    so the work of a cell is fixed by its dimension.
    """
    cell = completion.explicit_cell(3, gen.gen_h3(rng, 1))
    for d in range(4, dim + 1):
        h = _tree_with_leaves(rng, cell, 2 if d % 2 == 0 else 1)
        cell = completion.triple_cell(cell, cell, h)
    return cell


def _check_globular(cell):
    return verdict(cells.globular_check(cell))


def _tag_f(c):
    return ("f", c)


def _tag_g(c):
    return ("g", c)


def _check_functor(h):
    identity = completion.hd_map(lambda x: x, h) == h
    composed = (completion.hd_map(lambda c: _tag_g(_tag_f(c)), h)
                == completion.hd_map(_tag_g, completion.hd_map(_tag_f, h)))
    return verdict(identity and composed)


def _check_realize(dim, cell):
    return verdict(completion.realize_boundary_check(dim, cell))


def build_tower(seed: int) -> Plan:
    rng = random.Random(seed)
    items = []
    for _ in range(1000):
        items.append(("globular", partial(_check_globular, gen.gen_h3(rng, depth=2)), False))
    for _ in range(1000):
        h = gen.gen_hd_tree(rng, gen.gen_h2(rng, depth=1), 5)
        items.append(("hd_functor", partial(_check_functor, h), False))
    for dim in TOWER_DIMS:
        for _ in range(TOWER_PER_DIM):
            items.append((f"realize.d{dim}",
                          partial(_check_realize, dim, realize_cell(rng, dim)), False))
    expected = {"globular": 1000, "hd_functor": 1000}
    expected.update({f"realize.d{d}": TOWER_PER_DIM for d in TOWER_DIMS})
    return Plan(items, expected)


# ---------------------------------------------------------------------------
# coherence: the front-seed word engine.

ASSOC_PLAN = ((8, 16), (16, 8), (32, 4), (64, 2), (128, 2))
QUADRUPLES = 60
FUZZED_WORDS = 1000


def _check_assoc(p, q, r):
    src, tgt = F.boundary3_words(F.fs_assoc_compare(p, q, r))
    shell = F.word_reduce(F.shell_word(p, q, r))
    return verdict(F.words_equal(src, shell) and not tgt.letters,
                   f"{render_word(src)} => {render_word(tgt)}")


def _check_pentagon(p, q, r, s):
    left, right = F.pentagon_words(p, q, r, s)
    src, tgt = F.boundary3_words(F.fs_pentagon(p, q, r, s))
    return verdict(F.words_equal(src, left) and F.words_equal(tgt, right),
                   f"{render_word(src)} => {render_word(tgt)}")


def _check_bridges(p, q, r, s):
    bridges = F.fs_bridges(p, q, r, s, cells.Pentagon(p, q, r, s))
    left, _ = F.pentagon_words(p, q, r, s)
    mixed = F.mixed_target_word(p, q, r, s)
    ok, texts = True, []
    for cell, (esrc, etgt) in zip(bridges, [(left, None), (mixed, None), (left, mixed)]):
        src, tgt = F.boundary3_words(cell)
        ok = ok and F.words_equal(src, esrc)
        ok = ok and (F.words_equal(tgt, etgt) if etgt is not None else not tgt.letters)
        texts.append(f"{render_word(src)} => {render_word(tgt)}")
    return verdict(ok, " | ".join(texts))


def _check_words(w, padded):
    red = F.word_reduce(w)
    return verdict(F.word_reduce(red) == red and F.words_equal(padded, w),
                   render_word(red))


def build_coherence(seed: int) -> Plan:
    rng = random.Random(seed)
    items = []
    for plen, count in ASSOC_PLAN:
        for _ in range(count):
            p = gen.gen_zigzag(rng, gen.gen_term(rng, 7), plen)
            q = gen.gen_zigzag(rng, p.target, rng.randint(1, 3))
            r = gen.gen_zigzag(rng, q.target, rng.randint(1, 3))
            items.append((f"assoc.p{plen}", partial(_check_assoc, p, q, r), False))
    for _ in range(QUADRUPLES):
        quad = gen.gen_composable_seqs(rng, 4, max_steps=4)
        items.append(("fs_pentagon", partial(_check_pentagon, *quad), False))
        items.append(("fs_bridges", partial(_check_bridges, *quad), False))
    for _ in range(FUZZED_WORDS):
        w = gen.gen_word(rng, rng.randint(0, 5))
        padded = gen.insert_cancelling_pairs(rng, w, rng.randint(1, 4))
        items.append(("words_equal", partial(_check_words, w, padded), False))
    expected = {f"assoc.p{plen}": count for plen, count in ASSOC_PLAN}
    expected.update(fs_pentagon=QUADRUPLES, fs_bridges=QUADRUPLES,
                    words_equal=FUZZED_WORDS)
    return Plan(items, expected)


# ---------------------------------------------------------------------------
# kinfty: the finite stages and the truncated inverse limit.

KINFTY_BASES = (3, 4)
JOIN_SAMPLES = 200


def poles(base_size: int) -> tuple[str, ...]:
    """The pole labels `lamtower kinfty check --base-size n` uses."""
    return ("sR1", "sL1") + tuple(f"s{i + 2}" for i in range(base_size - 3))


def step_join_sample(tower, rng: random.Random, n: int) -> list:
    """Distinct joins of two step maps, as `kinfty check` samples stage 2."""
    out, seen, elems = [], set(), tower.stage1
    attempts = 0
    while len(out) < n and attempts < 40 * n:
        attempts += 1
        a, b, c, d = (rng.choice(elems) for _ in range(4))
        j = domains.lub(tower, 2, [domains.step_map(tower, 1, a, b),
                                   domains.step_map(tower, 1, c, d)])
        if j is not None and j not in seen:
            seen.add(j)
            out.append(j)
    return out


def _check_laws(tower):
    report = kinfinity.verify_laws(tower, depth=3)
    return verdict(report["ok"], json.dumps(report, sort_keys=True, default=str))


def _check_pair(tower, stage, sample):
    report = domains.check_projection_pair(tower, stage, sample)
    return verdict(report["ok"], json.dumps(report, sort_keys=True, default=str))


def build_kinfty(seed: int) -> Plan:
    rng = random.Random(seed)
    items, setup_times = [], {}
    for base in KINFTY_BASES:
        t0 = perf_counter()
        tower = domains.Tower(domains.flat_base(poles(base)))
        setup_times[f"tower_init.b{base}"] = perf_counter() - t0
        sample = step_join_sample(tower, rng, JOIN_SAMPLES)
        items.append((f"verify_laws.b{base}", partial(_check_laws, tower), False))
        items.append((f"projection_pair.b{base}.s0", partial(_check_pair, tower, 0, ()), False))
        items.append((f"projection_pair.b{base}.s1", partial(_check_pair, tower, 1, sample), False))
    expected = {f"{k}.b{b}{s}": 1 for b in KINFTY_BASES
                for k, s in (("verify_laws", ""), ("projection_pair", ".s0"),
                             ("projection_pair", ".s1"))}
    return Plan(items, expected, setup_times)


# ---------------------------------------------------------------------------
# convert: normalizing, 0-truncation, the growing spine, deep terms.

CORPUS = 1000
PAIRS = 150
SPINE_FUELS = (250, 500, 1000)
DEEP_DEPTHS = (100, 200, 400, 800, 1600, 3200)
DEEP_OPS = ("eq", "hash", "to_text", "serialize", "pi0_equiv")

# (\x. x x x) (\x. x x x): every step grows the spine, so it never normalizes.
_TRIPLE = Lam(App(App(Var(0), Var(0)), Var(0)))
LOOPING = App(_TRIPLE, _TRIPLE)


def _corpus_term(rng: random.Random):
    """A normalizing term, two thirds of them with a top-level beta or eta
    redex so the soundness check is not dominated by normal forms."""
    while True:
        roll = rng.random()
        if roll < 1 / 3:
            t = App(Lam(gen.gen_term(rng, 6, depth=1)), gen.gen_term(rng, 6))
        elif roll < 2 / 3:
            t = Lam(App(terms.shift(1, 0, gen.gen_term(rng, 10)), Var(0)))
        else:
            t = gen.gen_term(rng, 14)
        try:
            terms.normalize(t, 200)
            return t
        except terms.FuelExhausted:
            continue


def deep_term(rng: random.Random, depth: int):
    """A normal term nested `depth` levels: binders and applications of a
    variable head, around an identity."""
    t = Lam(Var(0))
    for _ in range(depth - 1):
        t = Lam(t) if rng.random() < 0.5 else App(Var(rng.randrange(3)), t)
    return t


def _check_soundness(t):
    nf, trace = terms.normalize(t, 2000)
    for s in terms.find_redexes(t):
        if terms.normalize(terms.apply_step(t, s), 2000)[0] != nf:
            return verdict(False, terms.to_text(nf))
    return verdict(True, f"{len(trace)} {terms.to_text(nf)}")


def _check_convertible(m, n):
    zigzag = completion.pi0_equiv(m, n, 2000)
    if zigzag is None:
        return verdict(False, "not-convertible")
    current = m
    for s in zigzag.steps:
        current = terms.apply_step(current, s)
    return verdict(current == n, str(len(zigzag)))


def _check_separated(m, n):
    return verdict(completion.pi0_equiv(m, n, 2000) is None)


def _check_spine(fuel):
    """The looping term must exhaust exactly its fuel: that is its verdict."""
    try:
        terms.normalize(LOOPING, fuel)
    except terms.FuelExhausted as e:
        return verdict(len(e.trace) == fuel,
                       f"{len(e.trace)} {terms.term_size(e.term)}")
    return verdict(False, "normalized")


def _deep_op(op, a, b):
    if op == "eq":
        return a == b
    if op == "hash":
        return hash(a) == hash(b)
    if op == "to_text":
        return terms.to_text(a) == terms.to_text(b)
    if op == "serialize":
        return same_term(serialize.loads(serialize.dumps(a)), a)
    zigzag = completion.pi0_equiv(a, b, 10)
    return zigzag is not None and len(zigzag) == 0


def _probe_deep(op, a, b):
    """One rung of the deep-term ladder: a RecursionError is the known
    depth limit, recorded as a defect; a wrong answer is a failure."""
    try:
        return verdict(_deep_op(op, a, b), "ok")
    except RecursionError:
        return "defect", "RecursionError"


def build_convert(seed: int) -> Plan:
    rng = random.Random(seed)
    items = []
    for _ in range(CORPUS):
        items.append(("normalize", partial(_check_soundness, _corpus_term(rng)), False))
    for _ in range(PAIRS):
        items.append(("pi0.convertible",
                      partial(_check_convertible, *gen.gen_convertible_pair(rng)), False))
    for _ in range(PAIRS):
        items.append(("pi0.separated",
                      partial(_check_separated, *gen.gen_separated_pair(rng)), False))
    for fuel in SPINE_FUELS:
        items.append((f"spine.f{fuel}", partial(_check_spine, fuel), False))
    for depth in DEEP_DEPTHS:
        shape_seed = rng.randrange(1 << 30)
        # Two equal terms built apart, so equality has to walk them.
        a = deep_term(random.Random(shape_seed), depth)
        b = deep_term(random.Random(shape_seed), depth)
        for op in DEEP_OPS:
            items.append((f"deep.{op}.d{depth}", partial(_probe_deep, op, a, b), True))
    expected = {"normalize": CORPUS, "pi0.convertible": PAIRS, "pi0.separated": PAIRS}
    expected.update({f"spine.f{f}": 1 for f in SPINE_FUELS})
    expected.update({f"deep.{op}": len(DEEP_DEPTHS) for op in DEEP_OPS})
    return Plan(items, expected)


WORKLOADS = {
    "tower": build_tower,
    "coherence": build_coherence,
    "kinfty": build_kinfty,
    "convert": build_convert,
}
