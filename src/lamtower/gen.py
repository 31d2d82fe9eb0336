"""Seeded generators for terms, reduction zigzags, tower cells, derivation
trees, and boundary words.  All randomness flows through an explicit
random.Random, so every check that consumes these is reproducible from its
seed.
"""

from __future__ import annotations

import random

from . import cells as C
from . import completion as R
from . import frontseed as F
from .terms import (App, Dir, FuelExhausted, Lam, RedStep, StepKind, Term, Var,
                    apply_step, find_redexes, normalize, shift, subterm)


def gen_term(rng: random.Random, max_size: int, depth: int = 0) -> Term:
    """At most max_size nodes under `depth` binders, over three free names."""
    if max_size <= 1:
        return Var(rng.randrange(depth + 3))
    roll = rng.random()
    if roll < 0.35:
        return Var(rng.randrange(depth + 3))
    if roll < 0.65:
        return Lam(gen_term(rng, max_size - 1, depth + 1))
    left = rng.randint(1, max_size - 2) if max_size > 2 else 1
    return App(gen_term(rng, left, depth),
               gen_term(rng, max_size - 1 - left, depth))


def gen_normalizing_term(rng: random.Random, max_size: int, fuel: int = 200) -> Term:
    while True:
        t = gen_term(rng, max_size)
        try:
            normalize(t, fuel)
            return t
        except FuelExhausted:
            continue


def _random_expansion(rng: random.Random, t: Term) -> RedStep:
    """An inverse beta step at a random position: wraps the addressed subterm
    s as (lam shift(1,0,s)) x for a small random x."""
    path = rng.choice(_all_paths(t))
    node = subterm(t, path)
    arg = gen_term(rng, 3)
    redex = App(Lam(shift(1, 0, node)), arg)
    return RedStep(StepKind.BETA, path, forward=False, redex=redex)


def _all_paths(t: Term) -> list[tuple]:
    out = []
    stack = [(t, ())]
    while stack:
        node, path = stack.pop()
        out.append(path)
        if isinstance(node, App):
            stack.append((node.fun, path + (Dir.FUN,)))
            stack.append((node.arg, path + (Dir.ARG,)))
        elif isinstance(node, Lam):
            stack.append((node.body, path + (Dir.BODY,)))
    return out


def gen_zigzag(rng: random.Random, start: Term, steps: int,
               p_expand: float = 0.3) -> C.RedSeq:
    """A reduction zigzag from `start`: forward contractions mixed with
    inverse expansions."""
    trail = [start]
    made: list[RedStep] = []
    current = start
    for _ in range(steps):
        forwards = find_redexes(current)
        if forwards and rng.random() > p_expand:
            s = rng.choice(forwards)
        else:
            s = _random_expansion(rng, current)
        current = apply_step(current, s)
        made.append(s)
        trail.append(current)
    return C.RedSeq(tuple(trail), tuple(made))


def gen_composable_seqs(rng: random.Random, k: int, max_steps: int = 3,
                        allow_empty: bool = True) -> list[C.RedSeq]:
    """k reduction sequences chained end to end, from gen_term(rng, 7)."""
    t = gen_term(rng, 7)
    out = []
    for _ in range(k):
        lo = 0 if allow_empty else 1
        seq = gen_zigzag(rng, t, rng.randint(lo, max_steps))
        out.append(seq)
        t = seq.target
    return out


# ---------------------------------------------------------------------------
# 2- and 3-cells.

def _seq_ending_at(rng: random.Random, t: Term) -> C.RedSeq:
    return C.seq_invert(gen_zigzag(rng, t, rng.randint(0, 2)))


def gen_h2_at(rng: random.Random, start: Term, depth: int,
              rooted: bool = False) -> C.Homotopy2:
    """A well-formed 2-cell built over `start`; with rooted=True its boundary
    sequences begin exactly at `start` (left whiskering moves the root)."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        base = rng.random()
        if base < 0.4:
            return C.Refl(gen_zigzag(rng, start, rng.randint(0, 2)))
        if base < 0.7:
            return C.Assoc(*_rooted_triple(rng, start))
        which = C.UnitL if base < 0.85 else C.UnitR
        return which(gen_zigzag(rng, start, rng.randint(0, 2)))
    inner = gen_h2_at(rng, start, depth - 1, rooted)
    s, t = C.boundary2(inner)
    choice = rng.random()
    if choice < 0.2:
        return C.Symm(inner)
    if choice < 0.4:
        return C.Trans(inner, C.Refl(t))
    if choice < 0.55:
        return C.Trans(inner, C.Symm(inner)) if rng.random() < 0.5 else C.Symm(inner)
    if choice < 0.7 and not rooted:
        prefix = _seq_ending_at(rng, s.source)
        return C.WhiskerL(prefix, inner)
    if choice < 0.85:
        suffix = gen_zigzag(rng, s.target, rng.randint(0, 2))
        return C.WhiskerR(inner, suffix)
    partner = gen_h2_at(rng, s.target, 0, rooted=True)
    return C.HComp(inner, partner)


def _rooted_triple(rng: random.Random, start: Term) -> tuple:
    p = gen_zigzag(rng, start, rng.randint(0, 2))
    q = gen_zigzag(rng, p.target, rng.randint(0, 2))
    r = gen_zigzag(rng, q.target, rng.randint(0, 2))
    return p, q, r


def gen_h2(rng: random.Random, depth: int = 2) -> C.Homotopy2:
    return gen_h2_at(rng, gen_term(rng, 6), depth)


def gen_h3_at(rng: random.Random, start: Term, depth: int,
              rooted: bool = False) -> C.Homotopy3:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        base = rng.random()
        if base < 0.3:
            return C.Refl(gen_h2_at(rng, start, 1, rooted))
        if base < 0.55:
            p, q, r = _rooted_triple(rng, start)
            s = gen_zigzag(rng, r.target, rng.randint(0, 2))
            return C.Pentagon(p, q, r, s)
        if base < 0.8:
            p = gen_zigzag(rng, start, rng.randint(0, 2))
            q = gen_zigzag(rng, p.target, rng.randint(0, 2))
            return C.Triangle(p, q)
        a = gen_h2_at(rng, start, 1, rooted=True)
        b = C.Refl(C.boundary2(a)[1])
        mid = C.boundary2(a)[0].target
        c = gen_h2_at(rng, mid, 1, rooted=True)
        d = C.Refl(C.boundary2(c)[1])
        return C.Interchange(a, b, c, d)
    inner = gen_h3_at(rng, start, depth - 1, rooted)
    (_, (ss, _)), (t2, _) = C.boundary3_ends(inner)
    choice = rng.random()
    if choice < 0.25:
        return C.Symm(inner)
    if choice < 0.5:
        return C.Trans(inner, C.Refl(t2))
    if choice < 0.65 and not rooted:
        prefix = _seq_ending_at(rng, ss.source)
        return C.WhiskerL(prefix, inner)
    if choice < 0.8:
        suffix = gen_zigzag(rng, ss.target, rng.randint(0, 2))
        return C.WhiskerR(inner, suffix)
    partner = gen_h3_at(rng, ss.target, 0, rooted=True)
    return C.HComp(inner, partner)


def gen_h3(rng: random.Random, depth: int = 2) -> C.Homotopy3:
    return gen_h3_at(rng, gen_term(rng, 6), depth)


# ---------------------------------------------------------------------------
# Higher derivations and tower cells.

def gen_hd_tree(rng: random.Random, x, depth: int) -> R.HigherDeriv:
    if depth <= 0 or rng.random() < 0.3:
        return C.Refl(x)
    if rng.random() < 0.45:
        return C.Symm(gen_hd_tree(rng, x, depth - 1))
    return C.Trans(gen_hd_tree(rng, x, depth - 1),
                   gen_hd_tree(rng, x, depth - 1))


# The derivation depth of every 3-cell gen_rtower_cell generates.
RTOWER_H3_DEPTH = 1


def gen_rtower_cell(rng: random.Random, dim: int) -> R.RTowerCell:
    """A well-formed cell of the recursive completion at any dimension."""
    if dim == 3:
        return R.explicit_cell(3, gen_h3(rng, RTOWER_H3_DEPTH))
    if dim == 2:
        return R.explicit_cell(2, gen_h2(rng))
    if dim == 1:
        return R.explicit_cell(1, gen_zigzag(rng, gen_term(rng, 6), 2))
    if dim == 0:
        return R.explicit_cell(0, gen_term(rng, 6))
    below = gen_rtower_cell(rng, dim - 1)
    h = gen_hd_tree(rng, below, rng.randint(0, 3))
    return R.triple_cell(below, below, h)


# ---------------------------------------------------------------------------
# Boundary words.

def gen_word(rng: random.Random, n_letters: int = 4) -> F.Word:
    """A composable word over random edges (seed letters may be non-endo)."""
    start = gen_term(rng, 6)
    edge = gen_zigzag(rng, start, rng.randint(0, 2))
    letters: list[F.Letter] = []
    current = edge
    for i in range(n_letters):
        letters.append(_gen_letter(rng, current, i))
        current = F.letter_edges(letters[-1])[1]
    if not letters:
        return F.empty_word(edge)
    return F.word_of(letters)


def _gen_letter(rng: random.Random, src_edge: C.RedSeq, salt: int) -> F.Letter:
    roll = rng.random()
    inv = rng.random() < 0.4
    if roll < 0.3:
        splits = _split_seq(rng, src_edge, 3)
        return F.AssL(*splits, inv=inv)
    if roll < 0.5:
        k = rng.randint(0, len(src_edge.steps))
        prefix = C.RedSeq(src_edge.terms[:k + 1], src_edge.steps[:k])
        rest = C.RedSeq(src_edge.terms[k:], src_edge.steps[k:])
        inner = F.empty_word(rest) if rng.random() < 0.5 \
            else F.word_of([F.SeedL(f"g{salt}", rest, rest)])
        return F.WlL(prefix, inner, inv=inv)
    if roll < 0.7:
        k = rng.randint(0, len(src_edge.steps))
        prefix = C.RedSeq(src_edge.terms[:k + 1], src_edge.steps[:k])
        rest = C.RedSeq(src_edge.terms[k:], src_edge.steps[k:])
        inner = F.word_of([F.SeedL(f"h{salt}", prefix, prefix)])
        return F.WrL(inner, rest, inv=inv)
    if roll < 0.85:
        return F.ReflL(src_edge)
    tgt = _parallel_seq(rng, src_edge)
    return F.SeedL(f"s{salt}", src_edge, tgt) if not inv \
        else F.SeedL(f"s{salt}", tgt, src_edge, inv=True)


def _split_seq(rng: random.Random, seq: C.RedSeq, parts: int) -> list[C.RedSeq]:
    cuts = sorted(rng.randint(0, len(seq.steps)) for _ in range(parts - 1))
    bounds = [0] + cuts + [len(seq.steps)]
    return [C.RedSeq(seq.terms[a:b + 1], seq.steps[a:b])
            for a, b in zip(bounds, bounds[1:])]


def _parallel_seq(rng: random.Random, seq: C.RedSeq) -> C.RedSeq:
    """A possibly different sequence with the same endpoints."""
    if rng.random() < 0.5:
        return seq
    detour = gen_zigzag(rng, seq.source, rng.randint(1, 2))
    back = C.seq_invert(detour)
    return C.seq_compose(C.seq_compose(detour, back), seq)


def insert_cancelling_pairs(rng: random.Random, w: F.Word, k: int) -> F.Word:
    """Insert k letter/inverse pairs at random positions; reduction-invariant."""
    letters = list(w.letters)
    for _ in range(k):
        pos = rng.randint(0, len(letters))
        edge_at = F.letter_edges(letters[pos - 1])[1] if pos else w.src
        l = _gen_letter(rng, edge_at, rng.randrange(1000))
        if isinstance(l, F.ReflL):
            l = F.SeedL("pad", edge_at, edge_at)
        letters[pos:pos] = [l, F.letter_inv(l)]
    return F.Word(w.src, w.tgt, tuple(letters))


# ---------------------------------------------------------------------------
# Convertible and separated term pairs for the 0-truncation checks.

def gen_convertible_pair(rng: random.Random) -> tuple[Term, Term]:
    base = gen_normalizing_term(rng, 7)
    left = gen_zigzag(rng, base, rng.randint(0, 3), p_expand=0.4).target
    right = gen_zigzag(rng, base, rng.randint(1, 3), p_expand=0.6).target
    return left, right


def gen_separated_pair(rng: random.Random) -> tuple[Term, Term]:
    while True:
        a = gen_normalizing_term(rng, 7, 300)
        b = gen_normalizing_term(rng, 7, 300)
        if normalize(a, 300)[0] != normalize(b, 300)[0]:
            return a, b
