"""Finite poset stages for the function-space tower over a finite pointed base.

Stage 0 is any finite poset with a bottom (the CLI builds the flat one, with
labeled poles); stage n+1 consists of monotone self-maps of stage n under the
pointwise order.  A Tower owns the elements of every stage and is the one
way to build, apply, order and compare them; its docstring gives each
stage's representation (stage 3, which has no global enumeration, holds
evaluation-backed maps).  Projection pairs are the
constant/evaluate-at-bottom seeds lifted functorially.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from operator import attrgetter
from typing import Callable, Optional

from .record import record

DEFAULT_POLES = ("sR1", "sL1")
BOTTOM_LABEL = "bot"
_POS = attrgetter("pos")


class CapExceeded(ValueError):
    """Requested enumeration above the enumeration cap."""


class NotInStage(ValueError):
    """A table that is not monotone, so has no stage-1 position."""


def flat_stage1_size(poles: int) -> int:
    """Exact stage-1 size over a flat base with `poles` poles: the monotone
    maps fixing bottom (any map of the poles) plus the constants at a pole."""
    return (poles + 1) ** poles + poles


@record
class FinPoset:
    labels: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    bottom: int = 0

    def __post_init__(self):
        # row i as an int bitset of the elements above i; the order is
        # transitive iff row j is inside row i whenever i <= j
        positions = range(len(self.leq))
        rows = [sum(map((1).__lshift__, itertools.compress(positions, row)))
                for row in self.leq]
        if any(not row >> i & 1 for i, row in enumerate(rows)):
            raise ValueError("order must be reflexive")
        if rows and rows[self.bottom] != (1 << len(rows)) - 1:
            raise ValueError("bottom must be below every element")
        for i, (row, flags) in enumerate(zip(rows, self.leq)):
            for j in itertools.compress(positions, flags):
                if j != i and rows[j] >> i & 1:
                    raise ValueError("order must be antisymmetric")
                if rows[j] & ~row:
                    raise ValueError("order must be transitive")

    def __len__(self) -> int:
        return len(self.labels)


def flat_base(poles: tuple[str, ...] = DEFAULT_POLES) -> FinPoset:
    """The flat poset: bottom below each pole, poles pairwise incomparable."""
    if "sR1" not in poles or "sL1" not in poles:
        raise ValueError("the pole labels must include sR1 and sL1")
    if len(set(poles)) != len(poles):
        raise ValueError("pole labels must be distinct")
    labels = (BOTTOM_LABEL,) + tuple(poles)
    n = len(labels)
    leq = tuple(tuple(i == 0 or i == j for j in range(n)) for i in range(n))
    return FinPoset(labels, leq, 0)


class Probe(tuple):
    """A probe e_1(g): the table emb(1, g) of a stage-1 element g, carrying
    g itself (`pos`), set once by Tower.emb; p_1 e_1 is the identity, so
    that is its p_1 value.  A plain tuple equal to a probe is not a probe."""


class Tower:
    """The stage tower over one finite pointed base, with projection pairs.

    Element representations: stage 0 is an index into the base; stage 1 is
    a position in the sorted enumeration of the monotone tables over base
    indices, made from the base order when the tower is built, `stage1`
    being range(s) as a tuple and `stage1_tables` (read only) the tables;
    stage 2 is a table of stage-1 positions, indexed by stage-1 position;
    stage 3 is a LazyMono evaluated at stage-2 tables on demand.  Other code
    builds, applies, orders and compares elements only through the tower's
    methods.  A stage-3 map keeps its values at the s probes e_1(D_1) as one
    vector, built whole by its first read there (at_probes); apply(3, ., w)
    at a probe w, eq(3, ...), leq(3, ...) and proj(2, .) all read it.  So
    the first such read on a tower builds all s probes, s^2 table entries:
    7 781 tables of 7 781 entries on the flat base 6, which no CLI path
    reaches (`kinfty check` refuses it before it builds a Tower, and
    `witness` runs on base 3).

    `stage1_index` maps each table to its position, read only where a table
    becomes an element (tabulate(0, .) and proj(1, .) off the probes, which
    raise NotInStage for a table that is not monotone); `_const1` holds the
    positions of the constant maps, which is emb(0, .); `_least[n]` maps the
    up-set of each element of stage n (0 or 1) to that element, for joins.
    These are built with the tower (`_least[1]` with `_up1`); the rest are
    built on first use and kept for the life of the instance:
    - `_emb1`: emb(1, g) per stage-1 element g, filled one g at a time, so
      embedding a few poles over a large base stays cheap; each is a probe;
    - `_up1`: the stage-1 order, one up-set row (the frozenset of positions
      above) per stage-1 position, built whole by the first stage-1 or
      stage-2 comparison, stage-1 up-set or stage-1 join;
    - `_probes`: the stage2_probes() family e_1(D_1), built whole;
    - `_thread_rows`: kinfinity.thread_row's lists of shared threads, keyed
      (n, depth) for n 0 or 1, one entry per element of domain(n), each
      filled on first use; a probe e_1(g) reads g's thread in the stage-1 row.
      The law suite applies a thread to a whole row at once
      (kinfinity.app_row), one apply call per entry, and reads each value's
      thread from these rows by position.
    """

    def __init__(self, base: FinPoset):
        self.base = base
        # the tables over base indices that preserve the base order, in
        # sorted order (product yields them so); reflexive pairs hold always
        n, leq0 = len(base), base.leq
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j and leq0[i][j]]
        self.stage1_tables = tuple(t for t in itertools.product(range(n), repeat=n)
                                   if all(leq0[t[i]][t[j]] for i, j in pairs))
        self.stage1 = tuple(range(len(self.stage1_tables)))
        self.stage1_index = {t: i for i, t in enumerate(self.stage1_tables)}
        self._const1 = tuple(self.stage1_index[(x,) * len(base)] for x in range(len(base)))
        self._least = ({self.up_set(0, x): x for x in range(len(base))}, {})
        self._emb1: dict = {}
        self._up1: Optional[tuple] = None
        self._probes: Optional[tuple] = None
        self._thread_rows: dict = {}

    def domain(self, level: int):
        if level == 0:
            return tuple(range(len(self.base)))
        if level == 1:
            return self.stage1
        raise CapExceeded(f"stage {level} has no global enumeration")

    # -- order -----------------------------------------------------------

    def leq(self, level: int, a, b) -> bool:
        """a <= b in stage `level`, for a and b elements of that stage.

        In stages 1 and 2 the answer is read from the up-set rows of the
        stage-1 order: a stage-2 element is below itself by identity, two
        probes compare as their positions, and other stage-2 elements slot
        by slot.  At stage 3 it decides less than the order of maps: one map
        is below itself, two built by emb(2, .) compare as their construction
        keys do in stage 2 (the probe-by-probe answer, read from no probe),
        and others are compared pointwise on their whole vectors at the s
        probes e_1(D_1) only (at_probes), s the size of stage 1 (bottom(2) is
        e_1(bottom(1)), one of them).  Maps that agree on the probes but
        differ elsewhere in stage 2 compare below each other.
        """
        if level == 0:
            return self.base.leq[a][b]
        if level == 1:
            return b in (self._up1 or self._stage1_up())[a]
        if level == 2:
            if a is b:
                return True
            rows = self._up1 or self._stage1_up()
            if type(a) is Probe and type(b) is Probe:  # e_1 is an order embedding
                return b.pos in rows[a.pos]
            return all(map(frozenset.__contains__, map(rows.__getitem__, a), b))
        if level == 3:
            if a is b:
                return True
            if a.key is not None and b.key is not None:
                # both emb(2, .), and at the probe e_1(g), e_2(x) is
                # e_1(x(g)), e_1 an order embedding: x <= y decides it
                return self.leq(2, a.key[1], b.key[1])
            return all(map(partial(self.leq, 2), self.at_probes(a), self.at_probes(b)))
        raise CapExceeded("no order comparison above stage 3")

    def eq(self, level: int, a, b) -> bool:
        """a == b in stage `level`; at stage 3, equal construction keys or
        agreement at each of the s probes e_1(D_1), with the caveat of
        leq(3, ...)."""
        if level < 3:
            return a == b
        if level == 3:
            return (a.key is not None and a.key == b.key
                    or self.at_probes(a) == self.at_probes(b))
        raise CapExceeded("no equality test above stage 3")

    def up_set(self, level: int, a):
        """The elements of stage `level` (0 or 1) above a, as a container."""
        if level == 0:
            return frozenset(y for y in range(len(self.base)) if self.base.leq[a][y])
        if level == 1:
            return (self._up1 or self._stage1_up())[a]
        raise CapExceeded(f"no up-sets in stage {level}")

    def _stage1_up(self) -> tuple:
        """The stage-1 order as up-set rows: row f is the frozenset of the
        positions of the elements above f.

        g is above f when f(x) <= g(x) at every base index x, so f's row is
        the intersection over x of the elements whose value at x is above
        f(x): one per-index value set per (x, f(x)), smallest first.
        """
        if self._up1 is None:
            n, leq0, tables = len(self.base), self.base.leq, self.stage1_tables
            above = [[frozenset(i for i in self.stage1 if leq0[v][tables[i][x]])
                      for v in range(n)] for x in range(n)]
            rows = tuple(frozenset.intersection(*sorted(map(
                list.__getitem__, above, f), key=len)) for f in tables)
            self._least[1].update(zip(rows, self.stage1))
            self._up1 = rows
        return self._up1

    def bottom(self, level: int):
        if level == 0:
            return self.base.bottom
        if level == 1:
            return self._const1[self.base.bottom]
        if level == 2:
            return (self.bottom(1),) * len(self.stage1)
        raise CapExceeded("no bottom representation above stage 2")

    # -- evaluation ------------------------------------------------------

    def apply(self, level: int, f, x):
        """Apply a stage-`level` element (level >= 1) to a stage-(level-1) one."""
        if level == 3:  # a filled probe vector is read with no further call
            return (f.probed or self.at_probes(f))[x.pos] if type(x) is Probe else f.eval(x)
        if level == 2:
            return f[x]
        if level == 1:
            return self.stage1_tables[f][x]
        raise CapExceeded(f"cannot apply a stage-{level} element")

    # -- projection pairs --------------------------------------------------

    def emb(self, n: int, x):
        """f_n^+ : stage n -> stage n+1."""
        if n == 0:
            return self._const1[x]
        if n == 1:
            probe = self._emb1.get(x)
            if probe is None:
                const, g, bot = self._const1, self.stage1_tables[x], self.base.bottom
                probe = self._emb1[x] = Probe(const[g[u[bot]]] for u in self.stage1_tables)
                probe.pos = x
            return probe
        if n == 2:
            def at(w):  # e_1(x(p_1 w)), with p_1 e_1 = id and the _emb1 read inlined
                g = self.apply(2, x, w.pos if type(w) is Probe else self.proj(1, w))
                probe = self._emb1.get(g)
                return self.emb(1, g) if probe is None else probe
            return LazyMono(at, key=("emb2", x))
        raise CapExceeded(f"no embedding representation from stage {n}")

    def proj(self, n: int, u):
        """f_n^- : stage n+1 -> stage n."""
        if n == 0:
            return self.stage1_tables[u][self.base.bottom]
        if n == 1:
            if type(u) is Probe:  # p_1 e_1 is the identity
                return u.pos
            # u applied to the constant map at x, then evaluated at bottom
            bot, tables = self.base.bottom, self.stage1_tables
            return self._position(tuple([tables[u[i]][bot] for i in self._const1]))
        if n == 2:
            # u at the probes emb(1, g), its whole vector; p_1 e_1 = id reads
            # each probe's pos, and a stage-2 value that is not a probe, a
            # plain tuple, has none, so it takes proj(1, .)
            values = self.at_probes(u)
            try:
                return tuple(map(_POS, values))
            except AttributeError:
                return tuple([v.pos if type(v) is Probe else self.proj(1, v) for v in values])
        raise CapExceeded(f"no projection representation to stage {n}")

    def tabulate(self, n: int, fn: Callable):
        """The stage-(n+1) element x |-> fn(x), for fn monotone on stage n:
        the stage-1 position of its table at n = 0, a table over stage 1 at
        n = 1, and at n = 2 a LazyMono that evaluates fn only when applied
        or compared."""
        if n == 0:
            return self._position(tuple(map(fn, self.domain(0))))
        if n == 1:
            return tuple(map(fn, self.stage1))
        if n == 2:
            return LazyMono(fn)
        raise CapExceeded(f"no tabulation over stage {n}")

    def _position(self, table: tuple) -> int:
        try:
            return self.stage1_index[table]
        except KeyError:  # not monotone
            raise NotInStage(f"table {table} is not a stage-1 element") from None

    # -- probes for the lazy top stage ------------------------------------

    def stage2_probes(self) -> tuple:
        """The probe family for comparing stage-3 elements: e_1(D_1), the
        table emb(1, g) of each stage-1 element g in stage-1 order, so a
        stage-3 map's probe vector is indexed as a stage-2 table is."""
        if self._probes is None:
            self._probes = tuple(self.emb(1, g) for g in self.stage1)
        return self._probes

    def at_probes(self, u: "LazyMono") -> list:
        """The values of the stage-3 element u at stage2_probes(), in order:
        `u.probed`, which the first read fills with u.fn at every probe (an
        fn that raises leaves it empty) and later reads return as it is."""
        if not u.probed:
            u.probed[:] = map(u.fn, self.stage2_probes())
        return u.probed


class LazyMono:
    """A stage-3 element backed by evaluation, memoized; carries an optional
    construction key so embedded elements compare exactly.  `probed` holds
    its values at the probe family, empty until Tower.at_probes fills it
    whole on the first read at the probes; `memo` holds its values at any
    other argument, read through eval."""

    def __init__(self, fn: Callable, key=None):
        self.fn = fn
        self.key = key
        self.memo: dict = {}
        self.probed: list = []

    def eval(self, w):
        value = self.memo.get(w)
        if value is None:
            value = self.memo[w] = self.fn(w)
        return value


def step_map(tower: Tower, level: int, a, b):
    """The compact step map at `level`: x maps to b when a <= x, else bottom."""
    above = tower.up_set(level, a)
    bot = tower.bottom(level)
    return tower.tabulate(level, lambda x: b if x in above else bot)


def lub(tower: Tower, level: int, xs) -> Optional[object]:
    """Least upper bound of finitely many stage elements, or None when the
    set has none: a fold of the two-argument join."""
    xs = iter(xs)
    out = next(xs, None)
    if out is None:
        return tower.bottom(level)
    for x in xs:
        out = _join(tower, level, out, x)
        if out is None:
            return None
    return out


def _join(tower: Tower, level: int, x, y):
    """x join y, or None when they have no least upper bound.

    At stages 0 and 1 the join is the element whose up-set is the common
    up-set of x and y, if there is one, read from the tower's `_least` map.
    Stage-2 joins are pointwise, so on a base that is not bounded-complete
    one may be None although a join exists.
    """
    if x is y:
        return x
    if level == 1:
        bot = tower.bottom(1)
        if x == bot:
            return y
        if y == bot:
            return x
    if level < 2:
        common = tower.up_set(level, x) & tower.up_set(level, y)
        return tower._least[level].get(common)
    slots = []
    for s, t in zip(x, y):
        j = _join(tower, level - 1, s, t)
        if j is None:
            return None
        slots.append(j)
    return tuple(slots)


def step_join_sample(tower: Tower, rng: random.Random, n: int) -> list:
    """Up to n distinct joins of two stage-2 step maps between random
    stage-1 elements, drawn a, b, c, d per attempt, in at most 40 n
    attempts; the stage-2 sample of `kinfty check`."""
    out, seen, elems = [], set(), tower.stage1
    for _ in range(40 * n):
        if len(out) == n:
            break
        a, b, c, d = (rng.choice(elems) for _ in range(4))
        j = lub(tower, 2, [step_map(tower, 1, a, b), step_map(tower, 1, c, d)])
        if j is not None and j not in seen:
            seen.add(j)
            out.append(j)
    return out


def check_projection_pair(tower: Tower, n: int, sample=()) -> dict:
    """Retract law on all of stage n; section inequality on stage n+1
    (enumerated when possible, otherwise on the sample).  The failures list
    a stage-1 element as its table."""
    tables = tower.stage1_tables.__getitem__
    retract_failures = [tables(x) if n else x for x in tower.domain(n)
                        if tower.proj(n, tower.emb(n, x)) != x]
    uppers = tower.stage1 if n == 0 else tuple(sample)
    section_failures = [tuple(map(tables, u)) if n else tables(u) for u in uppers
                        if not tower.leq(n + 1, tower.emb(n, tower.proj(n, u)), u)]
    return {
        "stage": n,
        "retract_checked": len(tower.domain(n)),
        "retract_failures": retract_failures,
        "section_checked": len(uppers),
        "section_failures": section_failures,
        "ok": not retract_failures and not section_failures,
    }
