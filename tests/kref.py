"""A reference K-infinity built from the textbook definitions, and `diff`,
which compares the public operations of lamtower.domains and
lamtower.kinfinity with it through `Tabled`, the tower read in tables.

Stage 0 is the base and stage n+1 the monotone self-maps of stage n, ordered
pointwise.  The projection pairs are e_0(x), the constant map at x, and
p_0(g) = g(bottom), then e_n(f) = e_{n-1} f p_{n-1} and
p_n(g) = p_{n-1} g e_{n-1} (Abramsky & Jung, Domain Theory, 1994, §3-5).
Stage 1 is enumerated by its definition; stage-1 and stage-2 elements are
tables over the enumeration of the stage below, a stage-3 element is a plain
function that evaluates anew at each call, and a thread is the tuple of its
coordinates.  The model keeps only its enumeration and an index of it: it
caches no value, tests no identity and shares no row.  `lift` carries an
order automorphism of the base to stages 1-3, `tower_lift` to the tower's
elements and `lift_thread` to its threads.
"""

import itertools
import random
from functools import partial, reduce

from lamtower import domains, kinfinity as K


class Ref:
    def __init__(self, base):
        self.base, self.d0 = base, tuple(range(len(base)))
        tables = itertools.product(self.d0, repeat=len(base))
        self.d1 = tuple(t for t in tables if self.monotone(0, t))
        self.index = {t: i for i, t in enumerate(self.d1)}

    def domain(self, n):
        return self.d1 if n else self.d0

    def monotone(self, n, table):
        dom = self.domain(n)
        return all(self.leq(n, table[i], table[j])
                   for i, j in itertools.product(range(len(dom)), repeat=2)
                   if self.leq(n, dom[i], dom[j]))

    def bottom(self, n):
        return self.base.bottom if n == 0 else (self.bottom(n - 1),) * len(self.domain(n - 1))

    def leq(self, n, a, b, points=()):
        """The pointwise order; a stage-3 map is read at `points`, or given
        as the list of its values at some points."""
        if n == 0:
            return self.base.leq[a][b]
        if n == 3:
            a, b = (map(a, points), map(b, points)) if callable(a) else (a, b)
            return all(map(partial(self.leq, 2), a, b))
        if n == 2:  # entry by entry of the base
            a, b = itertools.chain(*a), itertools.chain(*b)
        return all(map(tuple.__getitem__, map(self.base.leq.__getitem__, a), b))

    def eq(self, n, a, b, points=()):
        return a == b if n < 3 else self.leq(n, a, b, points) and self.leq(n, b, a, points)

    def up_set(self, n, a):
        return frozenset(z for z in self.domain(n) if self.leq(n, a, z))

    def join(self, n):
        """The join of a list of stage-n elements, n 0 or 1: the element
        whose up-set is the meet of theirs, or None.  Up-sets are bit masks;
        a stage-1 one is the meet over positions x of the tables above f(x)
        at x, as the order is pointwise."""
        leq, dom = self.base.leq, self.domain(n)
        above = [[sum(1 << j for j, g in enumerate(dom) if leq[v][g[x] if n else g])
                  for v in self.d0] for x in (self.d0 if n else [0])]
        ups = {a: reduce(int.__and__, map(list.__getitem__, above, a if n else [a]))
               for a in dom}
        by_up, top = {u: a for a, u in ups.items()}, (1 << len(dom)) - 1
        return lambda xs: by_up.get(reduce(int.__and__, map(ups.__getitem__, xs), top))

    def lub(self, n, xs, join=None):
        """At stage 2 slot by slot, None where a slot has no join, as the
        tower's stage-2 join."""
        join = join or self.join(min(n, 1))
        if n < 2:
            return join(xs)
        slots = list(map(join, zip(*xs) if xs else [()] * len(self.d1)))
        return None if None in slots else tuple(slots)

    def apply(self, n, f, x):
        return f(x) if n == 3 else f[self.index[x] if n == 2 else x]

    def tabulate(self, n, fn):
        return fn if n == 2 else tuple(map(fn, self.domain(n)))

    def emb(self, n, x):
        if n == 0:
            return (x,) * len(self.d0)
        return self.tabulate(n, lambda h: self.emb(n - 1, self.apply(n, x, self.proj(n - 1, h))))

    def proj(self, n, u):
        if n == 0:
            return self.apply(1, u, self.base.bottom)
        return self.tabulate(
            n - 1, lambda x: self.proj(n - 1, self.apply(n + 1, u, self.emb(n - 1, x))))

    def step_map(self, n, a, b):
        bot = self.bottom(n)
        return self.tabulate(n, lambda x: b if self.leq(n, a, x) else bot)

    def embed(self, n, u, depth):
        coords = [u]
        for m in reversed(range(n)):
            coords.insert(0, self.proj(m, coords[0]))
        for m in range(n, depth):
            coords.append(self.emb(m, coords[-1]))
        return tuple(coords)

    def shadow(self, n, x, y):
        return self.embed(n, self.apply(n + 1, x[n + 1], y[n]), len(x) - 1)

    def app(self, x, y):
        return self.shadow(len(x) - 2, x, y)

    def restrict(self, g, n, depth):
        return self.tabulate(n, lambda u: g(self.embed(n, u, depth))[n])

    def reify(self, g, depth):
        rs = tuple(self.restrict(g, n, depth) for n in range(depth))
        return (self.proj(0, rs[0]),) + rs

    def coherent(self, x):
        return all(self.proj(n, x[n + 1]) == x[n] for n in range(len(x) - 1))

    def lift(self, sigma):
        """The order automorphism sigma of the base (sigma[x] the image of x)
        lifted to the stages, as act(n, x): sigma at stage 0 and, at stage
        n + 1, conjugation by stage n's, act(n + 1, f) = act(n) f act(n)^-1."""
        inv = tuple(sorted(self.d0, key=sigma.__getitem__))
        perm = {f: tuple(sigma[f[inv[y]]] for y in self.d0) for f in self.d1}
        back = {g: f for f, g in perm.items()}

        def mover(by, before):  # a stage-2 table's entries moved by `by`, slot h read at before[h]
            slots = [self.index[before[h]] for h in self.d1]
            return lambda table: tuple(map(by.__getitem__, map(table.__getitem__, slots)))
        forward, backward = mover(perm, back), mover(back, perm)

        def act(n, x):
            if n == 0:
                return sigma[x]
            if n == 1:
                return perm[x]
            if n == 2:
                return forward(x)
            return lambda w: forward(x(backward(w)))
        return act


def automorphisms(base):
    """Every order automorphism of the base, identity included."""
    n = range(len(base))
    return [p for p in itertools.permutations(n)
            if all(base.leq[x][y] == base.leq[p[x]][p[y]] for x in n for y in n)]


def tower_lift(ref, tower, sigma):
    """The order automorphism sigma of the base of ref and the tower on
    the tower's own elements, as act(n, u) for n 0 to 3: stage 1 conjugated
    as Ref.lift does, read as a permutation of positions, and each stage
    above conjugated by the one below.  A probe e_1(g) goes to the probe
    e_1(sigma g), any other stage-2 table to a plain table, and a stage-3
    map to one the tower tabulates and evaluates on demand."""
    act1 = ref.lift(sigma)
    perm = [ref.index[act1(1, f)] for f in ref.d1]
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    probes = tower.stage2_probes()

    def conj(u, by, at):  # by . u . at, as tables of positions
        i = tower.probe_position(u)
        return tuple(map(by.__getitem__, map(u.__getitem__, at))) if i is None else probes[by[i]]

    def act(n, u):
        if n == 0:
            return sigma[u]
        if n == 1:
            return perm[u]
        if n == 2:
            return conj(u, perm, inv)
        return tower.tabulate(2, lambda w: conj(tower.apply(3, u, conj(w, inv, perm)), perm, inv))
    return act


def lift_thread(ref, tower, sigma):
    """sigma on the tower's threads, coordinate by coordinate (tower_lift)."""
    act = tower_lift(ref, tower, sigma)
    return lambda x: K.Thread(tower, tuple(map(act, range(x.depth + 1), x.coords)), check=False)


def element(tower, table):
    """The stage-1 element of the tower whose table is `table`: how tests
    write a stage-1 element."""
    return tower.stage1_tables.index(tuple(table))


class _Seen(tuple):
    """A stage-2 value of the tower in tables, with the tower's own object
    (`raw`), which Tabled.to gives back: a probe stays that probe."""


class Tabled:
    """The tower in the reference's representation, the one place where
    arguments become the tower's elements and values become tables again.

    A stage-1 element is its table and a stage-2 one its tuple of tables;
    stage-0 elements and stage-3 maps pass as they are.  A table that is no
    stage-1 element stays a table, which the tower rejects.  A stage-2 value
    keeps the tower's object (`_Seen`), so it goes back as that object; an
    equal copy goes back as a new tuple.
    """

    def __init__(self, tower):
        self.tower, self.tables = tower, tower.stage1_tables
        self.index = {t: i for i, t in enumerate(self.tables)}

    def to(self, n, x):
        """The tower's element for the reference's x of stage n."""
        if n == 1:
            return self.index.get(x, x)
        if n == 2:
            return x.raw if type(x) is _Seen else tuple(map(self.index.get, x, x))
        return x

    def of(self, n, x):
        """The reference's value for the tower's x of stage n (None stays)."""
        if x is None or n == 0 or n == 3:
            return x
        if n == 1:
            return self.tables[x]
        seen = _Seen(map(self.tables.__getitem__, x))
        seen.raw = x
        return seen

    def coords(self, thread):
        return tuple(map(self.of, range(len(thread.coords)), thread.coords))

    def domain(self, n):
        return tuple(self.of(n, x) for x in self.tower.domain(n))

    def bottom(self, n):
        return self.of(n, self.tower.bottom(n))

    def apply(self, n, f, x):
        return self.of(n - 1, self.tower.apply(n, self.to(n, f), self.to(n - 1, x)))

    def emb(self, n, x):
        return self.of(n + 1, self.tower.emb(n, self.to(n, x)))

    def proj(self, n, u):
        return self.of(n, self.tower.proj(n, self.to(n + 1, u)))

    def leq(self, n, a, b):
        return self.tower.leq(n, self.to(n, a), self.to(n, b))

    def eq(self, n, a, b):
        return self.tower.eq(n, self.to(n, a), self.to(n, b))

    def up_set(self, n, a):
        return frozenset(self.of(n, y) for y in self.tower.up_set(n, self.to(n, a)))

    def tabulate(self, n, fn):
        return self.of(n + 1, self.tower.tabulate(n, lambda x: self.to(n, fn(self.of(n, x)))))

    def stage2_probes(self):
        return tuple(self.of(2, w) for w in self.tower.stage2_probes())

    def probe_position(self, w):
        return self.tower.probe_position(self.to(2, w))

    def at_probes(self, u):
        return [self.of(2, v) for v in self.tower.at_probes(u)]

    def step_map(self, n, a, b):
        return self.of(n + 1, domains.step_map(self.tower, n, self.to(n, a), self.to(n, b)))

    def lub(self, n, xs):
        return self.of(n, domains.lub(self.tower, n, [self.to(n, x) for x in xs]))

    def step_join_sample(self, rng, k):
        return [self.of(2, j) for j in domains.step_join_sample(self.tower, rng, k)]

    def stage_embed(self, n, u, depth):
        return K.stage_embed(self.tower, n, self.to(n, u), depth)


def diff(tower) -> list:
    """Every disagreement of the tower with the reference, as tuples
    (operation, stage or depth, arguments, tower's value, reference's value),
    all in the reference's tables: the tower is read through Tabled.

    Stages 0 to 3 and threads of depths 1 to 3 are read at every stage-1
    element of a base with at most 4 elements, else at 16 seeded ones;
    stage 2 at bottom, the probe e_1(g) of each of those g and an equal copy
    of it, three step maps and three step joins.  Below stage 2 every pair
    is compared, the join of every pair of the whole stage and of three
    elements from each; a stage-2 element with itself, its copy and every
    twelfth other, and the join of every pair of step maps (of 400 seeded
    pairs past 150 maps).  A stage-3 map and the order of three threads are
    compared at every probe, a reification at the probes of the elements
    read, other stage-3 values at a probe and a step join.  Every sixth
    embedded thread is cut to each depth up to its own.
    """
    ref, out, rng, T = Ref(tower.base), [], random.Random(0), Tabled(tower)

    def check(op, n, args, got, want):
        if got != want:
            out.append((op, n, args, got, want))

    def same(op, n, *args):  # the tower's method or domains function, and the reference's
        check(op, n, args, getattr(T, op)(n, *args), getattr(ref, op)(n, *args))

    same("domain", 1)
    if T.domain(1) != ref.d1:
        return out  # nothing else lines up
    s, joins = len(ref.d1), [ref.join(0), ref.join(1)]
    pick = range(s) if len(ref.d0) <= 4 else sorted(rng.sample(range(s), 16))
    e1 = [ref.d1[i] for i in pick]
    probes = T.stage2_probes()
    ws = [probes[i] for i in pick]
    steps = sorted({T.step_map(1, a, b) for a in e1 for b in e1})
    extra = [tuple(list(w)) for w in ws] + steps[-3:]
    extra += T.step_join_sample(random.Random(0), 3)
    elems = [list(ref.d0), e1, [T.bottom(2)] + ws + extra]
    points = ws[-1:] + extra[-1:]
    check("stage2_probes", 2, (), probes, tuple(ref.emb(1, g) for g in ref.d1))
    check("probe_position", 2, (), list(map(T.probe_position, elems[2])),
          [None] + list(pick) + [None] * len(extra))
    pairs = (itertools.combinations_with_replacement(steps, 2) if len(steps) <= 150
             else [(rng.choice(steps), rng.choice(steps)) for _ in range(400)])
    for p in pairs:
        check("lub", 2, p, T.lub(2, p), ref.lub(2, p, joins[1]))

    for n, xs in enumerate(elems):  # stages 0 to 2
        same("bottom", n)
        few = xs[::max(1, len(xs) // 12)]
        for a in xs:
            if n:
                below = elems[n - 1]
                check("apply", n, (a,), [T.apply(n, a, x) for x in below],
                      [ref.apply(n, a, x) for x in below])
                same("proj", n - 1, a)
            for b in (xs if n < 2 else few + [a, tuple(list(a))]):
                same("leq", n, a, b)
                same("eq", n, a, b)
        if n < 2:
            same("domain", n)
            same("tabulate", n, lambda x: x)
            every = T.domain(n)
            triples = [xs[i:i + 3] for i in range(len(xs))]
            for ys in [[]] + triples + [[a, b] for a in every for b in every]:
                check("lub", n, ys, T.lub(n, ys), joins[n](ys))
            for a in xs:
                same("up_set", n, a)
                same("emb", n, a)
                for b in few:
                    same("step_map", n, a, b)

    def values(u, at=None):  # a tower's or the reference's stage-3 value
        at = points if at is None else at
        return [T.apply(3, u, w) if isinstance(u, domains.LazyMono) else u(w) for w in at]

    def view(coords, at=None):  # a thread, its stage-3 coordinate by its values
        return coords[:3] + tuple(values(c, at) for c in coords[3:])

    def mine(thread, at=None):  # a tower's thread, viewed
        return view(T.coords(thread), at)

    # keyed maps, and one with no key whose values are probe copies
    maps = [(T.emb(2, w), ref.emb(2, w)) for w in [elems[2][0]] + points + extra[:1]]
    maps.append((T.tabulate(2, lambda w: tuple(list(w))), lambda w: w))
    vecs = [values(f, probes) for _, f in maps]
    for (a, _), va in zip(maps, vecs):
        for (b, _), vb in zip(maps, vecs):
            check("eq", 3, (a, b), T.eq(3, a, b), va == vb)
            check("leq", 3, (a, b), T.leq(3, a, b), ref.leq(3, va, vb))
    for (u, f), v in zip(maps, vecs):
        check("apply", 3, (u,), values(u), values(f))
        check("at_probes", 3, (u,), T.at_probes(u), v)
        check("proj", 2, (u,), T.proj(2, u), tuple(map(partial(ref.proj, 1), v)))

    for d in (1, 2, 3):
        keys = [(0, x, x) for x in ref.d0] + [(1, g, g) for g in elems[1]]
        keys += [(2, w, w) for w in elems[2][1:]] * (d > 1) + [(3,) + maps[-1]] * (d > 2)
        threads = [(T.stage_embed(n, u, d), ref.embed(n, ru, d)) for n, u, ru in keys]
        for (x, rx), (n, u, _) in zip(threads, keys):
            check("stage_embed", d, (n, u), mine(x), view(rx))
        for e in range(d + 1):
            for x, rx in threads[::max(1, len(threads) // 6)]:
                check("cut", d, (x, e), mine(K.cut(x, e)), view(rx[:e + 1]))
        for n in (0, 1):
            check("thread_row", d, (n,), [T.coords(x)[:3] for x in K.thread_row(tower, n, d)],
                  [ref.embed(n, u, d)[:3] for u in ref.domain(n)])
        check("bottom_thread", d, (), mine(K.bottom_thread(tower, d)),
              view(ref.embed(0, tower.base.bottom, d)))
        x, rx = threads[-1]
        bad = ((x.coords[0] + 1) % len(ref.d0),) + x.coords[1:]
        got = [K.coherent(K.Thread(tower, c, check=False)) for c in (x.coords, bad)]
        check("coherent", d, (), got, [ref.coherent(c) for c in (rx, bad[:1] + rx[1:])])
        # three threads: their order and shadows, and their application to
        # every eighth thread
        some = threads[::max(1, len(threads) // 3)][:3]
        full = [view(rx, probes) for _, rx in some]
        for (x, rx), xv in zip(some, full):
            for (y, ry), yv in zip(some, full):
                check("thread_eq", d, (x, y), K.thread_eq(x, y), xv == yv)
                check("thread_le", d, (x, y), K.thread_le(x, y),
                      all(map(ref.leq, range(d + 1), xv, yv)))
                for n in range(d - 1):
                    check("app_shadow", d, (n, x, y), mine(K.app_shadow(n, x, y)),
                          view(ref.shadow(n, rx, ry)))
            for y, ry in threads[::8]:
                check("app", d, (x, y), mine(K.app(x, y)), view(ref.app(rx, ry)))
        # an endomap of each kind, from those threads, the next-to-last one
        # and an unshared point
        gs = [(K.Identity(), lambda y: y), (K.Constant(x), lambda y, v=rx: v)]
        gs += [(K.FromThread(x), partial(ref.app, rx)) for x, rx in some + threads[-2:-1]]
        gs.append((K.FromThread(K.reify(K.Identity(), d, tower)),
                   partial(ref.app, ref.reify(lambda y: y, d))))
        for g, rg in gs:
            rr = ref.reify(rg, d)
            check("reify", d, (g,), mine(K.reify(g, d, tower), ws), view(rr, ws))
            for n in range(d):
                r = K.restrict(g, n, d, tower)
                check("restrict", d, (g, n), values(r) if n == 2 else T.of(n + 1, r),
                      values(rr[3]) if n == 2 else rr[n + 1])
    return out
