"""Every small de Bruijn term, and an independent normal-form oracle.

`all_terms(max_size, free)` lists every term of at most `max_size` nodes
whose free variables are among #0 .. #(free - 1), by size, in a fixed
order.  `nbe(t, free, fuel)` is untyped normalization by evaluation: terms
evaluate to closures or neutral spines, arguments are passed as lazy
thunks, each beta step spends one unit of fuel, and the read-back beta
normal form is then eta-normalized bottom up.  Since the beta-eta normal
form is unique, eta-normalizing the beta normal form gives it (Berger &
Schwichtenberg, LICS 1991).  The oracle shares no code with
lamtower.terms but the three term constructors.
"""

from functools import cache

from lamtower.terms import App, Lam, Var


@cache
def _terms(size, scope):
    if size == 1:
        return tuple(map(Var, range(scope)))
    out = [Lam(b) for b in _terms(size - 1, scope + 1)]
    for k in range(1, size - 1):
        out += [App(f, a) for f in _terms(k, scope) for a in _terms(size - 1 - k, scope)]
    return tuple(out)


def all_terms(max_size, free):
    return [t for size in range(1, max_size + 1) for t in _terms(size, free)]


class OutOfFuel(Exception):
    pass


class _Clo:  # a lambda's body with its environment of thunks
    __slots__ = ("body", "env")

    def __init__(self, body, env):
        self.body, self.env = body, env


class _Neu:  # a variable, as a de Bruijn level, applied to thunks
    __slots__ = ("level", "args")

    def __init__(self, level, args=()):
        self.level, self.args = level, args


class _Thunk:
    __slots__ = ("term", "env", "value")

    def __init__(self, term, env, value=None):
        self.term, self.env, self.value = term, env, value

    def force(self, fuel):
        if self.value is None:
            self.value = _eval(self.term, self.env, fuel)
        return self.value


def _eval(t, env, fuel):
    if isinstance(t, Var):
        return env[t.index].force(fuel)
    if isinstance(t, Lam):
        return _Clo(t.body, env)
    f, arg = _eval(t.fun, env, fuel), _Thunk(t.arg, env)
    if isinstance(f, _Neu):
        return _Neu(f.level, f.args + (arg,))
    fuel[0] -= 1
    if fuel[0] < 0:
        raise OutOfFuel
    return _eval(f.body, (arg,) + f.env, fuel)


def _quote(v, depth, fuel):
    if isinstance(v, _Clo):
        fresh = _Thunk(None, None, _Neu(depth))
        return Lam(_quote(_eval(v.body, (fresh,) + v.env, fuel), depth + 1, fuel))
    t = Var(depth - 1 - v.level)
    for a in v.args:
        t = App(t, _quote(a.force(fuel), depth, fuel))
    return t


def _occurs(t, k):
    if isinstance(t, Var):
        return t.index == k
    if isinstance(t, Lam):
        return _occurs(t.body, k + 1)
    return _occurs(t.fun, k) or _occurs(t.arg, k)


def _drop(t, k=0):
    """t with its free variable #k gone: the indices above k move down one."""
    if isinstance(t, Var):
        return Var(t.index - (t.index > k))
    if isinstance(t, Lam):
        return Lam(_drop(t.body, k + 1))
    return App(_drop(t.fun, k), _drop(t.arg, k))


def _eta(t):
    if isinstance(t, Var):
        return t
    if isinstance(t, App):
        return App(_eta(t.fun), _eta(t.arg))
    body = _eta(t.body)
    if isinstance(body, App) and body.arg == Var(0) and not _occurs(body.fun, 0):
        return _drop(body.fun)
    return Lam(body)


def nbe(t, free, fuel):
    """The beta-eta normal form of t, whose free variables are below
    `free`; OutOfFuel after `fuel` beta steps."""
    env, budget = tuple(_Thunk(None, None, _Neu(free - 1 - i)) for i in range(free)), [fuel]
    return _eta(_quote(_eval(t, env, budget), free, budget))
