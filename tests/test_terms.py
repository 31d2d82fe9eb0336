import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamtower.gen import _all_paths, gen_term
from lamtower.terms import (App, Dir, EtaFreeVarViolation, FuelExhausted,
                            InvalidStep, Lam, NegativeIndex, RedStep, StepKind,
                            Var, apply_step, find_redexes, first_redex,
                            free_in, invert_step, normalize, shift, subst,
                            term_size, to_text)

OMEGA = App(Lam(App(Var(0), Var(0))), Lam(App(Var(0), Var(0))))
# (\x. x x x) (\x. x x x): every step grows the spine by one application.
_TRIPLE = Lam(App(App(Var(0), Var(0)), Var(0)))
LOOPING = App(_TRIPLE, _TRIPLE)
SPAN_M = App(Lam(App(Var(1), Var(0))), Var(1))
SPAN_N = App(Var(0), Var(1))


# --- independent named-variable oracle -------------------------------------

def _named(t, binders, offset, _counter=None):
    """Convert to a named tree; free index j reads as x{j - depth + offset}."""
    if _counter is None:
        _counter = [0]
    if isinstance(t, Var):
        if t.index < len(binders):
            return ("var", binders[t.index])
        return ("var", f"x{t.index - len(binders) + offset}")
    if isinstance(t, App):
        return ("app", _named(t.fun, binders, offset, _counter),
                _named(t.arg, binders, offset, _counter))
    _counter[0] += 1
    fresh = f"b{_counter[0]}"
    return ("lam", fresh, _named(t.body, [fresh] + binders, offset, _counter))


def _alpha_eq(a, b, env=None):
    env = env or {}
    if a[0] != b[0]:
        return False
    if a[0] == "var":
        return env.get(a[1], a[1]) == b[1]
    if a[0] == "app":
        return _alpha_eq(a[1], b[1], env) and _alpha_eq(a[2], b[2], env)
    env2 = dict(env)
    env2[a[1]] = b[1]
    return _alpha_eq(a[2], b[2], env2)


def _named_subst(t, name, repl):
    # The replacement is closed over the binder names in play (all binders are
    # fresh), so no capture-avoidance renaming is needed.
    if t[0] == "var":
        return repl if t[1] == name else t
    if t[0] == "app":
        return ("app", _named_subst(t[1], name, repl), _named_subst(t[2], name, repl))
    return ("lam", t[1], _named_subst(t[2], name, repl))


terms_strategy = st.integers(0, 10 ** 6).map(
    lambda s: gen_term(random.Random(s), 9))
larger_terms = st.integers(0, 10 ** 6).map(
    lambda s: gen_term(random.Random(s), 40))


# --- shift ------------------------------------------------------------------

def test_shift_examples():
    assert shift(1, 0, Var(0)) == Var(1)
    assert shift(1, 0, Lam(Var(0))) == Lam(Var(0))
    # frozen from the shifting convention; cross-checked by the named oracle
    assert shift(-1, 0, App(Var(1), Var(2))) == App(Var(0), Var(1))


def test_shift_negative_index():
    with pytest.raises(NegativeIndex):
        shift(-1, 0, Var(0))


@given(st.one_of(terms_strategy, larger_terms), st.integers(0, 4))
def test_shift_by_zero_is_the_term_itself(t, cutoff):
    # terms are immutable, so there is nothing to copy
    assert shift(0, cutoff, t) is t


def test_subst_shares_the_argument_under_no_binder():
    n = Lam(App(Var(0), Var(3)))
    assert subst(Var(0), n) is n
    out = subst(App(Var(0), Lam(Var(1))), n)
    assert out.fun is n and out.arg.body == shift(1, 0, n)


@given(terms_strategy, st.integers(1, 3))
def test_shift_preserves_named_view(t, d):
    # free index a becomes a+d; reading the result with offset -d undoes it
    assert _alpha_eq(_named(shift(d, 0, t), [], -d), _named(t, [], 0))


# --- subst ------------------------------------------------------------------

def test_subst_examples():
    assert subst(Var(0), Var(7)) == Var(7)
    # the span substitution xz[y/z] = xy under x -> #0, y -> #1 outside
    assert subst(App(Var(1), Var(0)), Var(1)) == App(Var(0), Var(1))
    assert subst(Lam(Var(0)), Var(3)) == Lam(Var(0))


@given(terms_strategy, terms_strategy)
def test_subst_matches_named_oracle(m, n):
    named_m = _named(m, [], 0)          # index 0 reads as x0: the target
    named_n = _named(n, [], 1)          # offset by one: n sits under no binder
    expected = _named_subst(named_m, "x0", named_n)
    # In the result, old index j+1 becomes j, so read frees with offset 1.
    actual = _named(subst(m, n), [], 1)
    assert _alpha_eq(actual, expected)


@given(terms_strategy, terms_strategy)
def test_subst_after_shift_cancels(m, n):
    assert subst(shift(1, 0, m), n) == m


# --- shift and subst against their separate loops --------------------------

_POP_APP = object()
_POP_LAM = object()


def _shift_reference(d, cutoff, t):
    """shift as its own rebuild loop, before it shared one with subst."""
    work = [(t, cutoff)]
    out = []
    while work:
        item = work.pop()
        if item is _POP_APP:
            arg = out.pop()
            fun = out.pop()
            out.append(App(fun, arg))
        elif item is _POP_LAM:
            out.append(Lam(out.pop()))
        else:
            node, c = item
            if isinstance(node, Var):
                if node.index >= c:
                    if node.index + d < 0:
                        raise NegativeIndex(f"shift({d}) drops index {node.index} below zero")
                    out.append(Var(node.index + d))
                else:
                    out.append(node)
            elif isinstance(node, App):
                work.append(_POP_APP)
                work.append((node.arg, c))
                work.append((node.fun, c))
            else:
                work.append(_POP_LAM)
                work.append((node.body, c + 1))
    return out[0]


def _subst_reference(m, n):
    """subst as its own rebuild loop, before it shared one with shift."""
    work = [(m, 0)]
    out = []
    while work:
        item = work.pop()
        if item is _POP_APP:
            arg = out.pop()
            fun = out.pop()
            out.append(App(fun, arg))
        elif item is _POP_LAM:
            out.append(Lam(out.pop()))
        else:
            node, j = item
            if isinstance(node, Var):
                if node.index == j:
                    out.append(_shift_reference(j, 0, n))
                elif node.index > j:
                    out.append(Var(node.index - 1))
                else:
                    out.append(node)
            elif isinstance(node, App):
                work.append(_POP_APP)
                work.append((node.arg, j))
                work.append((node.fun, j))
            else:
                work.append(_POP_LAM)
                work.append((node.body, j + 1))
    return out[0]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NegativeIndex as e:
        return ("NegativeIndex", str(e))


@given(st.one_of(terms_strategy, larger_terms), st.integers(-3, 3), st.integers(0, 4))
@settings(max_examples=300)
def test_shift_matches_separate_loop(t, d, cutoff):
    assert _outcome(shift, d, cutoff, t) == _outcome(_shift_reference, d, cutoff, t)


def test_shift_negative_index_matches_separate_loop():
    t = Lam(App(Var(0), App(Var(2), Var(1))))
    expected = ("NegativeIndex", "shift(-2) drops index 1 below zero")
    assert _outcome(shift, -2, 0, t) == _outcome(_shift_reference, -2, 0, t) == expected


@given(st.one_of(terms_strategy, larger_terms), terms_strategy)
@settings(max_examples=300)
def test_subst_matches_separate_loop(m, n):
    assert subst(m, n) == _subst_reference(m, n)


def test_shift_subst_deep_spine_match_separate_loops():
    # 20 000 nodes deep, binders and applications mixed: both loops must be
    # iterative.  Compared by text, as == on such a term recurses.
    t = Var(0)
    for i in range(20_000):
        t = Lam(App(t, Var(i % 7))) if i % 3 else App(Var(i % 5), t)
    n = App(Var(0), Lam(Var(2)))
    for d, cutoff in ((1, 0), (3, 2), (-1, 40_000)):
        assert to_text(shift(d, cutoff, t)) == to_text(_shift_reference(d, cutoff, t))
    assert to_text(subst(t, n)) == to_text(_subst_reference(t, n))


# --- apply_step -------------------------------------------------------------

def test_beta_step_example():
    s = RedStep(StepKind.BETA, ())
    assert apply_step(SPAN_M, s) == SPAN_N


def test_eta_step_example():
    s = RedStep(StepKind.ETA, ())
    assert apply_step(Lam(App(Var(1), Var(0))), s) == Var(0)


def test_beta_inverse_carries_redex():
    redex = App(Lam(App(Var(1), Var(0))), Var(1))
    s = RedStep(StepKind.BETA, (), forward=False, redex=redex)
    assert apply_step(SPAN_N, s) == redex
    with pytest.raises(InvalidStep):
        apply_step(Var(5), s)
    with pytest.raises(InvalidStep):
        apply_step(SPAN_N, RedStep(StepKind.BETA, (), forward=False))


def test_eta_rejects_free_var_zero():
    with pytest.raises(EtaFreeVarViolation):
        apply_step(Lam(App(Var(0), Var(0))), RedStep(StepKind.ETA, ()))


def test_invalid_pattern():
    with pytest.raises(InvalidStep):
        apply_step(Var(0), RedStep(StepKind.BETA, ()))
    with pytest.raises(InvalidStep):
        apply_step(Var(0), RedStep(StepKind.BETA, (Dir.FUN,)))


def test_apply_step_path_leaving_term_is_invalid():
    t = App(Lam(App(Var(1), Var(0))), Lam(Var(0)))
    for path in ((Dir.BODY,), (Dir.ARG, Dir.FUN), (Dir.FUN, Dir.BODY, Dir.FUN, Dir.BODY),
                 (Dir.FUN, Dir.BODY, Dir.ARG, Dir.ARG)):
        for step in (RedStep(StepKind.BETA, path), RedStep(StepKind.ETA, path),
                     RedStep(StepKind.ETA, path, forward=False),
                     RedStep(StepKind.BETA, path, False, App(Lam(Var(0)), Var(0)))):
            with pytest.raises(InvalidStep, match="does not address a subterm"):
                apply_step(t, step)


# --- find_redexes -----------------------------------------------------------

def _brute_redexes(t):
    """Independent pattern scan over every path, with its own free-var check."""

    def fv(u):
        if isinstance(u, Var):
            return {u.index}
        if isinstance(u, App):
            return fv(u.fun) | fv(u.arg)
        return {i - 1 for i in fv(u.body) if i >= 1}

    found = []

    def walk(node, path):
        if isinstance(node, App) and isinstance(node.fun, Lam):
            found.append(RedStep(StepKind.BETA, path))
        if (isinstance(node, Lam) and isinstance(node.body, App)
                and node.body.arg == Var(0) and 0 not in fv(node.body.fun)):
            found.append(RedStep(StepKind.ETA, path))
        if isinstance(node, App):
            walk(node.fun, path + (Dir.FUN,))
            walk(node.arg, path + (Dir.ARG,))
        elif isinstance(node, Lam):
            walk(node.body, path + (Dir.BODY,))

    walk(t, ())
    return found


def test_find_redexes_examples():
    assert find_redexes(Var(3)) == []
    assert find_redexes(SPAN_M) == [RedStep(StepKind.BETA, ()),
                                    RedStep(StepKind.ETA, (Dir.FUN,))]
    # eta fails: #0 occurs free in the function part
    assert find_redexes(Lam(App(Var(0), Var(0)))) == []


@given(st.one_of(terms_strategy, larger_terms))
def test_find_redexes_matches_brute_force(t):
    reference = _brute_redexes(t)
    assert find_redexes(t) == reference
    assert first_redex(t) == (reference[0] if reference else None)
    for s in reference:
        apply_step(t, s)  # every returned path addresses its redex


def test_redex_paths_are_frozen_copies():
    # The walker reuses one path list; returned steps must not share it.
    t = App(Lam(Lam(App(Var(2), Var(0)))), App(Lam(Var(0)), Var(1)))
    steps = find_redexes(t)
    first = first_redex(t)
    find_redexes(LOOPING)
    first_redex(Lam(App(Lam(Var(0)), Var(0))))
    assert all(type(s.path) is tuple for s in steps + [first])
    assert steps == [RedStep(StepKind.BETA, ()),
                     RedStep(StepKind.ETA, (Dir.FUN, Dir.BODY)),
                     RedStep(StepKind.BETA, (Dir.ARG,))]
    assert first == steps[0]


def test_gen_all_paths_order_pinned():
    # rng.choice over this list picks every generated expansion site, so its
    # order (argument before function) fixes each seed's generated inputs.
    t = App(Lam(App(Var(0), Var(1))), App(Var(2), Lam(Var(0))))
    rendered = ["".join(d.value for d in p) for p in _all_paths(t)]
    assert rendered == ["", "a", "aa", "aal", "af", "f", "fl", "fla", "flf"]


# --- normalize --------------------------------------------------------------

def test_normalize_examples():
    assert normalize(Var(0), 10) == (Var(0), ())
    nf, trace = normalize(SPAN_M, 10)
    assert nf == SPAN_N
    assert len(trace) == 1 and trace[0].kind is StepKind.BETA
    with pytest.raises(FuelExhausted) as exc:
        normalize(OMEGA, 50)
    assert exc.value.term == OMEGA  # Omega reduces to itself


def test_normalize_looping_spine():
    with pytest.raises(FuelExhausted) as exc:
        normalize(LOOPING, 300)
    trace = exc.value.trace
    assert len(trace) == 300
    for i, s in enumerate(trace):
        assert s == RedStep(StepKind.BETA, (Dir.FUN,) * i)
    assert term_size(exc.value.term) == 7 * 300 + 13


def _normalize_reference(t, fuel):
    """normalize as one first_redex search and one apply_step per step."""
    trace = []
    while True:
        s = first_redex(t)
        if s is None:
            return "normal", t, tuple(trace)
        if fuel <= 0:
            return "exhausted", t, tuple(trace)
        fuel -= 1
        t = apply_step(t, s)
        trace.append(s)


def _normalize_outcome(t, fuel):
    try:
        nf, trace = normalize(t, fuel)
    except FuelExhausted as e:
        return "exhausted", e.term, e.trace
    return "normal", nf, trace


@given(st.one_of(terms_strategy, larger_terms))
@settings(max_examples=200)
def test_normalize_matches_search_and_apply_loop(t):
    for fuel in (0, 1, 5, 200):
        assert _normalize_outcome(t, fuel) == _normalize_reference(t, fuel)


def test_normalize_deep_normal_term_is_itself():
    # 20 000 levels of binders and variable-headed applications, no redex
    t = Var(0)
    for i in range(20_000):
        t = Lam(t) if i % 2 else App(Var(i % 3), t)
    assert find_redexes(t) == []
    nf, trace = normalize(t, 10)
    assert nf is t and trace == ()


def test_normalize_redex_under_deep_binders():
    depth = 20_000
    t = App(Lam(Var(0)), Var(5))
    for _ in range(depth):
        t = Lam(t)
    nf, trace = normalize(t, 10)
    assert trace == (RedStep(StepKind.BETA, (Dir.BODY,) * depth),)
    # compared by text, as == on such a term recurses
    assert to_text(nf) == "\\ . " * depth + "#5"


def _text_outcome(outcome):
    # terms compared by text, as == on a 20 000-deep term recurses
    status, t, trace = outcome
    return status, to_text(t), trace


def _check_deep_search(t, expected_paths):
    expected = [RedStep(StepKind.BETA, p) for p in expected_paths]
    assert first_redex(t) == expected[0]
    assert find_redexes(t) == expected
    for fuel in (2, 10):
        assert (_text_outcome(_normalize_outcome(t, fuel))
                == _text_outcome(_normalize_reference(t, fuel)))


def test_redex_search_down_a_deep_left_spine():
    # 20 000 applications nested in function position, variables as their
    # arguments; the only redex is the innermost argument
    depth = 20_000
    t = App(Var(1), App(Lam(Var(0)), Var(2)))
    for i in range(depth - 1):
        t = App(t, Var(i % 4))
    _check_deep_search(t, [(Dir.FUN,) * (depth - 1) + (Dir.ARG,)])
    assert to_text(normalize(t, 1)[0]) == "#1 #2" + "".join(
        f" #{i % 4}" for i in range(depth - 1))


def test_redex_search_through_alternating_nesting():
    # 20 000 levels, nested in function position at odd levels and in
    # argument position at even ones, counted from the inside; the innermost
    # argument is a redex, and so is the argument beside every 5 000th level
    depth = 20_000
    t = App(Lam(Var(0)), Var(2))
    ways = []  # the selector at each level, innermost first
    siblings = []
    for i in range(depth):
        if i % 2:
            if i % 5_000 == 1:
                t = App(t, App(Lam(Var(0)), Var(3)))
                siblings.append(i)
            else:
                t = App(t, Var(0))
            ways.append(Dir.FUN)
        else:
            t = App(Var(1), t)
            ways.append(Dir.ARG)
    outside_in = ways[::-1]
    # preorder: the innermost redex first, then the sibling arguments from
    # the inside out, as each lies after the function that holds the others
    expected = [tuple(outside_in)]
    expected += [tuple(outside_in[:depth - 1 - i]) + (Dir.ARG,) for i in siblings]
    assert len(expected) == 5
    _check_deep_search(t, expected)


def test_normalize_trace_replays():
    t = App(Lam(Lam(App(Var(0), Var(1)))), Var(2))
    nf, trace = normalize(t, 100)
    current = t
    for s in trace:
        current = apply_step(current, s)
    assert current == nf


# --- replay soundness -------------------------------------------------------

@given(terms_strategy)
@settings(max_examples=200)
def test_replay_soundness(t):
    for s in find_redexes(t):
        forward = apply_step(t, s)
        back = apply_step(forward, invert_step(s, t))
        assert back == t
        # and inverting twice recovers the original step
        again = invert_step(invert_step(s, t), forward)
        assert again == s


# --- to_text ----------------------------------------------------------------

def _to_text_reference(t):
    """The recursive printer: parenthesize a lambda function and a non-variable
    argument."""
    if isinstance(t, Var):
        return f"#{t.index}"
    if isinstance(t, Lam):
        return f"\\ . {_to_text_reference(t.body)}"
    fs = _to_text_reference(t.fun)
    if isinstance(t.fun, Lam):
        fs = f"({fs})"
    as_ = _to_text_reference(t.arg)
    if isinstance(t.arg, (Lam, App)):
        as_ = f"({as_})"
    return f"{fs} {as_}"


def test_to_text_examples():
    assert to_text(LOOPING) == "(\\ . #0 #0 #0) (\\ . #0 #0 #0)"
    assert to_text(App(Var(1), App(Var(2), Var(0)))) == "#1 (#2 #0)"


@given(larger_terms)
@settings(max_examples=300)
def test_to_text_matches_recursive_reference(t):
    assert to_text(t) == _to_text_reference(t)


def test_to_text_deep_terms():
    n = 20_000
    lams, args, funs = Var(0), Var(0), Var(0)
    for _ in range(n):
        lams = Lam(lams)
        args = App(Var(1), args)
        funs = App(funs, Var(1))
    assert to_text(lams) == "\\ . " * n + "#0"
    # the innermost argument is a variable, so it takes no parentheses
    assert to_text(args) == "#1 (" * (n - 1) + "#1 #0" + ")" * (n - 1)
    assert to_text(funs) == "#0" + " #1" * n


def test_free_in():
    assert free_in(Var(0), 0)
    assert not free_in(Lam(Var(0)), 0)
    assert free_in(Lam(Var(1)), 0)
