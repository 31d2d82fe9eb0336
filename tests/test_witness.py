import itertools

import pytest

from lamtower.domains import Tower, flat_base
from lamtower.kinfinity import thread_eq
from lamtower.terms import App, Lam, StepKind, Var, normalize
from lamtower.witness import (SPAN_SOURCE, SPAN_TARGET, Comp, ReflM, ReflN,
                              SpanEndpoint, TBeta, TEta, interpret, pad,
                              separation_report, span_beta_seq, span_epsilon,
                              span_eta_seq, tag_classify)


def test_span_terms():
    assert SPAN_SOURCE == App(Lam(App(Var(1), Var(0))), Var(1))
    assert SPAN_TARGET == App(Var(0), Var(1))
    assert SPAN_SOURCE != SPAN_TARGET


def test_span_sequences_land_on_target():
    assert span_beta_seq().target == SPAN_TARGET
    assert span_eta_seq().target == SPAN_TARGET


def test_epsilon_normal_forms_agree():
    assert normalize(SPAN_SOURCE, 10)[0] == normalize(SPAN_TARGET, 10)[0]


# --- exhaustive enumeration of witness trees --------------------------------

def _all_trees(size, src, tgt):
    """Every well-typed witness tree with exactly `size` constructor nodes."""
    if size == 1:
        leaves = [TBeta(), TEta(), ReflM(), ReflN()]
        return [w for w in leaves if (w.src, w.tgt) == (src, tgt)]
    out = []
    for left_size in range(1, size - 1):
        for mid in SpanEndpoint:
            for l in _all_trees(left_size, src, mid):
                for r in _all_trees(size - 1 - left_size, mid, tgt):
                    out.append(Comp(l, r))
    return out


def test_typing_totality_up_to_size_7():
    m, n = SpanEndpoint.M, SpanEndpoint.N
    total = 0
    for size in range(1, 8):
        for w in _all_trees(size, m, n):
            total += 1
            tag = tag_classify(w)  # total: never raises on well-typed trees
            assert tag in (StepKind.BETA, StepKind.ETA)
    assert total > 0
    # there is no witness from N back to M in the forward language, and one
    # that starts where it ends crosses no generator
    for size in range(1, 8):
        assert _all_trees(size, n, m) == []
        assert all(w.kind is None for end in (m, n) for w in _all_trees(size, end, end))


def test_tag_examples():
    assert tag_classify(TBeta()) is StepKind.BETA
    assert tag_classify(Comp(ReflM(), Comp(TEta(), ReflN()))) is StepKind.ETA
    assert tag_classify(Comp(TBeta(), ReflN())) is StepKind.BETA


def test_tag_rejects_wrong_endpoints():
    with pytest.raises(ValueError):
        tag_classify(ReflM())


def test_comp_rejects_mismatch():
    with pytest.raises(ValueError):
        Comp(ReflM(), ReflN())


def test_pad_examples():
    assert pad(TBeta(), 0, 0) == TBeta()
    assert pad(TEta(), 2, 1) == Comp(ReflM(), Comp(ReflM(), Comp(TEta(), ReflN())))


def test_pad_invariance_exhaustive():
    m, n = SpanEndpoint.M, SpanEndpoint.N
    for size in range(1, 8):
        for w in _all_trees(size, m, n):
            for i, j in itertools.product(range(3), range(3)):
                assert tag_classify(pad(w, i, j)) is tag_classify(w)


# --- interpretation ---------------------------------------------------------

def test_interpret_poles(tower):
    beta = interpret(TBeta(), 3, tower)
    eta = interpret(TEta(), 3, tower)
    assert tower.base.labels[beta.coords[0]] == "sR1"
    assert tower.base.labels[eta.coords[0]] == "sL1"
    assert span_epsilon()["normal_form_equal"]
    assert not thread_eq(beta, eta)


def test_interpret_factors_through_tag(tower):
    w1 = interpret(Comp(ReflM(), TBeta()), 3, tower)
    w2 = interpret(TBeta(), 3, tower)
    assert thread_eq(w1, w2)


def test_separation_report_distinct(tower):
    rep = separation_report(TBeta(), TEta(), 3, tower)
    assert rep["points_distinct"]
    assert rep["coordinate0"] == ["sR1", "sL1"]
    assert rep["no_1cell"] and rep["no_higher_cells"]


def test_separation_report_same_tag(tower):
    rep = separation_report(TBeta(), pad(TBeta(), 3, 2), 3, tower)
    assert not rep["points_distinct"]
    assert rep["connected_by"] == "reflexivity"
    rep2 = separation_report(pad(TEta(), 1, 1), TEta(), 3, tower)
    assert not rep2["points_distinct"]


def test_default_tower_has_both_poles():
    # the tower `lamtower witness` interprets in
    t = Tower(flat_base())
    assert "sR1" in t.base.labels and "sL1" in t.base.labels
