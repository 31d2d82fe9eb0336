import hashlib
import json
import sys
from pathlib import Path

import pytest

from lamtower import cli, completion, serialize
from lamtower.cells import RedSeq, seq_invert
from lamtower.cli import (MAX_BASE_SIZE, MAX_FUEL, MAX_JOIN_SAMPLES,
                          MAX_SEQUENCE_STEPS, MAX_TOWER_DIM, MAX_TOWER_SAMPLES,
                          ParseError, main, parse_term, parse_witness)
from lamtower.gen import gen_term
from lamtower.kinfinity import MAX_DEPTH
from lamtower.terms import App, Lam, Var, to_text
from lamtower.witness import Comp, ReflM, ReflN, TBeta, TEta, span_beta_seq


def test_parse_named_span():
    assert parse_term("(\\z. x z) y") == App(Lam(App(Var(1), Var(0))), Var(1))


def test_parse_debruijn():
    assert parse_term("#0 #1") == App(Var(0), Var(1))
    assert parse_term("\\ . #0") == Lam(Var(0))


# (text, message, position): each of the parser's six messages
PARSE_ERRORS = [
    ("x #y", "expected digits after #", 2),
    ("x $", "unexpected character '$'", 2),
    ("\\x #0. x", "expected binder name or '.'", 3),
    ("\\x", "expected binder name or '.'", 2),
    ("(x) (", "unexpected end of input", 5),
    ("(\\z. z", "expected ')'", 6),
    ("(x . y)", "expected ')'", 3),
    ("x ( )", "unexpected ')'", 4),
    ("\\x. x . y", "unexpected '.'", 6),
]


def test_parse_error_position():
    for text, message, position in PARSE_ERRORS:
        with pytest.raises(ParseError) as e:
            parse_term(text)
        assert str(e.value) == f"{message} (at position {position})", text
        assert e.value.position == position


def test_parse_multibinder():
    assert parse_term("\\x y. x") == Lam(Lam(Var(1)))


def test_print_parse_roundtrip(rng):
    for _ in range(50):
        t = gen_term(rng, 10)
        assert parse_term(to_text(t)) == t


# (expr, unknown atom, position): the position is where the atom starts, or
# the end of its segment when the atom is blank
WITNESS_ERRORS = [
    ("gamma", "gamma", 0),
    ("beta . bet", "bet", 7),
    ("beta . ", "", 7),
    ("beta .  . eta", "", 8),
    ("reflM .beta. Eta", "Eta", 13),
]


def test_parse_witness_expr():
    assert parse_witness("beta") == TBeta()
    assert parse_witness("reflM . eta . reflN") == Comp(ReflM(), Comp(TEta(), ReflN()))
    for expr, atom, position in WITNESS_ERRORS:
        with pytest.raises(ParseError) as e:
            parse_witness(expr)
        assert str(e.value) == f"unknown witness atom {atom!r} (at position {position})", expr


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cli_reduce(capsys):
    code, report = _run(capsys, ["reduce", "(\\z. x z) y", "--fuel", "10"])
    assert code == 0
    assert report["result"]["normal_form"] == "#0 #1"
    assert report["result"]["steps"] == 1


def test_cli_reduce_fuel_exhausted(capsys):
    omega = "(\\x. x x) (\\x. x x)"
    code, report = _run(capsys, ["reduce", omega, "--fuel", "5"])
    assert code == 1
    assert not report["checks"][0]["pass"]


def test_cli_pi0_span(capsys):
    code, report = _run(capsys, ["pi0", "(\\z. x z) y", "x y", "--fuel", "100"])
    assert code == 0
    assert report["result"]["verdict"] == "convertible"
    assert report["result"]["zigzag_length"] == 1  # target is already normal


def test_cli_pi0_not_convertible(capsys):
    code, report = _run(capsys, ["pi0", "x", "y", "--fuel", "10"])
    assert code == 0
    assert report["result"]["verdict"] == "not-convertible"


def test_cli_classify_and_witness(capsys):
    code, report = _run(capsys, ["classify", "reflM . beta"])
    assert code == 0 and report["result"]["tag"] == "beta"
    code, report = _run(capsys, ["witness", "eta", "--depth", "3"])
    assert code == 0
    assert report["result"]["coordinate0"] == "sL1"
    assert report["result"]["separation_vs_beta"]["points_distinct"]
    assert not report["result"]["separation_vs_eta"]["points_distinct"]


@pytest.mark.parametrize("argv", [["classify"], ["witness", "--depth", "3"]])
def test_cli_long_witness_chain_answers_with_a_report(capsys, argv):
    # 20 000 atoms, right-nested by the parser: a composite keeps its ends
    # and class, so reading them does not walk the chain
    chain = " . ".join(["reflM"] * 9_999 + ["eta"] + ["reflN"] * 10_000)
    code, report = _run(capsys, [argv[0], chain, *argv[1:]])
    assert code == 0
    assert report["result"]["tag"] == "eta"


def test_cli_tower_check(capsys):
    code, report = _run(capsys, ["tower-check", "--maxdim", "6",
                                 "--samples", "20", "--seed", "1"])
    assert code == 0
    assert all(c["pass"] for c in report["checks"])


@pytest.mark.parametrize("name, check", [
    ("globular_check", "globularity"),
    ("hd_map", "hd_functor_laws"),
    ("realize_boundary_check", "realize_boundary"),
])
def test_cli_tower_check_reports_a_failing_check(capsys, monkeypatch, name, check):
    # each law is made to fail alone, in this test only: its counter must
    # fail that check and no other, and the run exits 1
    monkeypatch.setattr(cli, name, lambda *args: None)
    code, report = _run(capsys, ["tower-check", "--maxdim", "4",
                                 "--samples", "5", "--seed", "1"])
    assert code == 1 and not report["ok"]
    assert {c["name"]: c["pass"] for c in report["checks"]} == {
        c: c != check for c in ("globularity", "hd_functor_laws", "realize_boundary")}


def test_cli_kinfty_check(capsys):
    code, report = _run(capsys, ["kinfty", "check", "--samples", "30",
                                 "--seed", "2"])
    assert code == 0
    assert report["result"]["stage1_size"] == 11


def test_cli_coherence(capsys):
    for which in ("assoc", "pentagon", "bridges"):
        code, report = _run(capsys, ["coherence", which, "--span"])
        assert code == 0, which
        assert all(c["pass"] for c in report["checks"])


def test_cli_determinism(capsys):
    argv = ["tower-check", "--maxdim", "5", "--samples", "10", "--seed", "42"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_cli_error_exit(capsys):
    code = main(["reduce", "(\\z. z"])
    out = capsys.readouterr().out
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("argv, message", [
    (["reduce", "x", "--fuel", "abc"], "lamtower reduce: argument --fuel: invalid int value: 'abc'"),
    (["coherence", "nope"], "lamtower coherence: argument which: invalid choice: 'nope'"),
    (["witness", "eta", "--base-size", "3"], "lamtower: unrecognized arguments: --base-size 3"),
    ([], "lamtower: the following arguments are required: command"),
])
def test_cli_argparse_refusals_are_json(capsys, argv, message):
    # they used to print usage text to stderr, nothing to stdout
    assert _error(capsys, argv).startswith(message)


def test_cli_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lamtower")


def test_cli_reduce_looping_past_printer_depth(capsys):
    # the partial term nests about 1050 deep, past the interpreter stack
    code, report = _run(capsys, ["reduce", "(\\x. x x x) (\\x. x x x)",
                                 "--fuel", "1050"])
    assert code == 1
    assert report["checks"][0]["detail"] == "fuel exhausted"
    assert report["result"]["steps"] == 1050
    assert report["result"]["partial"].startswith("(\\ . #0 #0 #0) " * 2)


def _deep_term(shape, depth):
    """Term text nested `depth` levels deep: parentheses, a binder chain,
    or identity redexes each in the argument of the one before."""
    if shape == "parens":
        return "(" * depth + "x" + ")" * depth
    if shape == "binders":
        return "\\x. " * depth + "x"
    return "x " + "((\\y. y) " * depth + "z" + ")" * depth


@pytest.mark.parametrize("shape", ["parens", "binders", "redexes"])
def test_cli_reduce_deep_term_answers_with_a_report(capsys, shape):
    code, report = _run(capsys, ["reduce", _deep_term(shape, 20_000)])
    assert code in (0, 1)
    assert report["checks"][0]["name"] == "normalized"


def test_cli_recursion_error_is_json(capsys):
    # two equal chains parse and normalize; comparing them recurses once per
    # level, and five times the recursion limit is past it on every Python
    # (from 3.12 the limit counts only Python frames, one __eq__ per level)
    chain = _deep_term("binders", 5 * sys.getrecursionlimit())
    code = main(["pi0", chain, chain])
    out = capsys.readouterr().out
    assert code == 2
    assert "recursion" in json.loads(out)["error"]


@pytest.mark.parametrize("base_size, digest", [
    ("3", "e4f67995ec48da578c1e4e646da580e6a506f2d262328fb50ba7c6f82463a346"),
    ("4", "9219d6384f5b57b374cd0efac29e9b659dd1193e438bdb9a791b6a840d7b914d"),
])
def test_cli_kinfty_stdout_pinned(capsys, base_size, digest):
    # pinned stdout digests: the kinfty report must stay byte-identical
    code = main(["kinfty", "check", "--base-size", base_size, "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


LOOPING = "(\\x. x x x) (\\x. x x x)"

# (argv, sha256 of stdout, exit code)
STDOUT_PINS = [
    # shell_word and word_of run on the assoc path, pentagon_words on the
    # pentagon one
    (["coherence", "assoc", "--seed", "0"],
     "aaa3943be60c5d6928bb83c18d5df833e7a267ba9317d98eba87175d588c992a", 0),
    (["coherence", "assoc", "--span"],
     "a4d6ea7111c5c5702ffea0ede8aee55556c4928e4596cb7ed1aa0ca9deaab82e", 0),
    (["coherence", "pentagon", "--seed", "3"],
     "aaabe50ba379a02f5a2cee2da02ed75e6298dad35060b828811e7e5d6eba3bc4", 0),
    # the witness runs read the shared stage-0 thread row at depths 1 and 2
    (["witness", "beta", "--depth", "1"],
     "3377d354460cc867dfd51f965633ff73c51be5e958f0fa5ec1e8bc1f4d96bf1d", 0),
    (["witness", "beta", "--depth", "2"],
     "9ad820377cfb5de433e1076cf30a42a45aec34647b314a0bc0853278b24d9cad", 0),
    # thread comparisons below the top stage: a depth-2 law suite and the
    # depth-1 witness separation
    (["kinfty", "check", "--depth", "2", "--base-size", "4", "--seed", "5"],
     "b84c7a6af0ea1d13420d9ec044acaf4e296b0bedb8c8a3971a922bbbad7033b3", 0),
    (["witness", "eta", "--depth", "1"],
     "81468c262c60d2a7cbfb01b229255c79998e547b955e31e05d4a064e26d96ff9", 0),
    # the law suite at the default seed on base 4 at depths 3 and 2 (base 5
    # is test_kinfinity.py's test_kinfty_check_base5_stdout_pinned, whose
    # run its base-5 law tests share)
    (["kinfty", "check", "--base-size", "4"],
     "2ecf74cbaaec9a08eb710ba588628d2bc28c6a9c70155f5314a4cbc6f97fe31e", 0),
    (["kinfty", "check", "--depth", "2", "--base-size", "4"],
     "03e40a228820f0d646f49e37761637866c7a39213d3c7d88d3b1e565a0ce7088", 0),
    # the README fingerprints stop at maxdim 9; maxdim 15 is the largest the
    # CLI accepts and takes realization through every cell joint
    (["tower-check", "--maxdim", "15", "--seed", "0"],
     "be7f01ddc1874e9e9e70b909f0a097368e8c9ce4f354ad9d1a31bf8f1008d201", 0),
    # fuel 2000 takes the redex search past depth 1000, so a walk that loses
    # the leftmost-outermost order on a deep spine fails here
    (["reduce", LOOPING, "--fuel", "1000"],
     "9dd4561a8bc0c09fd8d769036244c86ada29cdd757a071aa775e900c5fd75f4f", 1),
    (["reduce", LOOPING, "--fuel", "2000"],
     "5fe898358611ea1bde595fe3afbde452c069076b07462a1d403142b289d5184c", 1),
]


# an id is the argv, then the digest letter by letter
@pytest.mark.parametrize("argv, digest, code", STDOUT_PINS,
                         ids=[" ".join(argv) + "-" + " ".join(digest)
                              for argv, digest, _ in STDOUT_PINS])
def test_cli_stdout_pinned(capsys, argv, digest, code):
    got = main(argv)
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), got) == (digest, code)


def _error(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2
    return json.loads(out)["error"]


def test_cli_missing_sequences_file_is_json(capsys, tmp_path):
    missing = str(tmp_path / "absent.json")
    assert "No such file" in _error(capsys, ["coherence", "assoc",
                                             "--sequences", missing])


def test_cli_sequences_with_span_refused(capsys, tmp_path):
    # the file used to win silently, and the report echoed "span": true;
    # refused before the file is read, so a missing one is not reported
    missing = str(tmp_path / "absent.json")
    for which in ("assoc", "pentagon", "bridges"):
        assert "give one of them" in _error(
            capsys, ["coherence", which, "--sequences", missing, "--span"])


def _sequences_error(capsys, tmp_path, data):
    path = tmp_path / "seqs.json"
    path.write_text(json.dumps(data))
    return _error(capsys, ["coherence", "assoc", "--sequences", str(path)])


def test_cli_sequences_unknown_tag_is_json(capsys, tmp_path):
    entry = {"$t": "NoSuchCell", "f": []}
    assert "unknown tag 'NoSuchCell'" in _sequences_error(capsys, tmp_path, [entry] * 4)


def test_cli_sequences_wrong_field_count_is_json(capsys, tmp_path):
    entry = {"$t": "Var", "f": [0, 1]}
    assert "Var expects a list of 1 fields" in _sequences_error(capsys, tmp_path,
                                                                [entry] * 4)


@pytest.mark.parametrize("data", [[1, 2, 3, 4], {"a": 1}, 7,
                                  [{"$t": "Var", "f": [0]}] * 4])
def test_cli_sequences_not_sequences_is_json(capsys, tmp_path, data):
    assert "four serialized sequences" in _sequences_error(capsys, tmp_path, data)


def _span_quadruple():
    t = span_beta_seq()
    return [serialize.encode(x) for x in (t, seq_invert(t), t, seq_invert(t))]


def _with_first_step_path(path):
    quad = _span_quadruple()
    quad[0]["f"][1][0]["f"][1] = path
    return quad


_NOT_REPLAYABLE = "sequence 0 is not a replayable reduction sequence"


@pytest.mark.parametrize("data, message", [
    ([{"$t": "RedSeq", "f": [[1], []]}] * 4, _NOT_REPLAYABLE),
    (_with_first_step_path(5), _NOT_REPLAYABLE),
    ([{"$t": "RedSeq", "f": [[{"$t": "Var", "f": ["x"]}], []]}] * 4, _NOT_REPLAYABLE),
    ([{"$t": "RedSeq", "f": [[{"$t": "Var", "f": [-1]}], []]}] * 4, _NOT_REPLAYABLE),
    # well-formed, but the path leaves the cached term: replay fails
    (_with_first_step_path([{"$e": ["Dir", "f"]}]), _NOT_REPLAYABLE),
    ([{"$t": "RedSeq", "f": [5, []]}] * 4, "RedSeq cannot hold these fields"),
    # an enum name that is not a string: once a TypeError and a traceback
    ([{"$e": [[], "a"]}], _NOT_REPLAYABLE + ": unknown enum [[], 'a']"),
], ids=["int-term", "int-path", "var-x", "negative-index", "path-leaves-term",
        "int-terms-field", "list-enum-name"])
def test_cli_sequences_not_replayable_is_json(capsys, tmp_path, data, message):
    assert message in _sequences_error(capsys, tmp_path, data)


def _span_zigzag_quadruple(lengths):
    """Four chained sequences of the given lengths, the span's beta step and
    its inverse in turn."""
    total = sum(lengths)
    beta = span_beta_seq()
    terms = (beta.source, beta.target) * (total // 2 + 1)
    steps = (beta.steps[0], seq_invert(beta).steps[0]) * (total // 2 + 1)
    cuts = [sum(lengths[:i]) for i in range(5)]
    return [serialize.encode(RedSeq(terms[a:b + 1], steps[a:b]))
            for a, b in zip(cuts, cuts[1:])]


def _even(total):
    """`total` steps split into four as evenly as the count allows."""
    return [total * (i + 1) // 4 - total * i // 4 for i in range(4)]


def test_cli_sequences_over_the_step_cap_refused_before_replay(capsys, tmp_path, monkeypatch):
    # the cap is read after decoding and before any sequence is replayed
    # (every subcommand takes the same path): at the cap the first replay is
    # reached, one step over it none is
    def replayed(seq):
        raise ValueError("replayed")
    monkeypatch.setattr(cli, "validate_seq", replayed)
    path = tmp_path / "seqs.json"
    for total, error in [(MAX_SEQUENCE_STEPS, "replayed"), (MAX_SEQUENCE_STEPS + 1,
                         f"--sequences total steps {MAX_SEQUENCE_STEPS + 1} is above "
                         f"the maximum of {MAX_SEQUENCE_STEPS}")]:
        path.write_text(json.dumps(_span_zigzag_quadruple(_even(total))))
        assert _error(capsys, ["coherence", "pentagon", "--sequences", str(path)]) == error


@pytest.mark.parametrize("lengths, error", [
    (_even(257), "--sequences total steps 257 is above the maximum of 256"),
    ((256, 0, 0, 0), None),
], ids=["257-refused", "assoc-256-0-0-0"])
def test_cli_sequences_step_cap_is_where_every_split_answers(capsys, tmp_path, lengths, error):
    # fs_assoc_compare recurses once per step of p, and from |p| of about 340
    # `assoc` ended in a recursion-depth error; at the cap, all of it in p,
    # it answers with a report
    path = tmp_path / "seqs.json"
    path.write_text(json.dumps(_span_zigzag_quadruple(lengths)))
    argv = ["coherence", "assoc", "--sequences", str(path)]
    if error:
        assert _error(capsys, argv) == error
    else:
        code, report = _run(capsys, argv)
        assert code == 0 and "error" not in report
        assert [c["pass"] for c in report["checks"]] == [True]


def test_cli_memory_error_is_json(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError("out of memory")
    monkeypatch.setattr(cli, "cmd_reduce", exhausted)
    assert _error(capsys, ["reduce", "x"]) == "out of memory"


def test_cli_sequences_file_roundtrip(capsys, tmp_path):
    path = tmp_path / "seqs.json"
    path.write_text(json.dumps(_span_quadruple()))
    from_file = _run(capsys, ["coherence", "assoc", "--sequences", str(path)])
    from_span = _run(capsys, ["coherence", "assoc", "--span"])
    assert from_file[0] == 0 and from_file[1]["result"] == from_span[1]["result"]


def test_cli_tower_check_maxdim_cap(capsys):
    error = _error(capsys, ["tower-check", "--maxdim", str(MAX_TOWER_DIM + 1)])
    assert error == f"--maxdim {MAX_TOWER_DIM + 1} is above the maximum of {MAX_TOWER_DIM}"
    # refused before any work: maxdim 40 used to run without end
    assert _error(capsys, ["tower-check", "--maxdim", "40"]) == \
        f"--maxdim 40 is above the maximum of {MAX_TOWER_DIM}"


def _no_work(*args, **kwargs):
    raise AssertionError("the option should be refused before any work")


@pytest.mark.parametrize("size", ["2", "0", "-4"])
def test_cli_kinfty_base_size_below_three_refused(capsys, monkeypatch, size):
    # it used to run the 3-element base and echo "basesize": 3
    monkeypatch.setattr(cli, "flat_base", _no_work)
    assert _error(capsys, ["kinfty", "check", "--base-size", size]) == \
        f"--base-size {size} is below the minimum of 3"


@pytest.mark.parametrize("size", [str(MAX_BASE_SIZE + 1), "1000", "3000"])
def test_cli_kinfty_base_size_above_cap_refused(capsys, monkeypatch, size):
    # it reported an int-to-string error at 1 000 and built a 3 000 x 3 000
    # order (1.65 s, 86 MB) before refusing 3 000
    monkeypatch.setattr(cli, "flat_base", _no_work)
    monkeypatch.setattr(cli, "flat_stage1_size", _no_work)
    assert _error(capsys, ["kinfty", "check", "--base-size", size]) == \
        f"--base-size {size} is above the maximum of {MAX_BASE_SIZE}"


@pytest.mark.parametrize("argv", [
    ["witness", "eta", "--base-size", "3"],
    ["witness", "eta", "--poles", "sR1,sL1"],
    ["kinfty", "check", "--poles", "sR1,sL1"],
    ["kinfty", "check", "--config", "base.json"],
])
def test_cli_base_options_beyond_base_size_unknown(capsys, argv):
    # witness runs only the sR1,sL1 base; kinfty check takes only --base-size
    assert "unrecognized arguments" in _error(capsys, argv)


@pytest.mark.parametrize("argv, first_work", [
    (["kinfty", "check"], (cli, "flat_base")),
    (["tower-check"], (cli.gen, "gen_h3")),
])
def test_cli_negative_samples_refused(capsys, monkeypatch, argv, first_work):
    monkeypatch.setattr(*first_work, _no_work)
    assert _error(capsys, argv + ["--samples", "-3"]) == \
        "--samples -3 is below the minimum of 0"


@pytest.mark.parametrize("samples", [str(MAX_JOIN_SAMPLES + 1), "6000"])
def test_cli_kinfty_samples_above_cap_refused(capsys, monkeypatch, samples):
    # --samples 6000 used to run 13 s at base size 3, whose 3 331 distinct
    # step joins the sampler ran out of
    monkeypatch.setattr(cli, "flat_base", _no_work)
    assert _error(capsys, ["kinfty", "check", "--samples", samples]) == \
        f"--samples {samples} is above the maximum of {MAX_JOIN_SAMPLES}"


@pytest.mark.parametrize("samples", [str(MAX_TOWER_SAMPLES + 1), "100000"])
def test_cli_tower_check_samples_above_cap_refused(capsys, monkeypatch, samples):
    # the run is linear in --samples: 100 000 used to run for minutes
    monkeypatch.setattr(cli.gen, "gen_h3", _no_work)
    assert _error(capsys, ["tower-check", "--samples", samples]) == \
        f"--samples {samples} is above the maximum of {MAX_TOWER_SAMPLES}"


def test_cli_kinfty_samples_at_cap_runs(capsys):
    code, report = _run(capsys, ["kinfty", "check", "--samples", str(MAX_JOIN_SAMPLES)])
    assert code == 0 and report["command"]["samples"] == MAX_JOIN_SAMPLES


@pytest.mark.parametrize("argv, first_work", [
    (["kinfty", "check"], (cli, "flat_base")),
    (["witness", "eta"], (cli, "flat_base")),
])
def test_cli_depth_above_max_refused(capsys, monkeypatch, argv, first_work):
    # it used to fail late with "no embedding representation from stage 3"
    monkeypatch.setattr(*first_work, _no_work)
    assert MAX_DEPTH == 3
    assert _error(capsys, argv + ["--depth", "4"]) == \
        "--depth 4 is above the maximum of 3"
    if argv[0] == "kinfty":
        # the law suite needs depth 2: depth 1 used to build the Tower and
        # fail inside verify_laws
        for depth in ("1", "0", "-2"):
            assert _error(capsys, argv + ["--depth", depth]) == \
                f"--depth {depth} is below the minimum of 2"
    else:
        # interpretation needs depth 1: depth 0 used to build the Tower and
        # fail inside interpret
        for depth in ("0", "-2"):
            assert _error(capsys, argv + ["--depth", depth]) == \
                f"--depth {depth} is below the minimum of 1"


@pytest.mark.parametrize("argv", [["reduce", "x"], ["pi0", "x", "x"]])
def test_cli_negative_fuel_refused(capsys, monkeypatch, argv):
    # it used to echo "fuel": -1 and run as fuel 0
    monkeypatch.setattr(cli, "normalize", _no_work)
    monkeypatch.setattr(completion, "normalize", _no_work)
    assert _error(capsys, argv + ["--fuel", "-1"]) == \
        "--fuel -1 is below the minimum of 0"


@pytest.mark.parametrize("argv", [["reduce", "x"], ["pi0", "x", "x"]])
def test_cli_fuel_above_cap_refused(capsys, monkeypatch, argv):
    # the looping term took 10.2 s at fuel 4 000 and 17.2 s at 5 000
    monkeypatch.setattr(cli, "normalize", _no_work)
    monkeypatch.setattr(completion, "normalize", _no_work)
    for fuel in (MAX_FUEL + 1, 5000):
        assert _error(capsys, argv + ["--fuel", str(fuel)]) == \
            f"--fuel {fuel} is above the maximum of {MAX_FUEL}"


@pytest.mark.parametrize("maxdim", ["3", "2", "-1"])
def test_cli_tower_check_maxdim_below_four_refused(capsys, monkeypatch, maxdim):
    # it used to check no dimension, report "dimensions": [] and pass
    monkeypatch.setattr(cli.gen, "gen_h3", _no_work)
    assert _error(capsys, ["tower-check", "--maxdim", maxdim]) == \
        f"--maxdim {maxdim} is below the minimum of 4"


def test_cli_tower_check_readme_fingerprint(capsys):
    # the README's tower-check command is below the cap and unchanged
    main(["tower-check", "--maxdim", "9", "--samples", "100", "--seed", "0"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6f53fa23ca6a88810952e2cd01b88003cb76042b76dece5d0b65db4a4d5d1681")


_FINGERPRINTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "fingerprints.json").read_text())


@pytest.mark.parametrize("entry", _FINGERPRINTS, ids=lambda e: " ".join(e["argv"]))
def test_cli_readme_fingerprints(capsys, entry):
    # every README command keeps its stored stdout digest and exit code
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == (entry["sha256"],
                                                               entry["exit"])
