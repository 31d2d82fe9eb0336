"""Every CLI input ends in JSON: a seeded fuzzer over each input channel.

The channels are term text (`reduce`, `pi0`), witness expressions
(`classify`, `witness`), `--sequences` files (`coherence`), and each
numeric option at, just past and far past its bounds.  Term and witness
inputs are valid ones mutated a character or a token at a time, or token
soup, and a few terms nest up to 20 000 levels deep; a sequences file is
four valid serialized sequences with one to three JSON nodes replaced.
Fuel stays small and the bound runs pair each option with the cheapest
value of the others, so no input starts heavy work.

The property, for every input: the exit code is 0, 1 or 2; stdout is
exactly one JSON object; the code is 2 exactly when that object has an
"error" key; and nothing escapes `main` (in a process, a traceback).

A second test pins the parser itself: the outcome of `parse_term` on a
fixed corpus of token strings, printed terms and named terms, as a digest.
"""

import hashlib
import json
import random
import traceback
from collections import Counter

from lamtower import cli, serialize
from lamtower.cells import seq_invert
from lamtower.gen import gen_composable_seqs, gen_term
from lamtower.kinfinity import MAX_DEPTH
from lamtower.terms import to_text
from lamtower.witness import span_beta_seq
from smallterms import all_terms
from test_cli import _deep_term, _even, _span_zigzag_quadruple

SEED = 20261020

_TERM_TOKENS = ["\\", ".", "(", ")", "x", "y", "z'", "_a", "#0", "#2", "#",
                "#x", "#-1", "#99999999999999999999", " ", "  ", "1", "λ", "-",
                ",", "\\x.", "\\ .", "é"]
_WITNESS_ATOMS = ["beta", "eta", "reflM", "reflN"]
_WITNESS_JUNK = ["", " ", "Beta", "gamma", "beta eta", "refl", "..", "#0", "é"]
_JSON_JUNK = [0, -1, 10 ** 20, 1.5, True, "", "x", [], [[]], {}, {"f": []}, None,
              {"$t": "Nope", "f": []}, {"$t": ["Var"], "f": [0]},
              {"$e": ["Dir", "q"]}, {"$e": ["StepKind"]}, {"$e": [[], "a"]},
              {"$e": ["Dir", ["f"]]}, {"$t": "Var", "f": [-3]},
              {"$t": "Var", "f": ["0"]}, {"$t": "RedSeq", "f": [[], []]}]
# the parser's pinned corpus: token soup that reaches past the tokenizer,
# and the names of named terms
_STRUCTURE_TOKENS = ["\\", ".", "(", ")", "x", "y", "#0", " "]
_NAMES = ["x", "y", "z'", "_a"]


def _named_term(rng, size):
    """Named text with multi-name binders, repeated names in one binder,
    shadowing and free names."""
    if size <= 1 or rng.random() < 0.2:
        return rng.choice(_NAMES)
    if rng.random() < 0.4:
        names = " ".join(rng.choice(_NAMES) for _ in range(rng.randint(1, 3)))
        return f"\\{names}. {_named_term(rng, size - 1)}"
    k = rng.randint(1, size - 1)
    fun, arg = _named_term(rng, k), _named_term(rng, size - k)
    return f"({fun}) ({arg})" if rng.random() < 0.5 else f"{fun} ({arg})"


def _parse_corpus(rng):
    for _ in range(10_000):
        yield "".join(rng.choice(_TERM_TOKENS) for _ in range(rng.randint(0, 12)))
    for _ in range(10_000):
        yield "".join(rng.choice(_STRUCTURE_TOKENS) for _ in range(rng.randint(0, 16)))
    yield from map(to_text, all_terms(8, 2))
    yield from ["\\x x. x", "\\x. \\x. x", "\\x y x. x y", "\\x. y \\y. x y"]
    for _ in range(4_000):
        yield _named_term(rng, rng.randint(1, 10))


def _outcome(text):
    try:
        return repr(cli.parse_term(text))
    except cli.ParseError as e:
        return str(e)


def test_parse_outcomes_are_pinned():
    # every term, and every error message with its position
    outcomes = "\n".join(map(_outcome, _parse_corpus(random.Random(SEED))))
    assert hashlib.sha256(outcomes.encode()).hexdigest() == (
        "9269b089b8efab0a78e21ba70c518685fd7f2700c6eea0dbcccd480c60dde97b")


def _positional(text):
    # a leading '-' would be read as an option, which argparse refuses
    # before main runs
    return " " + text if text.startswith("-") else text


def _mutate_text(rng, text, alphabet):
    chars = list(text)
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(chars))
        roll = rng.random()
        if roll < 0.4 or not chars:
            chars.insert(at, rng.choice(alphabet))
        elif roll < 0.7:
            del chars[min(at, len(chars) - 1)]
        else:
            chars[min(at, len(chars) - 1)] = rng.choice(alphabet)
    return _positional("".join(chars))


def _term_text(rng):
    roll = rng.random()
    if roll < 0.5:
        return _mutate_text(rng, to_text(gen_term(rng, rng.randint(1, 12))), _TERM_TOKENS)
    if roll < 0.97:
        return _positional("".join(rng.choice(_TERM_TOKENS)
                                   for _ in range(rng.randint(0, 12))))
    # nesting past the interpreter stack, which every shape parses
    return _deep_term(rng.choice(["parens", "binders", "redexes"]),
                      rng.choice([50, 1200, 20_000]))


def _term_inputs(rng, n):
    for _ in range(n):
        fuel = str(rng.randint(0, 20))
        if rng.random() < 0.6:
            yield ["reduce", _term_text(rng), "--fuel", fuel]
        else:
            yield ["pi0", _term_text(rng), _term_text(rng), "--fuel", fuel]


def _witness_inputs(rng, n):
    for _ in range(n):
        # a composable witness: reflM's, one step, reflN's; then a part
        # replaced, or characters mutated
        parts = (["reflM"] * rng.randint(0, 2) + [rng.choice(["beta", "eta"])]
                 + ["reflN"] * rng.randint(0, 2))
        roll = rng.random()
        if roll < 0.3:
            parts[rng.randrange(len(parts))] = rng.choice(_WITNESS_ATOMS + _WITNESS_JUNK)
        expr = " . ".join(parts)
        if roll > 0.7:
            expr = _mutate_text(rng, expr, list("betaflMN. #"))
        if rng.random() < 0.5:
            yield ["classify", expr]
        else:
            yield ["witness", expr, "--depth", str(rng.randint(1, MAX_DEPTH))]


def _nodes(data, path=()):
    """Every node of a JSON tree, as its path of keys and indices."""
    yield path
    if isinstance(data, list):
        for i, x in enumerate(data):
            yield from _nodes(x, path + (i,))
    elif isinstance(data, dict):
        for k, x in data.items():
            yield from _nodes(x, path + (k,))


def _replace(data, path, value):
    if not path:
        return value
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _quadruple(rng):
    if rng.random() < 0.5:
        t = span_beta_seq()
        seqs = (t, seq_invert(t), t, seq_invert(t))
    else:
        seqs = gen_composable_seqs(rng, 4, max_steps=2)
    return [serialize.encode(x) for x in seqs]


def _sequences_inputs(rng, n, path):
    for _ in range(n):
        data = _quadruple(rng)
        for _ in range(rng.randint(1, 3)):
            at = rng.choice(list(_nodes(data)))
            data = _replace(data, at, rng.choice(_JSON_JUNK))
        text = json.dumps(data)
        if rng.random() < 0.1:  # a file cut short
            text = text[:rng.randint(0, len(text))]
        path.write_text(text)
        yield ["coherence", rng.choice(["assoc", "pentagon", "bridges"]),
               "--sequences", str(path)]


# (argv before the option, option, least, most, argv after it): the other
# options at their cheapest values
_BOUNDED = [
    (["reduce", "x"], "--fuel", 0, cli.MAX_FUEL, []),
    (["pi0", "x", "y"], "--fuel", 0, cli.MAX_FUEL, []),
    (["witness", "beta"], "--depth", 1, MAX_DEPTH, []),
    (["tower-check"], "--maxdim", 4, cli.MAX_TOWER_DIM, ["--samples", "0"]),
    (["tower-check"], "--samples", 0, cli.MAX_TOWER_SAMPLES, ["--maxdim", "4"]),
    (["kinfty", "check"], "--depth", 2, MAX_DEPTH, ["--samples", "0"]),
    (["kinfty", "check"], "--base-size", 3, cli.MAX_BASE_SIZE, ["--samples", "0"]),
    (["kinfty", "check"], "--samples", 0, cli.MAX_JOIN_SAMPLES, []),
]


def _bound_inputs():
    for before, flag, least, most, after in _BOUNDED:
        for value in (least - 10 ** 12, least - 1, least, most, most + 1, most + 10 ** 12):
            yield before + [flag, str(value)] + after


def _step_cap_inputs(path):
    # the --sequences total step count, evenly split, which keeps `assoc`
    # cheap at the cap
    for total in (cli.MAX_SEQUENCE_STEPS, cli.MAX_SEQUENCE_STEPS + 1,
                  4 * cli.MAX_SEQUENCE_STEPS):
        path.write_text(json.dumps(_span_zigzag_quadruple(_even(total))))
        yield ["coherence", "assoc", "--sequences", str(path)]


def _violation(capsys, argv):
    """argv's exit code, and why it breaks the property or None."""
    try:
        code = cli.main(argv)
    except Exception:
        capsys.readouterr()
        return None, "escaped main: " + traceback.format_exc(limit=-1).strip()
    out, err = capsys.readouterr()
    if code not in (0, 1, 2):
        return code, "exit code not 0, 1 or 2"
    if "Traceback" in err:
        return code, "traceback on stderr"
    try:
        report = json.loads(out)
    except ValueError as e:
        return code, f"stdout is not one JSON value: {e}"
    if not isinstance(report, dict):
        return code, "stdout is not a JSON object"
    if (code == 2) != ("error" in report):
        return code, f"exit code {code} with keys {sorted(report)}"
    return code, None


def _fuzz(capsys, inputs):
    """The violations over inputs, and how many inputs ended in each
    command and exit code."""
    violations, seen = [], Counter()
    for argv in inputs:
        code, why = _violation(capsys, argv)
        seen[argv[0], code] += 1
        if why is not None:
            violations.append((argv, why))
    return violations, seen


def _all_inputs(rng, tmp_path):
    yield from _term_inputs(rng, 300)
    yield from _witness_inputs(rng, 120)
    yield from _sequences_inputs(rng, 150, tmp_path / "seqs.json")
    yield from _bound_inputs()
    yield from _step_cap_inputs(tmp_path / "steps.json")


def test_every_fuzzed_input_ends_in_one_json_object(capsys, tmp_path):
    violations, seen = _fuzz(capsys, _all_inputs(random.Random(SEED), tmp_path))
    assert violations == []
    # every command both answers and refuses some of its inputs
    for command in ("reduce", "pi0", "classify", "witness", "coherence",
                    "tower-check", "kinfty"):
        assert seen[command, 0] and seen[command, 2], command


def test_a_decode_that_raises_key_error_fails_the_fuzzer(capsys, tmp_path, monkeypatch):
    # KeyError is not an input error main reports, so it escapes: the
    # sequences channel must reach decode and see it
    def broken(data):
        raise KeyError("$t")
    monkeypatch.setattr(serialize, "decode", broken)
    violations, _ = _fuzz(capsys, _sequences_inputs(random.Random(SEED), 20,
                                                    tmp_path / "seqs.json"))
    assert violations and all("KeyError" in why for _, why in violations)
