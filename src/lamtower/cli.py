"""Command line interface: term parsing, subcommand dispatch, JSON reports.

Machine output (one JSON report, stable key order) goes to stdout; a short
human summary goes to stderr.  Exit status is zero iff every check passed.
All randomized commands take an explicit seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import frontseed as F
from . import gen, kinfinity, serialize, witness
from .cells import Pentagon, RedSeq, globular_check, seq_invert, validate_seq
from .completion import (hd_map, pi0_equiv, realize_boundary_check)
from .domains import (Tower, check_projection_pair, flat_base,
                      flat_stage1_size, step_join_sample)
from .gen import gen_hd_tree, gen_rtower_cell
from .terms import App, FuelExhausted, Lam, Term, Var, normalize, to_text


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "\\.()":
            tokens.append((ch, i))
            i += 1
        elif ch == "#":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after #", i)
            tokens.append(("#" + text[i + 1:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append((text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def _parse(text: str, free: dict[str, int]) -> Term:
    """Named form (\\x. e, juxtaposition, parens) and raw de Bruijn form
    (#n and anonymous \\ . e).  Free names get indices by first occurrence,
    in `free`, which two terms may share.

    One pass over the tokens, so any depth parses in linear time.  Each open
    lambda body or parenthesis is a frame [the names it binds, the
    application built so far] on an explicit stack, over a bottom frame for
    the whole text; `bound` maps a name to the stack of its binder depths."""
    tokens = _tokenize(text) + [(None, len(text))]
    stack: list[list] = [[(), None]]
    bound: dict[str | None, list[int]] = {}
    depth = i = 0
    while True:
        tok, at = tokens[i]
        i += 1
        if tok == "\\":
            names = []
            while tokens[i][0] != ".":
                tok, at = tokens[i]
                if tok is None or not (tok[0].isalpha() or tok[0] == "_"):
                    raise ParseError("expected binder name or '.'", at)
                names.append(tok)
                i += 1
            i += 1
            names = names or [None]  # anonymous de Bruijn binder: \\ . e
            for name in names:
                bound.setdefault(name, []).append(depth)
                depth += 1
            stack.append([names, None])
            continue
        if tok == "(":
            stack.append([(), None])
            continue
        if tok is not None and tok not in (")", "."):
            if tok[0] == "#":
                t = Var(int(tok[1:]))
            elif bound.get(tok):
                t = Var(depth - 1 - bound[tok][-1])
            else:
                t = Var(depth + free.setdefault(tok, len(free)))
        elif stack[-1][1] is None:
            raise ParseError("unexpected end of input" if tok is None
                             else f"unexpected {tok!r}", at)
        else:
            names, t = stack.pop()
            if names:  # the token ends a body; the frame under reads it too
                for name in names:
                    bound[name].pop()
                    t = Lam(t)
                depth -= len(names)
                i -= 1
            elif not stack:
                if tok is not None:
                    raise ParseError(f"unexpected {tok!r}", at)
                return t
            elif tok != ")":
                raise ParseError("expected ')'", at)
        frame = stack[-1]
        frame[1] = t if frame[1] is None else App(frame[1], t)


def parse_term(text: str) -> Term:
    return _parse(text, {})


def parse_term_pair(text1: str, text2: str) -> tuple[Term, Term]:
    """Parse two terms sharing one free-name table, so the same name denotes
    the same index in both."""
    free: dict[str, int] = {}
    return _parse(text1, free), _parse(text2, free)


def parse_witness(expr: str) -> witness.Witness:
    """Dot-composed witness expressions: beta, eta, reflM, reflN."""
    atoms = {"beta": witness.TBeta, "eta": witness.TEta,
             "reflM": witness.ReflM, "reflN": witness.ReflN}
    built = []
    at = 0  # where the segment starts
    for segment in expr.split("."):
        p = segment.strip()
        if p not in atoms:
            # where the atom starts, or its segment's end when it is blank
            lead = len(segment) - len(segment.lstrip())
            raise ParseError(f"unknown witness atom {p!r}", at + lead)
        built.append(atoms[p]())
        at += len(segment) + 1
    out = built[-1]
    for w in reversed(built[:-1]):
        out = witness.Comp(w, out)
    return out


# ---------------------------------------------------------------------------
# Report plumbing.

def _report(command: dict, result, checks: list[dict]) -> dict:
    return {"command": command, "result": result, "checks": checks,
            "ok": all(c["pass"] for c in checks)}


def _emit(report: dict) -> int:
    print(json.dumps(report, sort_keys=True, indent=2))
    status = "ok" if report["ok"] else "FAILED"
    names = ", ".join(c["name"] for c in report["checks"]) or "none"
    print(f"[lamtower] {status}; checks: {names}", file=sys.stderr)
    return 0 if report["ok"] else 1


def _render_seq(p: RedSeq) -> str:
    return f"{to_text(p.source)} ~({len(p)})~ {to_text(p.target)}"


def _render_word(w: F.Word) -> str:
    if not w.letters:
        return f"refl[{_render_seq(w.src)}]"
    return " . ".join(_render_letter(l) for l in w.letters)


def _render_letter(l: F.Letter) -> str:
    # coherence renders only reduced words over its sequences: their letters
    # are associators and whiskerings, none equality-tagged
    inv = "^-1" if l.inv else ""
    if isinstance(l, F.AssL):
        return f"ass({len(l.a)},{len(l.b)},{len(l.c)}){inv}"
    if isinstance(l, F.WlL):
        return f"wl({len(l.edge)},{_render_word(l.inner)}){inv}"
    return f"wr({_render_word(l.inner)},{len(l.edge)}){inv}"


# ---------------------------------------------------------------------------
# Subcommands.

# Largest --fuel reduce and pi0 accept.  The looping term (\x. x x x)
# (\x. x x x) grows at every step, and each step rebuilds its path and
# keeps it in the trace, so a run costs more than the square of its fuel:
# as a CLI process, `reduce` on it took 0.47-0.48 / 1.1-1.6 / 2.6-3.4 s and
# 19 / 31 / 51 MB at fuel 1 000 / 2 000 / 3 000 on a 2-core shared Xeon host
# (Python 3.11.7); before the search resumed at each contraction, 0.58 /
# 1.6-1.9 / 3.4-3.7 s the same day, and 9.1-10.2 s at 4 000 and 17.2 s at
# 5 000 on loaded days; `pi0` stops at the first term that runs out of
# fuel, so it costs the same on it.  The cap bounds steps, not work: with n
# trailing arguments each step rebuilds a path about n long, and at the cap
# n = 2 000 took 10.2 s and 98 MB (ROADMAP item 13's work budget).
MAX_FUEL = 3000


def cmd_reduce(args) -> int:
    _check_bounds("--fuel", args.fuel, least=0, most=MAX_FUEL)
    t = parse_term(args.term)
    checks = []
    try:
        nf, trace = normalize(t, args.fuel)
        result = {"input": to_text(t), "normal_form": to_text(nf),
                  "steps": len(trace)}
        checks.append({"name": "normalized", "pass": True,
                       "detail": f"{len(trace)} steps"})
    except FuelExhausted as e:
        result = {"input": to_text(t), "partial": to_text(e.term),
                  "steps": len(e.trace)}
        checks.append({"name": "normalized", "pass": False,
                       "detail": "fuel exhausted"})
    return _emit(_report({"cmd": "reduce", "term": args.term, "fuel": args.fuel},
                         result, checks))


def cmd_pi0(args) -> int:
    _check_bounds("--fuel", args.fuel, least=0, most=MAX_FUEL)
    t1, t2 = parse_term_pair(args.term1, args.term2)
    checks = []
    try:
        zigzag = pi0_equiv(t1, t2, args.fuel)
    except FuelExhausted:
        result = {"verdict": "fuel-exhausted"}
        checks.append({"name": "decided", "pass": False, "detail": "fuel exhausted"})
        return _emit(_report({"cmd": "pi0", "fuel": args.fuel}, result, checks))
    if zigzag is None:
        result = {"verdict": "not-convertible", "detail": "distinct normal forms"}
        checks.append({"name": "decided", "pass": True, "detail": "NotFound"})
    else:
        result = {"verdict": "convertible", "zigzag_length": len(zigzag),
                  "via": to_text(zigzag.terms[len(zigzag.terms) // 2])}
        checks.append({"name": "decided", "pass": True, "detail": "zigzag found"})
        checks.append({"name": "replay_valid", "pass": validate_seq(zigzag),
                       "detail": f"{len(zigzag)} steps"})
    return _emit(_report({"cmd": "pi0", "term1": args.term1, "term2": args.term2,
                          "fuel": args.fuel}, result, checks))


def cmd_classify(args) -> int:
    w = parse_witness(args.expr)
    tag = witness.tag_classify(w)
    return _emit(_report({"cmd": "classify", "expr": args.expr},
                         {"tag": tag.value}, [{"name": "classified", "pass": True,
                                               "detail": tag.value}]))


def _check_bounds(flag: str, value: int, least=None, most=None) -> None:
    """Refuse a numeric option outside its bounds, before any work."""
    if least is not None and value < least:
        raise ValueError(f"{flag} {value} is below the minimum of {least}")
    if most is not None and value > most:
        raise ValueError(f"{flag} {value} is above the maximum of {most}")


# Largest --base-size kinfty check accepts.  Sizes 6 and 7 pass the cap and
# are refused by check_law_budget with their exact law counts (stage 1 of
# 7 781 and 117 655 elements); a larger size is refused here, before those
# counts are computed: at 1 000 they grow past what Python prints.
MAX_BASE_SIZE = 7


def _base_poles(base_size: int) -> tuple[str, ...]:
    """The poles of a flat base of `base_size` elements, bottom included:
    sR1 and sL1, the two the models read by name, then s2, s3, ...; a size
    out of bounds is refused before any work."""
    _check_bounds("--base-size", base_size, least=3, most=MAX_BASE_SIZE)
    return ("sR1", "sL1") + tuple(f"s{i}" for i in range(2, base_size - 1))


def cmd_witness(args) -> int:
    _check_bounds("--depth", args.depth, least=1, most=kinfinity.MAX_DEPTH)
    w = parse_witness(args.expr)
    tower = Tower(flat_base())
    point = witness.interpret(w, args.depth, tower)
    epsilon = witness.span_epsilon()
    vs_beta = witness.separation_report(w, witness.TBeta(), args.depth, tower)
    vs_eta = witness.separation_report(w, witness.TEta(), args.depth, tower)
    result = {
        "tag": witness.tag_classify(w).value,
        "epsilon": epsilon,
        "coordinate0": tower.base.labels[point.coords[0]],
        "separation_vs_beta": vs_beta,
        "separation_vs_eta": vs_eta,
    }
    checks = [
        {"name": "epsilon_valid", "pass": epsilon["normal_form_equal"],
         "detail": "normal forms agree"},
        {"name": "separates_from_other_class", "pass":
         vs_beta["points_distinct"] != vs_eta["points_distinct"],
         "detail": "exactly one same-tag comparison"},
    ]
    return _emit(_report({"cmd": "witness", "expr": args.expr,
                          "depth": args.depth}, result, checks))


# Largest --maxdim tower-check accepts.  Realization cost per cell grows
# steeply with dimension and with the seed's random derivation trees: with
# the default --samples 100, maxdim 15 finished in 0.55-1.3 s over seeds 0-9,
# but 16 took 12.7 s on seed 6 (0.7 s on seed 0), past the 10 s budget
# (in-process, cap lifted, Python 3.11.7 on a 2-core shared Xeon host; ROADMAP
# item 7 bounds the work instead); 24 took minutes at --samples 5.
MAX_TOWER_DIM = 15

# Largest --samples tower-check accepts.  The run is linear in the sample
# count: at maxdim 15 over seeds 0-9 a CLI process took 0.42-0.78 s at 100
# samples, 2.13-3.76 s at 500 and 4.83-6.79 s at 1 000 (2-core shared Xeon
# host, Python 3.11), so the heaviest seed at the cap finishes within 10 s
# on a busier day of that host as well.
MAX_TOWER_SAMPLES = 1000


def cmd_tower_check(args) -> int:
    # realization is checked from dimension 4, so a smaller cap checks nothing
    _check_bounds("--maxdim", args.maxdim, least=4, most=MAX_TOWER_DIM)
    _check_bounds("--samples", args.samples, least=0, most=MAX_TOWER_SAMPLES)
    rng = random.Random(args.seed)
    checks = []

    bad = sum(not globular_check(gen.gen_h3(rng, depth=2))
              for _ in range(args.samples))
    checks.append({"name": "globularity", "pass": bad == 0,
                   "detail": f"{args.samples} generated 3-cells"})

    hd_bad = 0
    for _ in range(args.samples):
        cell = gen.gen_h2(rng, depth=1)
        h = gen_hd_tree(rng, cell, 5)
        if hd_map(lambda x: x, h) != h:
            hd_bad += 1
        f = lambda c: ("f", c)
        g = lambda c: ("g", c)
        if hd_map(lambda c: g(f(c)), h) != hd_map(g, hd_map(f, h)):
            hd_bad += 1
    checks.append({"name": "hd_functor_laws", "pass": hd_bad == 0,
                   "detail": f"{args.samples} derivation trees"})

    per_dim = max(1, args.samples // 5)
    rb_bad = 0
    for dim in range(4, args.maxdim + 1):
        for _ in range(per_dim):
            cell = gen_rtower_cell(rng, dim)
            if not realize_boundary_check(dim, cell):
                rb_bad += 1
    checks.append({"name": "realize_boundary", "pass": rb_bad == 0,
                   "detail": f"dims 4..{args.maxdim}, {per_dim} cells each"})

    return _emit(_report({"cmd": "tower-check", "maxdim": args.maxdim,
                          "samples": args.samples, "seed": args.seed},
                         {"dimensions": list(range(4, args.maxdim + 1))}, checks))


# Largest --samples kinfty check accepts.  The step-join sample makes up to
# 40 attempts per join and keeps only distinct joins; base size 3 has 3 331 of
# them, so past about 3 000 the attempts run out, however fast a join is.  At
# 1 000, sampling plus the stage-1 projection-pair check took 0.02-0.04 s at
# base size 3 and 0.04-0.06 s at 4 (busy 2-core shared host); at 5 a join
# with its two step maps costs 0.16-0.18 ms, so the default 200 takes
# 0.07-0.10 s there and 1 000 about 0.25 s.
MAX_JOIN_SAMPLES = 1000


def cmd_kinfty(args) -> int:
    poles = _base_poles(args.base_size)
    _check_bounds("--depth", args.depth, least=2, most=kinfinity.MAX_DEPTH)
    _check_bounds("--samples", args.samples, least=0, most=MAX_JOIN_SAMPLES)
    kinfinity.check_law_budget(flat_stage1_size(len(poles)))
    tower = Tower(flat_base(poles))
    rng = random.Random(args.seed)
    report = kinfinity.verify_laws(tower, depth=args.depth)
    checks = list(report["checks"])

    sample = step_join_sample(tower, rng, args.samples)
    for n in (0, 1):
        pp = check_projection_pair(tower, n, sample if n == 1 else ())
        checks.append({"name": f"projection_pair_stage{n}", "pass": pp["ok"],
                       "detail": {"retract": pp["retract_checked"],
                                  "section": pp["section_checked"]}})
    result = {"depth": args.depth, "base": tower.base.labels,
              "stage1_size": len(tower.stage1)}
    return _emit(_report({"cmd": "kinfty-check", "depth": args.depth,
                          "basesize": len(tower.base.labels),
                          "samples": args.samples, "seed": args.seed},
                         result, checks))


# Largest total step count of the four --sequences coherence accepts.
# fs_assoc_compare recurses once per step of p, so past the cap `assoc` and
# `bridges` end in a recursion-depth error from |p| of about 340 and
# `pentagon` from |p| + |q| of about 320: the depth sets the cap, not the
# time.  The time grows about as the square of |p| (the comparison alone,
# in-process: 36 / 143 / 652 ms at |p| = 64 / 128 / 256).  As a CLI process
# (a 2-core shared Xeon host, Python 3.11.7, five runs), with all 256 steps
# in p, the dearest split, `pentagon` / `bridges` / `assoc` took 2.4-3.4 /
# 1.9-2.6 / 0.65-0.9 s and 26 / 24 / 19 MB; on four chained generated
# zigzags of 64 steps each (two runs), 0.45 / 0.40-0.48 / 0.13-0.14 s.
MAX_SEQUENCE_STEPS = 256


def cmd_coherence(args) -> int:
    if args.sequences and args.span:
        raise ValueError("--sequences and --span each choose the four sequences; "
                         "give one of them")
    if args.sequences:
        with open(args.sequences) as fh:
            data = json.load(fh)
        seqs = []
        for i, x in enumerate(data if isinstance(data, list) else ()):
            try:
                seqs.append(serialize.decode(x))
            except ValueError as e:
                raise ValueError(f"sequence {i} is not a replayable reduction "
                                 f"sequence: {e}") from e
        if len(seqs) != 4 or not all(isinstance(x, RedSeq) for x in seqs):
            raise ParseError("expected exactly four serialized sequences", 0)
        _check_bounds("--sequences total steps", sum(map(len, seqs)),
                      most=MAX_SEQUENCE_STEPS)
        for i, seq in enumerate(seqs):
            if not validate_seq(seq):
                raise ValueError(f"sequence {i} is not a replayable reduction sequence")
        p, q, r, s = seqs
    elif args.span:
        t_beta = witness.span_beta_seq()
        p, q, r, s = t_beta, seq_invert(t_beta), t_beta, seq_invert(t_beta)
    else:
        rng = random.Random(args.seed)
        p, q, r, s = gen.gen_composable_seqs(rng, 4, max_steps=2)

    checks = []
    if args.which == "assoc":
        cell = F.fs_assoc_compare(p, q, r)
        src, tgt = F.boundary3_words(cell)
        shell = F.word_reduce(F.shell_word(p, q, r))
        checks.append({"name": "assoc_boundary", "pass":
                       F.words_equal(src, shell) and not tgt.letters,
                       "detail": "source is the shell, target is trivial"})
        result = {"source_word": _render_word(src), "target_word": _render_word(tgt)}
    elif args.which == "pentagon":
        filler = F.fs_pentagon(p, q, r, s)
        left, right = F.pentagon_words(p, q, r, s)
        src, tgt = F.boundary3_words(filler)
        ok = (F.words_equal(src, left) and F.words_equal(tgt, right))
        checks.append({"name": "pentagon_missing_face", "pass": ok,
                       "detail": "boundary equals reduce(L), reduce(R)"})
        result = {"source_word": _render_word(src), "target_word": _render_word(tgt),
                  "faces": len(filler.faces)}
    else:
        bridges = F.fs_bridges(p, q, r, s, Pentagon(p, q, r, s))
        left, _ = F.pentagon_words(p, q, r, s)
        mixed = F.mixed_target_word(p, q, r, s)
        names = ["source_bridge", "target_bridge", "shell_bridge"]
        expect = [(left, None), (mixed, None), (left, mixed)]
        result = {}
        for cell, name, (esrc, etgt) in zip(bridges, names, expect):
            src, tgt = F.boundary3_words(cell)
            ok = F.words_equal(src, esrc) and (F.words_equal(tgt, etgt) if etgt is not None
                                               else not tgt.letters)
            checks.append({"name": name, "pass": ok, "detail": "boundary words"})
            result[name] = {"source": _render_word(src), "target": _render_word(tgt)}
    return _emit(_report({"cmd": "coherence", "which": args.which,
                          "seed": args.seed, "span": bool(args.span)},
                         result, checks))


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with a ValueError, which main reports."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lamtower")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="normalize a term with bounded fuel")
    p.add_argument("term")
    p.add_argument("--fuel", type=int, default=2000)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("pi0", help="decide convertibility via the oracle")
    p.add_argument("term1")
    p.add_argument("term2")
    p.add_argument("--fuel", type=int, default=2000)
    p.set_defaults(fn=cmd_pi0)

    p = sub.add_parser("classify", help="tag a fixed-span witness expression")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("witness", help="interpret a fixed-span witness")
    p.add_argument("expr")
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("tower-check", help="globularity, functor, realization checks")
    p.add_argument("--maxdim", type=int, default=9)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_tower_check)

    p = sub.add_parser("kinfty", help="inverse-limit model checks")
    ksub = p.add_subparsers(dest="kcommand", required=True)
    k = ksub.add_parser("check")
    k.add_argument("--depth", type=int, default=3)
    k.add_argument("--base-size", type=int, default=3, dest="base_size")
    k.add_argument("--samples", type=int, default=200)
    k.add_argument("--seed", type=int, default=0)
    k.set_defaults(fn=cmd_kinfty)

    p = sub.add_parser("coherence", help="front-seed boundary checks")
    p.add_argument("which", choices=["assoc", "pentagon", "bridges"])
    p.add_argument("--sequences", default=None,
                   help="JSON file with four serialized sequences")
    p.add_argument("--span", action="store_true",
                   help="use the span-derived quadruple")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_coherence)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError, FuelExhausted, RecursionError, MemoryError) as e:
        # OSError: an unreadable --sequences file.
        # RecursionError: a pass that recurses once per level of a deep
        # input, such as term equality in pi0; the parser reads any depth.
        # MemoryError: an input whose work outgrows the address space.
        print(json.dumps({"error": str(e)}, sort_keys=True))
        print(f"[lamtower] error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
