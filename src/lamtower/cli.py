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
from .terms import (App, FuelExhausted, Lam, Term, Var, apply_step, normalize,
                    to_text)


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


class _Parser:
    """Named form (\\x. e, juxtaposition, parens) and raw de Bruijn form
    (#n and anonymous \\ . e).  Free names get indices by first occurrence."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.free: list[str] = []
        self.text = text

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self) -> Term:
        t = self._term([])
        tok, at = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok!r}", at)
        return t

    def _term(self, binders: list[str | None]) -> Term:
        tok, at = self._peek()
        if tok == "\\":
            self._next()
            names: list[str | None] = []
            while True:
                tok, at = self._peek()
                if tok == ".":
                    self._next()
                    break
                if tok is not None and (tok[0].isalpha() or tok[0] == "_"):
                    names.append(self._next()[0])
                else:
                    raise ParseError("expected binder name or '.'", at)
            if not names:
                names = [None]  # anonymous de Bruijn binder: \ . e
            body = self._term(list(reversed(names)) + binders)
            for _ in names:
                body = Lam(body)
            return body
        return self._app(binders)

    def _app(self, binders) -> Term:
        t = self._atom(binders)
        while True:
            tok, _ = self._peek()
            if tok is None or tok in (")", "."):
                return t
            if tok == "\\":
                t = App(t, self._term(binders))
                return t
            t = App(t, self._atom(binders))

    def _atom(self, binders) -> Term:
        tok, at = self._next()
        if tok is None:
            raise ParseError("unexpected end of input", at)
        if tok == "(":
            t = self._term(binders)
            tok2, at2 = self._next()
            if tok2 != ")":
                raise ParseError("expected ')'", at2)
            return t
        if tok.startswith("#"):
            return Var(int(tok[1:]))
        if tok[0].isalpha() or tok[0] == "_":
            if tok in binders:
                return Var(binders.index(tok))
            if tok not in self.free:
                self.free.append(tok)
            return Var(len(binders) + self.free.index(tok))
        raise ParseError(f"unexpected {tok!r}", at)


def parse_term(text: str) -> Term:
    return _Parser(text).parse()


def parse_term_pair(text1: str, text2: str) -> tuple[Term, Term]:
    """Parse two terms sharing one free-name table, so the same name denotes
    the same index in both."""
    first = _Parser(text1)
    t1 = first.parse()
    second = _Parser(text2)
    second.free = list(first.free)
    return t1, second.parse()


def parse_witness(expr: str) -> witness.Witness:
    """Dot-composed witness expressions: beta, eta, reflM, reflN."""
    atoms = {"beta": witness.TBeta, "eta": witness.TEta,
             "reflM": witness.ReflM, "reflN": witness.ReflN}
    parts = [p.strip() for p in expr.split(".")]
    built = []
    for p in parts:
        if p not in atoms:
            raise ParseError(f"unknown witness atom {p!r}", expr.find(p))
        built.append(atoms[p]())
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
    inv = "^-1" if getattr(l, "inv", False) else ""
    eq = "=" if getattr(l, "eq", False) else ""
    if isinstance(l, F.AssL):
        return f"{eq}ass({len(l.a)},{len(l.b)},{len(l.c)}){inv}"
    if isinstance(l, F.WlL):
        return f"{eq}wl({len(l.edge)},{_render_word(l.inner)}){inv}"
    if isinstance(l, F.WrL):
        return f"{eq}wr({_render_word(l.inner)},{len(l.edge)}){inv}"
    if isinstance(l, F.ReflL):
        return "refl"
    return f"{eq}{l.name}{inv}"


# ---------------------------------------------------------------------------
# Subcommands.

# Largest --fuel reduce and pi0 accept.  The looping term (\x. x x x)
# (\x. x x x) grows at every step, so a run costs more than the square of
# its fuel: as a CLI process, `reduce` on it took 0.61 / 2.25 / 4.3-4.9 /
# 7.5 / 9.1 s and 19 / 31 / 51 / 64 / 78 MB at fuel 1 000 / 2 000 / 3 000 /
# 3 500 / 4 000 on a loaded day of a 2-core shared Xeon host (Python 3.11.7),
# and 10.2 s at 4 000 and 17.2 s at 5 000 on another such day.  At the cap it
# finishes within 10 s with room to spare; `pi0` stops at the first term that
# runs out of fuel, so it costs the same on it.
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
        replay = t1
        for s in zigzag.steps:
            replay = apply_step(replay, s)
        result = {"verdict": "convertible", "zigzag_length": len(zigzag),
                  "via": to_text(zigzag.terms[len(zigzag.terms) // 2])}
        checks.append({"name": "decided", "pass": True, "detail": "zigzag found"})
        checks.append({"name": "replay_valid", "pass": replay == t2,
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
    tower = witness.default_tower()
    interp = witness.interpret(w, args.depth, tower)
    vs_beta = witness.separation_report(w, witness.TBeta(), args.depth, tower)
    vs_eta = witness.separation_report(w, witness.TEta(), args.depth, tower)
    result = {
        "tag": interp.tag.value,
        "epsilon": interp.epsilon,
        "coordinate0": tower.base.labels[interp.point.coords[0]],
        "separation_vs_beta": vs_beta,
        "separation_vs_eta": vs_eta,
    }
    checks = [
        {"name": "epsilon_valid", "pass": interp.epsilon["normal_form_equal"],
         "detail": "normal forms agree"},
        {"name": "separates_from_other_class", "pass":
         vs_beta["points_distinct"] != vs_eta["points_distinct"],
         "detail": "exactly one same-tag comparison"},
    ]
    return _emit(_report({"cmd": "witness", "expr": args.expr,
                          "depth": args.depth}, result, checks))


# Largest --maxdim tower-check accepts.  Realization cost per cell grows
# steeply with dimension and with the seed's random derivation trees: with
# the default --samples 100, maxdim 15 finished in 0.55-1.3 s over seeds 0-9
# (2-core shared Xeon host, Python 3.11, in-process), but 16 took 31 s on
# seed 6 (1.1-5.5 s on the others), past the 10 s budget; 24 took minutes at
# --samples 5 and 40 never finished.
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


# Largest total step count of the four --sequences coherence accepts.  The
# word engine's work grows faster than the square of the sequence lengths:
# as a CLI process on four chained generated zigzags of n steps each (a
# 2-core shared Xeon host, Python 3.11.7), `pentagon` / `bridges` / `assoc`
# took 1.1 / 1.1 / 0.3 s at n = 64, 4.9-5.9 / 4.9-6.2 / 0.8-0.9 s at
# n = 128 (three runs) and 9.7 / 8.3 / 1.9 s at n = 160.  At the cap,
# 4 x 128 steps, the slowest finishes within 10 s on a loaded day.  Uneven
# splits of about that total (256-128-64-64, 64-64-128-256, 1-1-1-509)
# ended within 3.4 s, some in a recursion-depth error: `pentagon` and
# `bridges` where |p| + |q| passes about 300 steps, `assoc` at |p| = 509.
MAX_SEQUENCE_STEPS = 512


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lamtower")
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
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, FuelExhausted, RecursionError, MemoryError) as e:
        # OSError: an unreadable --sequences file.
        # RecursionError: an input nested deeper than the recursive parser
        # (or another recursive pass) can follow.
        # MemoryError: an input whose work outgrows the address space.
        print(json.dumps({"error": str(e)}, sort_keys=True))
        print(f"[lamtower] error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
