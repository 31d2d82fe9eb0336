"""Per-function tracing installed from outside the program.

A Tracer replaces selected public functions and methods of lamtower with
wrappers that count calls and accumulate self time.  Each wrapper is
installed in the module that defines the function and in every loaded
lamtower module that imported the name, so that self time lands on the layer
that owns the code.  Nothing under src/ is changed; uninstall() restores the
originals.

Spans are kept per item (one span per checked item, holding per-function
aggregates) rather than per call: one tower pass makes several hundred
thousand seq_compose calls.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (traced name, module, attribute).  "Class.method" names a method; several
# targets may share one traced name.  Entry points beyond the functions the
# per-layer metrics name are wrapped too, so that their own time is
# attributed to their layer rather than counted as unattributed.
TARGETS = [
    ("terms.normalize", "terms", "normalize"),
    ("terms.first_redex", "terms", "first_redex"),
    ("terms.find_redexes", "terms", "find_redexes"),
    ("terms.apply_step", "terms", "apply_step"),
    ("terms.subst", "terms", "subst"),
    ("terms.shift", "terms", "shift"),
    ("terms.eq", "terms", "Var.__eq__"),
    ("terms.eq", "terms", "App.__eq__"),
    ("terms.eq", "terms", "Lam.__eq__"),
    ("cells.seq_compose", "cells", "seq_compose"),
    ("cells.seq_from_steps", "cells", "seq_from_steps"),
    ("cells.seq_invert", "cells", "seq_invert"),
    ("cells.boundary2", "cells", "boundary2"),
    ("cells.boundary3", "cells", "boundary3"),
    ("cells.globular_check", "cells", "globular_check"),
    ("completion.realize", "completion", "realize"),
    ("completion.realize_boundary_check", "completion", "realize_boundary_check"),
    ("completion.parallel", "completion", "parallel"),
    ("completion.hd_map", "completion", "hd_map"),
    ("completion.pi0_equiv", "completion", "pi0_equiv"),
    ("frontseed.word_reduce", "frontseed", "word_reduce"),
    ("frontseed.word_of", "frontseed", "word_of"),
    ("frontseed.boundary3_words", "frontseed", "boundary3_words"),
    ("frontseed.words_equal", "frontseed", "words_equal"),
    ("frontseed.fs_assoc_compare", "frontseed", "fs_assoc_compare"),
    ("frontseed.fs_pentagon", "frontseed", "fs_pentagon"),
    ("frontseed.fs_bridges", "frontseed", "fs_bridges"),
    ("domains.emb", "domains", "Tower.emb"),
    ("domains.proj", "domains", "Tower.proj"),
    ("domains.leq", "domains", "Tower.leq"),
    ("domains.apply", "domains", "Tower.apply"),
    ("domains.stage2_probes", "domains", "Tower.stage2_probes"),
    ("domains.lazymono_eval", "domains", "LazyMono.eval"),
    ("domains.check_projection_pair", "domains", "check_projection_pair"),
    ("kinfinity.verify_laws", "kinfinity", "verify_laws"),
    ("kinfinity.stage_embed", "kinfinity", "stage_embed"),
    ("kinfinity.reify", "kinfinity", "reify"),
    ("kinfinity.app", "kinfinity", "app"),
    ("kinfinity.thread_eq", "kinfinity", "thread_eq"),
    ("kinfinity.thread_le", "kinfinity", "thread_le"),
]


class Tracer:
    """Per-item aggregates: {traced name: [calls, self seconds]} plus work
    counters, recorded at the wrapped boundaries."""

    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.agg: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.seen_cells: dict[int, object] = {}
        self.spans: list[dict] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        # The package and every submodule: any of them may have imported a name.
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "lamtower" or name.startswith("lamtower."))]
        for traced, modname, attr in TARGETS:
            owner = sys.modules["lamtower." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(traced, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(traced, original)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def _set(self, owner, key: str, wrapper) -> None:
        self._installed.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, traced: str, fn):
        stack = self._stack
        pre, post = self._hooks(traced)

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            stack.append(0.0)
            t0 = perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                a = self.agg.get(traced)
                if a is None:
                    self.agg[traced] = [1, dt - child]
                else:
                    a[0] += 1
                    a[1] += dt - child
                if post is not None:
                    post(args, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def _bump(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def _hooks(self, traced: str):
        """Work counters for the layers whose ratios the benchmark reports."""
        if traced == "terms.normalize":
            def post(args, result, exc):
                if result is not None:
                    self._bump("terms.normalize.steps", len(result[1]))
                elif hasattr(exc, "trace"):
                    self._bump("terms.normalize.steps", len(exc.trace))
                    self._bump("terms.normalize.exhausted")
            return None, post
        if traced == "cells.boundary2":
            def post(args, result, exc):
                # Keyed by identity and holding the cell, so ids are not reused.
                self.seen_cells.setdefault(id(args[0]), args[0])
            return None, post
        if traced == "frontseed.word_reduce":
            def post(args, result, exc):
                self._bump("frontseed.word_reduce.letters_in", len(args[0].letters))
                if result is not None:
                    self._bump("frontseed.word_reduce.letters_out", len(result.letters))
            return None, post
        if traced == "domains.lazymono_eval":
            def pre(args):
                if args[1] in args[0].memo:
                    self._bump("domains.lazymono.hits")
            return pre, None
        return None, None

    # -- items -----------------------------------------------------------------

    def end_item(self, kind: str, t0: float, t1: float) -> None:
        """Close the span of one item; later calls count toward the next."""
        self.spans.append({"kind": kind, "start": t0, "end": t1,
                           "functions": self.agg, "counters": self.counters})
        self.agg = {}
        self.counters = {}
