"""Proof-relevant beta/eta conversion towers and a depth-truncated
inverse-limit lambda model, with every law backed by executable checks."""

from .terms import (App, Dir, FuelExhausted, Lam, RedStep, StepKind, Term,
                    Var, apply_step, find_redexes, normalize, shift, subst)
from .cells import (Assoc, EndpointMismatch, Homotopy2, Homotopy3, IllFormed,
                    Pentagon, RedSeq, Refl, Triangle, boundary, boundary2,
                    boundary3, boundary3_ends, empty_seq, globular_check,
                    seq_compose, seq_from_steps, seq_invert)
from .completion import (HDRefl, HDSymm, HDTrans, ParallelismViolation,
                         RTowerCell, SigmaCell, hd_map, pack, pi0_equiv,
                         realize, realize_boundary_check, triple_cell)
from .frontseed import (FS1Seed, FS2Seed, HornGlueFailure, NonComposable,
                        Word, boundary3_words, fs_assoc_compare, fs_bridges,
                        fs_pentagon, word_reduce)
from .domains import (CapExceeded, FinPoset, MonoMap, Tower,
                      check_projection_pair, enumerate_stage, flat_base, lub,
                      step_join_sample, step_map)
from .kinfinity import (Constant, DepthTooSmall, FromThread, Identity, Thread,
                        app, app_shadow, reify, restrict, stage_embed,
                        verify_laws)
from .witness import (Comp, ReflM, ReflN, Tag, TBeta, TEta, Witness,
                      interpret, pad, separation_report, tag_classify)

__version__ = "0.1.0"
