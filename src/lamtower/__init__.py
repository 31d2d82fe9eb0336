"""Proof-relevant beta/eta conversion towers and a depth-truncated
inverse-limit lambda model, with every law backed by executable checks."""

__version__ = "0.1.0"
