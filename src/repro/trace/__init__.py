"""Memory-reference traces: container, Dinero-format IO, interleaving.

This package replaces the paper's SESC + trace-file front end. Traces are
columnar (numpy arrays) for speed; the Dinero ``din`` text format is
supported for interoperability with classic tools. A trace is the
post-L1 reference stream the shared cache sees, as the paper's L1-D
miss traces are, so nothing here filters it through an L1.
"""

from repro.trace.container import Trace
from repro.trace.dinero import read_dinero, write_dinero
from repro.trace.interleave import interleave_random, interleave_round_robin

__all__ = [
    "Trace",
    "interleave_random",
    "interleave_round_robin",
    "read_dinero",
    "write_dinero",
]
