"""Termination certificates for rewriting on simply typed lambda terms.

The library decides whether the union of beta reduction and a user
supplied rewrite system can be certified terminating: it checks rule
admissibility through a computability closure, extracts dependency pairs,
verifies their side conditions, and searches for a path-ordering
certificate.  A bounded exploration engine looks for empirical cycle
witnesses when a disproof is wanted.
"""

from hodp.parser import parse_system
from hodp.pipeline import Options, run_pipeline

__version__ = "0.1.0"
