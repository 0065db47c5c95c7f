"""Shared helpers for the test suite."""

import importlib.util
import pathlib

from hodp.parser import parse_system
from hodp.signature import RewriteSystem

ROOT = pathlib.Path(__file__).resolve().parent.parent
SYSTEMS_DIR = ROOT / "systems"

# Two terminating systems whose pairs loop only through a bound variable
# that escapes: a chain step through such a pair substitutes the left
# side's match into it, or merges two escaped variables of one name.
ESCAPING_LOOPS = {
    "shadowed": "sort N\n0 : N\ns : N -> N\nk : (N -> N) -> N\nf : N -> N\ng : N -> N\n"
    "rule g (s X) -> k (\\X:N. f X)\nrule f 0 -> g (s 0)\n",
    "merged": "sort N\nk : (N -> N) -> N\nf : N -> N -> N\nh : N -> N\ng : N -> N -> N\n"
    "rule f X Y -> k (\\y:N. h y)\nrule h W -> k (\\y:N. g y W)\nrule g Z Z -> f Z Z\n",
}


def load_system(name: str) -> RewriteSystem:
    return parse_system((SYSTEMS_DIR / f"{name}.hodp").read_text())


def system_text(name: str) -> str:
    return (SYSTEMS_DIR / f"{name}.hodp").read_text()


def same_reports_tool():
    """tools/same_reports.py, which also holds the input mutator."""
    spec = importlib.util.spec_from_file_location("same_reports", ROOT / "tools" / "same_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
