"""Shared helpers for the test suite."""

import importlib.util
import pathlib

from hodp.parser import parse_system
from hodp.signature import RewriteSystem

ROOT = pathlib.Path(__file__).resolve().parent.parent
SYSTEMS_DIR = ROOT / "systems"


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
