"""The tools under ``tools/``, loaded by path and run in-process."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_n1_family_reads_the_14_bus_baseline(ieee14):
    """One round of ``tools/n1_family.py``'s family on the 14-bus network:
    no superset violation, and the strict supersets and distinct losses the
    tool prints for ``ieee14``."""
    violations, strict, losses = load_tool("n1_family").family(ieee14)
    assert (violations, strict) == (0, 118)
    assert len({loss[1:] for loss in losses}) == 26
    assert len(losses) == 46
