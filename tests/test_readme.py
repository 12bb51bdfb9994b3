"""README.md's library example runs as printed."""

import re
from pathlib import Path

from jointgrid.cascade import FailureScenario, data_availability, run_cascade
from jointgrid.entities import parse_entity_id

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    """The first ``python`` block under README's "Library use" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_the_cascade_and_its_scada_loss(ieee14, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the example names the fixture by its path from the repository root
    exec(compile(library_example(), "README.md", "exec"), {"__name__": "readme_example"})
    attack = FailureScenario.of([parse_entity_id(t) for t in ("P(12)", "C(1,1,6,6)", "C(1,2,6,6)")])
    rule_set = ieee14.rule_set("miim", 1)
    trace = run_cascade(ieee14, rule_set, attack)
    mask = data_availability(trace, ieee14, rule_set)
    assert capsys.readouterr().out == f"{trace.converged_at} {sorted(mask.scada_lost())}\n"
