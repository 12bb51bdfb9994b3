import importlib.util
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzzing import assert_short_lines, edit_json, rename_bus
from jointgrid.grid import MAX_ID, MAX_LENGTH, GridError, grid_from_dict, load_grid

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def minimal_grid_dict():
    return {
        "version": 1,
        "buses": [{"id": 1}, {"id": 2}],
        "branches": [{"from": 1, "to": 2, "r": 0.01, "x": 0.1, "length": 5.0}],
    }


def test_minimal_grid_loads():
    grid = grid_from_dict(minimal_grid_dict())
    assert len(grid.buses) == 2
    assert grid.branches[0].length == 5.0


def test_bundled_14_bus_counts(ieee14_grid):
    assert len(ieee14_grid.buses) == 14
    assert len(ieee14_grid.branches) == 20
    assert ieee14_grid.generator_buses() == [1, 2, 3, 6, 8]
    assert sum(br.transformer for br in ieee14_grid.branches) == 3


def test_duplicate_bus_id_named():
    data = minimal_grid_dict()
    data["buses"].append({"id": 2})
    with pytest.raises(GridError, match=r"/buses/2/id: duplicate bus id 2"):
        grid_from_dict(data)


def test_unknown_schema_version():
    data = minimal_grid_dict()
    data["version"] = 99
    with pytest.raises(GridError, match="unknown schema version"):
        grid_from_dict(data)
    del data["version"]
    with pytest.raises(GridError, match="unknown schema version"):
        grid_from_dict(data)


def test_branch_endpoint_must_exist():
    data = minimal_grid_dict()
    data["branches"][0]["to"] = 9
    with pytest.raises(GridError, match=r"/branches/0/to: unknown bus 9"):
        grid_from_dict(data)


def test_zero_reactance_rejected():
    data = minimal_grid_dict()
    data["branches"][0]["x"] = 0.0
    with pytest.raises(GridError, match=r"/branches/0/x"):
        grid_from_dict(data)


def test_negative_resistance_rejected():
    data = minimal_grid_dict()
    data["branches"][0]["r"] = -0.1
    with pytest.raises(GridError, match=r"/branches/0/r"):
        grid_from_dict(data)


def test_missing_length_synthesized_from_reactance():
    data = minimal_grid_dict()
    del data["branches"][0]["length"]
    grid = grid_from_dict(data)
    assert grid.branches[0].length == pytest.approx(0.1 * 400.0)


def test_nonpositive_length_rejected_for_lines():
    data = minimal_grid_dict()
    data["branches"][0]["length"] = 0.0
    with pytest.raises(GridError, match="length"):
        grid_from_dict(data)


def test_substation_map_must_cover_all_buses():
    data = minimal_grid_dict()
    data["substation_map"] = {"1": 1}
    with pytest.raises(GridError, match="buses without a substation"):
        grid_from_dict(data)


def test_substation_map_unknown_bus():
    data = minimal_grid_dict()
    data["substation_map"] = {"1": 1, "2": 2, "5": 3}
    with pytest.raises(GridError, match="unknown bus 5"):
        grid_from_dict(data)


def test_control_centers_must_differ():
    data = minimal_grid_dict()
    data["control_centers"] = [1, 1]
    with pytest.raises(GridError, match="must differ"):
        grid_from_dict(data)


def full_grid_dict():
    """A valid grid that sets every field of the schema."""
    return {
        "version": 1,
        "name": "fuzz",
        "buses": [{"id": 1, "generator": True}, {"id": 2}, {"id": 3}],
        "branches": [
            {"from": 1, "to": 2, "r": 0.01, "x": 0.1, "b": 0.02, "length": 5.0},
            {"from": 2, "to": 3, "x": 0.2, "transformer": True},
        ],
        "substation_map": {"1": 1, "2": 1, "3": 2},
        "pmu_substations": [1],
        "control_centers": [1, 2],
        "sadm_homing": {"2": 1},
        "oadm_homing": {"2": 1},
    }


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_malformed_grid_raises_grid_error(data):
    """Replacing, deleting or re-keying any part of a valid grid either
    still loads or raises ``GridError``; never a bare ``KeyError``,
    ``TypeError``, ``IndexError`` or ``OverflowError``; and a refusal's
    message has no long line."""
    try:
        grid_from_dict(edit_json(data, full_grid_dict()))
    except GridError as exc:
        assert_short_lines(str(exc))


# Non-canonical spellings of an id key, each with the canonical key it
# would collide with under int().
NON_CANONICAL_KEYS = {"05": "5", " 5": "5", "+5": "5", "1_4": "14"}


@pytest.mark.parametrize("field", ["substation_map", "sadm_homing", "oadm_homing"])
@pytest.mark.parametrize("key", NON_CANONICAL_KEYS)
def test_non_canonical_id_key_named(fixtures_dir, field, key):
    data = json.loads((fixtures_dir / "ieee14.json").read_text())
    keys = data.setdefault(field, {})
    keys[key] = keys.pop(NON_CANONICAL_KEYS[key], 1)
    with pytest.raises(GridError, match=re.escape(f"/{field}/{key}: key {key!r} must be")):
        grid_from_dict(data)


# Each edit puts a negative id in one place of the 14-bus grid; an entity id
# spells its indices in digits only, so none of them could be named.
NEGATIVE_IDS = {
    "bus": (lambda d: rename_bus(d, 14, -14), "/buses/13/id: id must be non-negative, got -14"),
    "substation_map_key": (lambda d: d["substation_map"].update({"-14": 8}), "/substation_map/-14: bus id"),
    "substation_map_value": (lambda d: d["substation_map"].update({"14": -8}), "/substation_map/14: id must"),
    "pmu_substations": (lambda d: d["pmu_substations"].append(-7), "/pmu_substations/3: id must"),
    "control_centers": (lambda d: d.update(control_centers=[2, -1]), "/control_centers/1: id must"),
    "sadm_homing_key": (lambda d: d.update(sadm_homing={"-6": 3}), "/sadm_homing/-6: substation id"),
    "sadm_homing_value": (lambda d: d.update(sadm_homing={"6": -3}), "/sadm_homing/6: id must"),
    "oadm_homing_key": (lambda d: d["oadm_homing"].update({"-9": 1}), "/oadm_homing/-9: substation id"),
    "oadm_homing_value": (lambda d: d["oadm_homing"].update({"9": -1}), "/oadm_homing/9: id must"),
}


# Each edit puts an id past ``MAX_ID`` in one place of the 14-bus grid:
# estimation holds bus ids in numpy's C integers, which 10**20 overflows.
HUGE = 10**20
OVERSIZED_IDS = {
    "bus": (lambda d: rename_bus(d, 14, HUGE), f"/buses/13/id: id must be at most {MAX_ID}, got {HUGE}"),
    "bus_past_bound": (lambda d: rename_bus(d, 14, MAX_ID + 1), "/buses/13/id: id must be at most"),
    "substation_map_key": (lambda d: d["substation_map"].update({str(HUGE): 8}), f"/substation_map/{HUGE}: bus id"),
    "substation_map_value": (lambda d: d["substation_map"].update({"14": HUGE}), "/substation_map/14: id must"),
    "pmu_substations": (lambda d: d["pmu_substations"].append(HUGE), "/pmu_substations/3: id must"),
    "control_centers": (lambda d: d.update(control_centers=[2, HUGE]), "/control_centers/1: id must"),
    "sadm_homing_key": (lambda d: d.update(sadm_homing={str(HUGE): 3}), f"/sadm_homing/{HUGE}: substation id"),
    "sadm_homing_value": (lambda d: d.update(sadm_homing={"6": HUGE}), "/sadm_homing/6: id must"),
    "oadm_homing_key": (lambda d: d["oadm_homing"].update({str(HUGE): 1}), f"/oadm_homing/{HUGE}: substation id"),
    "oadm_homing_value": (lambda d: d["oadm_homing"].update({"9": HUGE}), "/oadm_homing/9: id must"),
}


def _edited_grid_raises(fixtures_dir, edit, message):
    data = json.loads((fixtures_dir / "ieee14.json").read_text())
    edit(data)
    with pytest.raises(GridError, match=re.escape(message)):
        grid_from_dict(data)


@pytest.mark.parametrize("where", NEGATIVE_IDS)
def test_negative_id_named(fixtures_dir, where):
    _edited_grid_raises(fixtures_dir, *NEGATIVE_IDS[where])


@pytest.mark.parametrize("where", OVERSIZED_IDS)
def test_oversized_id_named(fixtures_dir, where):
    _edited_grid_raises(fixtures_dir, *OVERSIZED_IDS[where])


# Each edit sets one branch length of the 14-bus grid out of range.  Branch
# 7 (4-7) is a transformer, which may have length 0 but not a negative one;
# a line of length 0 is ``test_nonpositive_length_rejected_for_lines``.
BAD_LENGTHS = {
    "transformer_negative": (7, -50, "/branches/7/length: length -50 km outside [0, 4e+08] km"),
    "line_past_bound": (0, 2 * MAX_LENGTH, "/branches/0/length: length 8e+08 km outside"),
    "line_huge": (0, 1e308, "/branches/0/length: length 1e+308 km outside"),
}


@pytest.mark.parametrize("where", BAD_LENGTHS)
def test_branch_length_out_of_range_named(fixtures_dir, where):
    index, length, message = BAD_LENGTHS[where]
    _edited_grid_raises(fixtures_dir, lambda d: d["branches"][index].update(length=length), message)


def test_id_and_length_bounds_are_inclusive(fixtures_dir):
    """A bus id of ``MAX_ID``, a transformer of length 0 and a line of
    length ``MAX_LENGTH`` all load."""
    data = json.loads((fixtures_dir / "ieee14.json").read_text())
    rename_bus(data, 14, MAX_ID)
    data["branches"][7]["length"] = 0
    data["branches"][0]["length"] = MAX_LENGTH
    grid = grid_from_dict(data)
    assert grid.bus_ids[-1] == MAX_ID
    assert (grid.branches[7].length, grid.branches[0].length) == (0, MAX_LENGTH)


def test_two_keys_for_one_bus_rejected(fixtures_dir):
    data = json.loads((fixtures_dir / "ieee14.json").read_text())
    data["substation_map"]["04"] = 9  # beside "4": 1
    with pytest.raises(GridError, match="/substation_map/04: key '04' must be a bus id"):
        grid_from_dict(data)


def test_top_level_must_be_an_object(tmp_path):
    """Worded as the other input files word it, with no empty JSON pointer."""
    path = tmp_path / "g.json"
    path.write_text("[1]", encoding="utf-8")
    with pytest.raises(GridError) as info:
        load_grid(path)
    assert str(info.value) == f"{path}: top level must be an object, got list"


def test_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(GridError, match="not valid JSON"):
        load_grid(path)


def test_118_bus_fixture_matches_generator(fixtures_dir):
    """``tools/make_ieee118.py`` regenerates the bundled fixture byte for byte."""
    spec = importlib.util.spec_from_file_location("make_ieee118", TOOLS / "make_ieee118.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    expected = (fixtures_dir / "ieee118.json").read_text(encoding="utf-8")
    assert json.dumps(generator.payload(), indent=1) + "\n" == expected
