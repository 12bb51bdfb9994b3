import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import shutil
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzing import add_unknown_pmu_substations, assert_short_lines, cut_until_disconnected, edit_json, rename_bus
from idr_reader import parse_idr_file
from oracle import format_idr_file, read, registry_payload
from jointgrid import cli, entities as ent, estimation
from jointgrid.cli import build_parser, main, rule_file_text
from jointgrid.entities import EntityError
from jointgrid.grid import MAX_ID, MAX_PU
from jointgrid.idr import format_idr


def test_parser_supports_synth():
    args = build_parser().parse_args(["synth", "--grid", "g.json", "--out-dir", "out"])
    assert args.command == "synth"
    assert args.grid == "g.json"


def test_parser_supports_cascade_defaults():
    args = build_parser().parse_args(["cascade", "--scenario", "s.json", "--out-dir", "out"])
    assert args.command == "cascade"
    assert args.model is None
    assert args.case is None


def test_parser_rejects_unknown_model():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["cascade", "--scenario", "s.json", "--out-dir", "o", "--model", "fuzzy"]
        )


def test_parser_rejects_unknown_case():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["cascade", "--scenario", "s.json", "--out-dir", "o", "--case", "3"]
        )


def test_parser_is_built_once_and_carries_nothing_between_calls(fixtures_dir, tmp_path, capsys):
    """``main`` reuses one parser: after a refused parse and two help pages
    through it, a 14-bus ``run`` still writes the pinned bytes."""
    assert build_parser() is build_parser()
    for argv, code in (
        (["cascade", "--scenario", "s.json", "--out-dir", "o", "--case", "3"], 2),
        (["--help"], 0),
        (["run", "--help"], 0),
    ):
        with pytest.raises(SystemExit) as stopped:
            main(argv)
        assert stopped.value.code == code
    capsys.readouterr()
    test_run_output_bytes_are_pinned(fixtures_dir, tmp_path)


def test_validate_ok(fixtures_dir, capsys):
    code = main(["validate", "--grid", str(fixtures_dir / "ieee14.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "11 substations" in out


def test_runtime_failure_exits_1(fixtures_dir, tmp_path, capsys, monkeypatch):
    """A stage that fails on valid input exits 1 with one line naming the
    command; exit 2 is kept for input the program refuses."""

    def fail(*args):
        raise RuntimeError("stage failed")

    monkeypatch.setattr(cli, "run_cascade", fail)
    scenario = fixtures_dir / "ieee14_substation6_attack.json"
    assert main(["run", "--scenario", str(scenario), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error [run]: stage failed\n"


def test_validate_bad_grid_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 99}), encoding="utf-8")
    code = main(["validate", "--grid", str(bad)])
    assert code == 2
    assert "unknown schema version" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "synth", "cascade", "run"])
def test_violations_exit_2(fixtures_dir, tmp_path, capsys, monkeypatch, command):
    """``validate`` lists violations on stdout; the commands that write
    files list them on stderr and write nothing."""
    monkeypatch.setattr(cli, "validate_network", lambda network: ["first", "second"])
    if command in ("validate", "synth"):
        source = ["--grid", str(fixtures_dir / "ieee14.json")]
    else:
        source = ["--scenario", str(fixtures_dir / "ieee14_substation6_attack.json")]
    out_dir = [] if command == "validate" else ["--out-dir", str(tmp_path / "out")]
    assert main([command, *source, *out_dir]) == 2
    captured = capsys.readouterr()
    listed = captured.out if command == "validate" else captured.err
    assert listed == "violation: first\nviolation: second\n"
    assert (captured.err if command == "validate" else captured.out) == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["x", "b"])
def test_validate_non_finite_branch_number_exits_2(fixtures_dir, tmp_path, capsys, field):
    grid = json.loads((fixtures_dir / "ieee14.json").read_text(encoding="utf-8"))
    grid["branches"][0][field] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(grid), encoding="utf-8")
    code = main(["validate", "--grid", str(bad)])
    assert code == 2
    assert f"/branches/0/{field}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "branch, message",
    [
        ({"x": 1e200}, "/branches/0/x"),  # the series admittance rounds to 0
        ({"r": 0.0, "x": 1e-170}, "/branches/0/x"),  # r*r + x*x underflows to 0
        ({"x": 10**400}, "/branches/0/x"),  # too large for a float
        ({"x": "DIGITS"}, "not valid JSON"),  # past the integer digit limit
        ({"b": 1e300}, "/branches/0/b"),  # a PMU current's squared sigma overflows
        ({"x": 0}, "bad.json: /branches/0/x: reactance must be non-zero"),  # the error names the file
        # json would keep the last of a repeated key's values, here a valid one.
        ({"x": "TWICE"}, "bad.json: not valid JSON: key 'x' appears twice in one object"),
    ],
    ids=["impedance_high", "impedance_low", "int_401_digits", "int_5000_digits", "susceptance_high",
         "reactance_zero", "repeated_key"],
)
def test_validate_unusable_branch_number_exits_2(fixtures_dir, tmp_path, capsys, branch, message):
    grid = json.loads((fixtures_dir / "ieee14.json").read_text(encoding="utf-8"))
    grid["branches"][0].update(branch)
    bad = tmp_path / "bad.json"
    text = json.dumps(grid).replace('"DIGITS"', "9" * 5000).replace('"x": "TWICE"', '"x": 1e200, "x": 0.1')
    bad.write_text(text, encoding="utf-8")
    assert main(["validate", "--grid", str(bad)]) == 2
    assert message in capsys.readouterr().err


def _transformer_below_zero(grid):
    """Bus 7 in a substation of its own, its transformer from bus 4 at -50
    km: that substation would lie -100 km from itself."""
    grid["substation_map"]["7"] = 99
    grid["branches"][7]["length"] = -50
    return grid


def _every_line_at(grid, length):
    for branch in grid["branches"]:
        if not branch.get("transformer"):
            branch["length"] = length
    return grid


@pytest.mark.parametrize(
    "edit, message",
    [
        (_transformer_below_zero, "/branches/7/length: length -50 km"),
        (lambda grid: _every_line_at(grid, 1e308), "/branches/0/length: length 1e+308 km"),
    ],
    ids=["transformer_negative", "lines_1e308"],
)
def test_validate_branch_length_out_of_range_exits_2(fixtures_dir, tmp_path, capsys, edit, message):
    grid = edit(json.loads((fixtures_dir / "ieee14.json").read_text(encoding="utf-8")))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(grid), encoding="utf-8")
    assert main(["validate", "--grid", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("bus_id, code", [(10**20, 2), (MAX_ID, 0)], ids=["huge", "at_bound"])
def test_run_bounds_bus_ids(fixtures_dir, tmp_path, capsys, bus_id, code):
    """A bus id past ``MAX_ID`` exits 2 at its pointer, where ``run`` used
    to exit 1 from inside numpy; one at the bound runs to its estimation."""
    grid = rename_bus(json.loads((fixtures_dir / "ieee14.json").read_text(encoding="utf-8")), 14, bus_id)
    (tmp_path / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
    scenario = {"version": 1, "grid": "grid.json", "killed": ["P(12)"], "estimation": {"seeds": 2}}
    (tmp_path / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    argv = ["run", "--scenario", str(tmp_path / "scenario.json"), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == code
    if code:
        assert f"/buses/13/id: id must be at most {MAX_ID}" in capsys.readouterr().err
    else:
        assert f"\n{MAX_ID},miim," in (tmp_path / "out" / "errors.csv").read_text(encoding="utf-8")


def test_missing_scenario_exits_2(tmp_path):
    code = main(["cascade", "--scenario", str(tmp_path / "none.json"), "--out-dir", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize(
    "flag, what, argv",
    [
        ("--grid", "grid", ["validate", "--grid", "{}"]),
        ("--scenario", "scenario", ["run", "--scenario", "{}", "--out-dir", "out"]),
        ("--mask", "mask", ["estimate", "--mask", "{}", "--out", "errors.csv"]),
        ("--true-state", "true-state",
         ["estimate", "--mask", "{mask}", "--true-state", "{}", "--out", "errors.csv"]),
    ],
    ids=["grid", "scenario", "mask", "true_state"],
)
def test_unusable_input_path_exits_2(fixtures_dir, tmp_path, capsys, monkeypatch, flag, what, argv):
    """An input path that is missing, a directory, holds a NUL byte or is
    too long for the OS exits 2 with an error naming the path."""
    monkeypatch.chdir(tmp_path)
    mask = tmp_path / "mask.json"
    assert main(["cascade", "--scenario", str(fixtures_dir / "ieee14_substation6_attack.json"),
                 "--model", "miim", "--out-dir", str(tmp_path)]) == 0
    (tmp_path / "availability_miim_case1.json").rename(mask)
    for name, message in [
        ("missing.json", f"{what} file not found: {tmp_path / 'missing.json'}"),
        (str(tmp_path), f"{what} file not found: {tmp_path}"),
        ("in\x00put.json", f"bad {what} path 'in\\x00put.json'"),
        ("p" * 5000, f"bad {what} path '{'p' * 80}'"),
    ]:
        assert main([arg.format(name, mask=mask) for arg in argv]) == 2, (flag, name[:20])
        assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "errors.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--mask", "{mask}", "--out", "adir"], "--out 'adir': is a directory"),
        (["estimate", "--mask", "{mask}", "--out", "missing/x.csv"],
         "--out 'missing/x.csv': directory missing not found"),
        (["estimate", "--mask", "{mask}", "--out", "afile/x.csv"], "--out 'afile/x.csv': afile is not a directory"),
        (["run", "--scenario", "{scenario}", "--out-dir", "afile"], "--out-dir 'afile': afile is not a directory"),
        (["cascade", "--scenario", "{scenario}", "--out-dir", "afile/sub"],
         "--out-dir 'afile/sub': afile is not a directory"),
        (["synth", "--grid", "{grid}", "--out-dir", "afile/sub"], "--out-dir 'afile/sub': afile is not a directory"),
        (["synth", "--grid", "{grid}", "--out-dir", "p" * 5000], f"--out-dir '{'p' * 80}': File name too long"),
    ],
    ids=["out_dir", "out_missing_dir", "out_under_file", "run_file", "cascade_under_file", "synth_under_file",
         "synth_too_long"],
)
def test_unusable_output_path_exits_2(fixtures_dir, tmp_path, capsys, monkeypatch, argv, message):
    """An output path that cannot be written exits 2 with an error naming
    the option, before any work: no estimation runs and nothing is written."""
    from jointgrid import estimation

    monkeypatch.chdir(tmp_path)
    scenario = fixtures_dir / "ieee14_substation6_attack.json"
    assert main(["cascade", "--scenario", str(scenario), "--model", "miim", "--out-dir", "casc"]) == 0
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))

    calls = []
    monkeypatch.setattr(estimation, "compare_models", lambda *args: calls.append(args))
    paths = {"mask": "casc/availability_miim_case1.json", "scenario": scenario, "grid": fixtures_dir / "ieee14.json"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before and calls == []


def test_synth_writes_artifacts(fixtures_dir, tmp_path):
    out = tmp_path / "synth"
    code = main(["synth", "--grid", str(fixtures_dir / "ieee14.json"), "--out-dir", str(out)])
    assert code == 0
    assert (out / "network.json").exists()
    rule_files = sorted(p.name for p in out.glob("*.idr"))
    assert rule_files == [
        "rules_iim_case1.idr",
        "rules_iim_case2.idr",
        "rules_miim_case1.idr",
        "rules_miim_case2.idr",
    ]


# SHA-256 of every file `synth` writes: the output for a fixed grid must
# not change.
SYNTH_DIGESTS = {
    "ieee14": {
        "network.json": "148762ec3226dee373949dad8675f0a826de6d6e4b3ddc9413179dc7399e8b6e",
        "rules_iim_case1.idr": "a0369ee030ddceb41714c87060bd3f9de782f7f588e0ab1883e43f219a29f0d3",
        "rules_iim_case2.idr": "1287ea9badc4ebb417b7b9b30bb439e3696a464a6c8bc7feaf8fcfd6ffff33e5",
        "rules_miim_case1.idr": "34d0484572a1dae1fa84b12f8d70681b7dd4b915f9563b42058d8243ddee7891",
        "rules_miim_case2.idr": "13a63d21e838e7455dc4fb0d89a25491099c453d48435cda649ba4723d896eb6",
    },
    "ieee118": {
        "network.json": "76eee0fb2d3ec5b28023b9cb91c4f3de2755d7cd935489774ce411dd864b1064",
        "rules_iim_case1.idr": "00434296f78e5a72b6540c01ff2770a428f7749cc86c39906060224cacfa17a9",
        "rules_iim_case2.idr": "62a7d70f7d47a2194a7a1a20c4eaa0ba3f3591a4c486e845dfba7ff2c5123821",
        "rules_miim_case1.idr": "3773c4075aef100591ee86dd2ad60e23568519bf533365f8051c4cc1eeb34532",
        "rules_miim_case2.idr": "4c4aa0f0dbb626f0c508ead7b08b366b1882be8961ec053d57de4c1e368268b8",
    },
}


@pytest.mark.parametrize("grid", sorted(SYNTH_DIGESTS))
def test_synth_output_bytes_are_pinned(fixtures_dir, tmp_path, grid):
    out = tmp_path / "synth"
    assert main(["synth", "--grid", str(fixtures_dir / f"{grid}.json"), "--out-dir", str(out)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == SYNTH_DIGESTS[grid]


# SHA-256 of every file `run` writes for the 14-bus attack scenario except
# errors.csv and report.json, which hold floating-point values.  The masks
# embed the absolute grid path, replaced by a placeholder before hashing.
RUN14_DIGESTS = {
    "availability_iim_case1.json": "a940d5debdd1054e12f2576cc9f112b270dd1630bf398ec24ba0eb53169189fd",
    "availability_miim_case1.json": "cad2fcd6ecb8eb6df0fd50fda05bc590b34009868406212d8f8170dfcd68be74",
    "footprint_diff.json": "e926f9c0d1af4f9b741e928346b1ca6d08130c94682167c79e314a9e5995e891",
    "network.json": "148762ec3226dee373949dad8675f0a826de6d6e4b3ddc9413179dc7399e8b6e",
    "rules_iim_case1.idr": "a0369ee030ddceb41714c87060bd3f9de782f7f588e0ab1883e43f219a29f0d3",
    "rules_iim_case2.idr": "1287ea9badc4ebb417b7b9b30bb439e3696a464a6c8bc7feaf8fcfd6ffff33e5",
    "rules_miim_case1.idr": "34d0484572a1dae1fa84b12f8d70681b7dd4b915f9563b42058d8243ddee7891",
    "rules_miim_case2.idr": "13a63d21e838e7455dc4fb0d89a25491099c453d48435cda649ba4723d896eb6",
    "trace_iim_case1.json": "2b731bf4d6dde158b63312841fca476b0d4f32e43bd8fa4cdba618c48ec0abd4",
    "trace_iim_case1.tsv": "8a26bb9489db1f3927663ca95dfdbada1d188fcec788dcecbee40ed6134d5cce",
    "trace_miim_case1.json": "ce8da1ad27db20a89aaf550929dc43692bd58fb4899efc09797ec933f71f2e37",
    "trace_miim_case1.tsv": "fa6a542882ab801ce9076bccf15bcca574d8f29325a2ebe8d867a06e2990a1da",
}


def test_run_output_bytes_are_pinned(fixtures_dir, tmp_path):
    out = tmp_path / "run"
    scenario = fixtures_dir / "ieee14_substation6_attack.json"
    assert main(["run", "--scenario", str(scenario), "--out-dir", str(out)]) == 0
    grid = json.dumps(str(fixtures_dir / "ieee14.json")).encode()
    digests = {
        path.name: hashlib.sha256(path.read_bytes().replace(grid, b'"<grid>"')).hexdigest()
        for path in out.iterdir()
        if path.name not in ("errors.csv", "report.json")
    }
    assert digests == RUN14_DIGESTS


# Strings that json escapes: non-ASCII, astral, control, lone surrogate.
EDGE_TEXT = ["", "é", "\U0001f600", "\x00", "\x1f\n\t\"\\", "\u2028", "\ud800"]
EDGE_NUMBERS = [-0.0, 1e-300, 5e-324, float("nan"), float("inf"), float("-inf"), 10**40, -(10**40)]
JSON_TEXT = st.text() | st.sampled_from(EDGE_TEXT)
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(EDGE_NUMBERS) | JSON_TEXT
)
# Each object's keys are of one kind, as json's sort_keys needs.
JSON_KEYS = [JSON_TEXT, st.integers(), st.floats(), st.booleans(), st.none()]
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.one_of([st.dictionaries(keys, children, max_size=4) for keys in JSON_KEYS]),
    max_leaves=30,
)


@settings(max_examples=100, deadline=None)
@given(payload=JSON_PAYLOADS)
@example(payload={"b": [[], {}, [[]], {"e": {}}, ()], "a": {"z": None, "é\x00": (True, False, -0.0)},
                  "c": {"y": 1, "x": "é"}})
@example(payload=[{"\x1f": EDGE_NUMBERS, "\ud800": [1e-300]}, EDGE_TEXT, {2: {1.5: [None]}}, {None: ([],)}])
def test_json_text_matches_json_dumps(payload):
    """The artifact writer's text through json's C encoder is the text of
    ``json.dumps(..., indent=2, sort_keys=True)``: the oracle."""
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_json_text_keys_and_fallback_match_json_dumps(monkeypatch):
    """In an object that holds containers, an int key is written as its
    quoted text and a tuple key raises ``TypeError`` with ``json.dumps``'s
    words; without json's C accelerator the text is ``json.dumps``'s own."""
    with pytest.raises(TypeError) as dumped:
        json.dumps({(1, 2): [0]}, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as written:
        cli._json_text({(1, 2): [0]})
    assert str(written.value) == str(dumped.value)
    payload = {2: [1, (2.5, {"c": None})], 1: {}}
    expected = json.dumps(payload, indent=2, sort_keys=True)
    assert cli._json_text(payload) == expected
    monkeypatch.setattr(cli, "c_make_encoder", None)
    assert cli._json_text(payload) == expected


@pytest.mark.parametrize("network_name", ["ieee14", "ieee118"])
def test_rule_file_text_matches_format_idr_file(request, network_name):
    """Each text equals the rule set's rules, then its availability rules, as
    its model reads them (``translate_to_iim`` under IIM), through
    ``format_idr_file``: the oracle for formatting shared rules once."""
    network = request.getfixturevalue(network_name)
    texts = rule_file_text(network)
    assert sorted(texts) == sorted(network.rule_sets)
    for (model, case), rule_set in network.rule_sets.items():
        header = [
            f"dependency rules: model={model} case={case}",
            "GS(s)/GP(s) entries are data-path expressions evaluated at a fixpoint",
        ]
        rule_set = read(rule_set)
        rules = rule_set.rules + rule_set.availability
        assert texts[model, case] == format_idr_file(rules, header=header)


def test_write_network_formats_each_distinct_rule_once(ieee14, tmp_path, monkeypatch):
    """``format_idr`` runs once per distinct MIIM rule and never on an IIM
    rule: the IIM rule files are translations of the MIIM text."""
    calls = []

    def counting(rule, names):
        calls.append(rule)
        return format_idr(rule, names)

    monkeypatch.setattr(cli, "format_idr", counting)
    cli._write_network(tmp_path, ieee14)
    every = [
        rule
        for case in (1, 2)
        for rule_set in [ieee14.rule_set("miim", case)]
        for rule in (*rule_set.rules, *rule_set.availability)
    ]
    distinct = {id(rule) for rule in every}
    assert len(calls) == len({id(rule) for rule in calls}) == len(distinct) < len(every)
    assert {id(rule) for rule in calls} == distinct


def test_emitted_rule_files_reparse(fixtures_dir, tmp_path, ieee14, ieee118):
    """The reader is the writer's round-trip oracle: each rule file that
    ``synth`` writes for the 14-bus grid, and the 118-bus IIM case-2 text,
    parse to exactly the rule set's rules, then its availability rules, as
    its model reads them."""
    out = tmp_path / "synth"
    main(["synth", "--grid", str(fixtures_dir / "ieee14.json"), "--out-dir", str(out)])
    assert len(list(out.glob("*.idr"))) == len(ieee14.rule_sets)
    for (model, case), rule_set in ieee14.rule_sets.items():
        rules = parse_idr_file((out / f"rules_{model}_case{case}.idr").read_text(encoding="utf-8"))
        assert len(rules) > 80
        assert rules == [*read(rule_set).rules, *read(rule_set).availability]
    rule_set = read(ieee118.rule_set("iim", 2))
    text = rule_file_text(ieee118)["iim", 2]
    assert parse_idr_file(text) == [*rule_set.rules, *rule_set.availability]


def test_cascade_outputs(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "casc"
    code = main(
        [
            "cascade",
            "--scenario",
            str(fixtures_dir / "ieee14_substation6_attack.json"),
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    trace = (out / "trace_miim_case1.tsv").read_text(encoding="utf-8")
    assert trace.splitlines()[0] == "step\tentity\tvalue"
    assert "3\tC(2,1,1,0)\t1" in trace
    availability = json.loads((out / "availability_iim_case1.json").read_text())
    lost = sorted(int(b) for b, ok in availability["scada"].items() if not ok)
    assert lost == [10, 11, 12, 13, 14]


def test_run_pipeline_and_determinism(fixtures_dir, tmp_path):
    scenario = str(fixtures_dir / "ieee14_substation6_attack.json")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["run", "--scenario", scenario, "--out-dir", str(out1)]) == 0
    assert main(["run", "--scenario", scenario, "--out-dir", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    report = json.loads((out1 / "report.json").read_text())
    assert report["models"]["miim"]["converged_at"] == 3
    assert report["models"]["iim"]["scada_lost"] == [10, 11, 12, 13, 14]
    assert report["footprint_diff"]["scada_lost_only_iim"] == [10, 11, 13, 14]
    assert (out1 / "errors.csv").exists()


def test_run_with_empty_kill_set(fixtures_dir, tmp_path):
    scenario = tmp_path / "idle.json"
    scenario.write_text(
        json.dumps(
            {
                "version": 1,
                "label": "idle",
                "grid": str(fixtures_dir / "ieee14.json"),
                "model": "both",
                "case": 1,
                "killed": [],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for model in ("miim", "iim"):
        assert report["models"][model]["converged_at"] == 1
        assert report["models"][model]["scada_lost"] == []
        assert report["models"][model]["pmu_lost"] == []
    diff = report["footprint_diff"]
    assert all(not v for v in diff.values())


def test_run_with_every_gateway_killed_anchors_every_bus(fixtures_dir, ieee14, tmp_path):
    """With every gateway down no bus delivers a measurement under either
    model: the run exits 0 and the estimation anchors, and flags, every bus."""
    scenario = tmp_path / "gateways.json"
    scenario.write_text(
        json.dumps(
            {
                "version": 1,
                "label": "every-gateway",
                "grid": str(fixtures_dir / "ieee14.json"),
                "model": "both",
                "case": 1,
                "killed": [str(ent.gateway(sub.id)) for sub in ieee14.substations],
                "estimation": {"seeds": 5},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    buses = ieee14.grid.bus_ids
    for model in ("miim", "iim"):
        assert report["models"][model]["scada_lost"] == buses
        assert report["estimation"]["anchored"][model] == buses
    rows = (out / "errors.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2 * len(buses)
    assert all(row.endswith(",1") for row in rows)


def test_estimate_on_a_mask_that_delivers_nothing(fixtures_dir, tmp_path):
    buses = [str(bus) for bus in range(1, 15)]
    mask = tmp_path / "dark.json"
    mask.write_text(
        json.dumps(
            {
                "grid": str(fixtures_dir / "ieee14.json"),
                "model": "dark",
                "scada": dict.fromkeys(buses, False),
                "pmu": dict.fromkeys(buses, False),
                "pmu_equipped": [],
            }
        ),
        encoding="utf-8",
    )
    errors_csv = tmp_path / "errors.csv"
    assert main(["estimate", "--mask", str(mask), "--seeds", "3", "--out", str(errors_csv)]) == 0
    rows = errors_csv.read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == buses
    assert all(row.endswith(",1") for row in rows)


# SHA-256 of the IIM trace and mask `cascade` writes for each shipped 118-bus
# scenario, the grid path masked as in RUN14_DIGESTS: each trace's `final`
# map names all 2392 entities.
CASCADE118_DIGESTS = {
    "ieee118_gateway_sadm_failure": {
        "availability_iim_case1.json": "132874fc5d6b5ed3dcc47c91faa4b4e819d340b77cee1e953409d1680f8658bd",
        "trace_iim_case1.json": "9a4621001b9d7c0165f42e1b03e7307ea3cd2caa430afd6ed95f041cf7511a80",
        "trace_iim_case1.tsv": "97e5849cd5170fcf3666fb05c8206e2f20addeb078c7e73cb748a2ec96406579",
    },
    "ieee118_substation_damage": {
        "availability_iim_case1.json": "86725ecd3f15800b9949ed11b78d4027ab834c75ef6b3ff89a8591ad7021b3a8",
        "trace_iim_case1.json": "5ec78d735291092b12d944cfccf68d7d147fb4e855eb9bc9c816737dd63e4d82",
        "trace_iim_case1.tsv": "0bb4498c5fc4fe243059a90ed03e76b56ba33cb605124e024350a910d10d4a16",
    },
}


def test_shipped_118_scenarios_cascade(fixtures_dir, tmp_path):
    grid = json.dumps(str(fixtures_dir / "ieee118.json")).encode()
    for name, lost in [
        ("ieee118_gateway_sadm_failure", [2, 11, 12, 13, 14, 16, 84, 85, 86, 88, 117]),
        ("ieee118_substation_damage", [94, 95, 100]),
    ]:
        out = tmp_path / name
        code = main(
            ["cascade", "--scenario", str(fixtures_dir / f"{name}.json"), "--out-dir", str(out), "--model", "iim"]
        )
        assert code == 0
        availability = json.loads((out / "availability_iim_case1.json").read_text())
        actual = sorted(int(b) for b, ok in availability["scada"].items() if not ok)
        assert actual == lost
        digests = {
            path.name: hashlib.sha256(path.read_bytes().replace(grid, b'"<grid>"')).hexdigest()
            for path in out.iterdir()
        }
        assert digests == CASCADE118_DIGESTS[name]


def test_estimate_from_mask(fixtures_dir, tmp_path):
    scenario = str(fixtures_dir / "ieee14_substation6_attack.json")
    casc_out = tmp_path / "casc"
    main(["cascade", "--scenario", scenario, "--out-dir", str(casc_out)])
    mask_path = casc_out / "availability_miim_case1.json"
    errors_csv = tmp_path / "errors.csv"
    # No --grid: the mask file carries the resolved grid path.
    code = main(
        ["estimate", "--mask", str(mask_path), "--seeds", "5", "--out", str(errors_csv)]
    )
    assert code == 0
    lines = errors_csv.read_text().strip().splitlines()
    assert lines[0] == "bus,model,mean_abs_err,std_err,flagged_unobservable"
    assert len(lines) == 15


@pytest.mark.parametrize("network_name", ["ieee14", "ieee118"])
def test_registry_text_matches_json_dumps(request, network_name):
    """network.json's registry, written as text in name order, is
    ``json.dumps`` of one object per entity, and so is the whole file with
    it in place.  Names sort as text: ``C(1,1,10,10)`` before ``C(1,1,2,2)``."""
    network = request.getfixturevalue(network_name)
    reference = registry_payload(network)
    expected = json.dumps(reference, indent=2, sort_keys=True).replace("\n", "\n  ")  # one level deeper
    assert cli.registry_text(network) == expected
    payload = cli.network_payload(network, rule_file_text(network))
    whole = json.dumps({**payload, "registry": reference}, indent=2, sort_keys=True)
    assert cli._json_text(payload) == whole


def test_network_json_rules_match_rule_files(fixtures_dir, tmp_path):
    out = tmp_path / "synth"
    main(["synth", "--grid", str(fixtures_dir / "ieee14.json"), "--out-dir", str(out)])
    rules = json.loads((out / "network.json").read_text(encoding="utf-8"))["rules"]
    assert sorted(rules) == ["iim_case1", "iim_case2", "miim_case1", "miim_case2"]
    for stem, text in rules.items():
        assert (out / f"rules_{stem}.idr").read_text(encoding="utf-8") == text


@pytest.mark.parametrize(
    "grid, name, write",
    [
        ("ieee14", "bus 5", lambda buses: json.dumps({"buses": {**buses, "5": [float("nan"), 0.0]}})),
        ("ieee14", "bus 5", lambda buses: json.dumps({"buses": {**buses, "5": [1.0]}})),
        ("ieee14", "not valid JSON", lambda buses: json.dumps({"buses": buses})[:-1]),
        ("ieee14", "top level", lambda buses: json.dumps([{"buses": buses}])),
        ("ieee14", "buses", lambda buses: json.dumps({"buses": list(buses.values())})),
        # A SCADA voltage's squared sigma overflows.
        ("ieee14", "bus 1", lambda buses: json.dumps({"buses": {b: [1e160, 0.0] for b in buses}})),
        ("ieee14", "misses buses (1): 5\n", lambda buses: json.dumps(
            {"buses": {b: buses[b] for b in buses if b != "5"}})),
        ("ieee118", "misses buses (118): 1, 2, 3, 4, 5, ...\n", lambda buses: json.dumps({"buses": {}})),
        ("ieee14", "'99' is not a bus", lambda buses: json.dumps({"buses": {**buses, "99": [1, 0], "x": "junk"}})),
        ("ieee14", "'x' is not a bus", lambda buses: json.dumps({"buses": {**buses, "x": "junk"}})),
        ("ieee14", "state.json: not valid JSON: key '5' appears twice", lambda buses: json.dumps(
            {"buses": buses}).replace('"buses": {', '"buses": {"5": [1e160, 0.0], ')),
        # An int no float holds, and a |V| past the largest float.
        ("ieee14", "bus 5", lambda buses: json.dumps({"buses": {**buses, "5": [10**400, 0.0]}})),
        ("ieee14", "bus 5", lambda buses: json.dumps({"buses": {**buses, "5": [1.7e308, 1.7e308]}})),
        # An int a float holds, as the largest float (grid.as_number), is
        # refused by the |V| bound.
        ("ieee14", "bus 5: |V| = 1.79769e+308 pu above", lambda buses: json.dumps(
            {"buses": {**buses, "5": [int(sys.float_info.max) + 1, 0.0]}})),
    ],
    ids=["nan", "one_element", "not_json", "array", "buses_list", "voltage_high", "missing_bus",
         "every_bus_missing_118", "extra_bus", "non_bus_key", "repeated_key", "voltage_huge_int",
         "voltage_huge_float", "voltage_int_past_largest_float"],
)
def test_estimate_malformed_true_state_exits_2(fixtures_dir, tmp_path, capsys, grid, name, write):
    """``estimate`` refuses a malformed true state with exit 2 and one short
    error line naming what is wrong, and writes no errors file."""
    grid_path = fixtures_dir / f"{grid}.json"
    bus_ids = [bus["id"] for bus in json.loads(grid_path.read_text())["buses"]]
    mask_path = tmp_path / "mask.json"
    mask_path.write_text(
        json.dumps(
            {
                "grid": str(grid_path),
                "scada": {str(b): True for b in bus_ids},
                "pmu": {str(b): False for b in bus_ids},
            }
        ),
        encoding="utf-8",
    )
    state_path = tmp_path / "state.json"
    state_path.write_text(write({str(b): [1.0, 0.0] for b in bus_ids}), encoding="utf-8")
    errors_csv = tmp_path / "errors.csv"
    code = main(
        [
            "estimate", "--mask", str(mask_path), "--true-state", str(state_path),
            "--seeds", "2", "--out", str(errors_csv),
        ]
    )
    assert code == 2
    error = capsys.readouterr().err
    assert name in error
    assert_short_lines(error)
    assert not errors_csv.exists()


def rekey(flags, old, new):
    """``flags`` with the key ``old`` renamed to ``new``, its value kept."""
    return {new if key == old else key: value for key, value in flags.items()}


@pytest.mark.parametrize(
    "name, flags, write",
    [
        ("--seeds", ["--seeds", "0"], json.dumps),
        ("--seeds", ["--seeds", "-2"], json.dumps),
        ("--seeds", ["--seeds", "100001"], json.dumps),
        ("--seed-base", ["--seed-base", "-1"], json.dumps),
        ("grid", [], lambda m: json.dumps({k: v for k, v in m.items() if k != "grid"})),
        ("top level", [], lambda m: json.dumps([m])),
        ("scada", [], lambda m: json.dumps({**m, "scada": {**m["scada"], "x": True}})),
        ("not valid JSON", [], lambda m: json.dumps(m)[:-1]),
        ("bus 5", [], lambda m: json.dumps(
            {**m, "scada": {k: v for k, v in m["scada"].items() if k != "5"}})),
        ("bus 99", [], lambda m: json.dumps({**m, "pmu": {**m["pmu"], "99": False}})),
        ("bus 99", [], lambda m: json.dumps({**m, "pmu_equipped": [99]})),
        ("pmu_equipped must be a list", [], lambda m: json.dumps({**m, "pmu_equipped": "2"})),
        ("not valid JSON", [], lambda m: json.dumps(m).replace(
            '"pmu_equipped": []', '"pmu_equipped": [' + "9" * 5000 + "]")),
        ("bad grid path", [], lambda m: json.dumps({**m, "grid": "ieee14\u0000.json"})),
        ("grid file not found", [], lambda m: json.dumps({**m, "grid": "."})),
        ("model", [], lambda m: json.dumps({**m, "model": ["miim"]})),
        ("model", [], lambda m: json.dumps({**m, "model": {"name": "miim"}})),
        ("scada must be an object", [], lambda m: json.dumps({**m, "scada": list(m["scada"].values())})),
        # A PMU flag is true only where a PMU is installed.
        ("pmu: bus 1", [], lambda m: json.dumps({**m, "pmu": dict.fromkeys(m["pmu"], True),
                                                 "pmu_equipped": [2, 10, 13]})),
        # Bus-id keys are canonical decimal: int() would read each of these
        # as a bus and let it collide with that bus's own key.
        ("scada: bad entry '05'", [], lambda m: json.dumps({**m, "scada": {**m["scada"], "05": False}})),
        ("scada: bad entry ' 5'", [], lambda m: json.dumps({**m, "scada": rekey(m["scada"], "5", " 5")})),
        ("pmu: bad entry '+5'", [], lambda m: json.dumps({**m, "pmu": rekey(m["pmu"], "5", "+5")})),
        ("scada: bad entry '1_4'", [], lambda m: json.dumps({**m, "scada": rekey(m["scada"], "14", "1_4")})),
        ("mask.json: not valid JSON: key '5' appears twice", [], lambda m: json.dumps(m).replace(
            '"scada": {', '"scada": {"5": false, ')),
    ],
    ids=["seeds_zero", "seeds_negative", "seeds_above_bound", "seed_base_negative", "no_grid", "array",
         "scada_key", "not_json", "missing_bus", "unknown_bus", "unknown_equipped_bus",
         "equipped_string", "int_5000_digits", "grid_nul", "grid_directory", "model_list", "model_object",
         "scada_not_object", "pmu_not_equipped", "scada_key_collision", "scada_key_space",
         "pmu_key_plus", "scada_key_underscore", "scada_repeated_key"],
)
def test_estimate_malformed_input_exits_2(fixtures_dir, tmp_path, capsys, name, flags, write):
    grid_path = fixtures_dir / "ieee14.json"
    bus_ids = [bus["id"] for bus in json.loads(grid_path.read_text())["buses"]]
    mask = {
        "grid": str(grid_path),
        "scada": {str(b): True for b in bus_ids},
        "pmu": {str(b): False for b in bus_ids},
        "pmu_equipped": [],
    }
    mask_path = tmp_path / "mask.json"
    mask_path.write_text(write(mask), encoding="utf-8")
    errors_csv = tmp_path / "errors.csv"
    argv = ["estimate", "--mask", str(mask_path), "--seeds", "2", "--out", str(errors_csv), *flags]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag value itself
        code = exc.code
    assert code == 2
    assert name in capsys.readouterr().err
    assert not errors_csv.exists()


@pytest.mark.parametrize(
    "field, edit",
    [
        ("top level", lambda s: [s]),
        ("estimation", lambda s: {**s, "estimation": [1]}),
        ("estimation must be an object", lambda s: {**s, "estimation": []}),
        ("estimation must be an object", lambda s: {**s, "estimation": False}),
        ("estimation must be an object", lambda s: {**s, "estimation": 0}),
        ("estimation must be an object", lambda s: {**s, "estimation": ""}),
        ("estimation.seeds", lambda s: {**s, "estimation": {}}),
        ("killed", lambda s: {**s, "killed": [12]}),
        ("killed must be a list", lambda s: {**s, "killed": "P(12)"}),
        ("missing grid path", lambda s: {k: v for k, v in s.items() if k != "grid"}),
        ("grid", lambda s: {**s, "grid": 5}),
        ("seed_base", lambda s: {**s, "estimation": {"seeds": 2, "seed_base": "x"}}),
        ("seed_base", lambda s: {**s, "estimation": {"seeds": 2, "seed_base": 1.5}}),
        ("seeds", lambda s: {**s, "estimation": {"seeds": True}}),
        ("estimation.seeds", lambda s: {**s, "estimation": {"seeds": 100001}}),
        # A string edit is the file's text: json.dumps refuses such an integer.
        ("not valid JSON", lambda s: json.dumps(s).replace('"version": 1', '"version": ' + "9" * 5000)),
        ("bad killed entity", lambda s: {**s, "killed": ["P(" + "9" * 5000 + ")"]}),
        ("bad killed entity", lambda s: {**s, "killed": ["P(\u0661\u0662)"]}),  # Arabic-Indic 12
        ("bad grid path", lambda s: {**s, "grid": "ieee14\u0000.json"}),
        ("bad grid path", lambda s: {**s, "grid": "g" * 5000}),
        ("grid file not found", lambda s: {**s, "grid": "."}),
        ("estimation.true_state", lambda s: {**s, "estimation": {"seeds": 3, "true_state": 0}}),
        ("estimation.true_state", lambda s: {**s, "estimation": {"seeds": 3, "true_state": ""}}),
        ("estimation.true_state", lambda s: {**s, "estimation": {"seeds": 3, "true_state": []}}),
        ("label", lambda s: {**s, "label": {"x": 1}}),
        ("label", lambda s: {**s, "label": None}),
        ("scenario.json: not valid JSON: key 'killed' appears twice",
         lambda s: json.dumps(s).replace('"killed": ', '"killed": ["P(99)"], "killed": ')),
    ],
    ids=["array", "estimation_list", "estimation_empty_list", "estimation_false", "estimation_zero",
         "estimation_empty_string", "estimation_empty_object", "killed_int", "killed_string",
         "grid_missing", "grid_int", "seed_base_str",
         "seed_base_float", "seeds_bool", "seeds_above_bound", "int_5000_digits", "killed_5000_digits",
         "killed_non_ascii_digits", "grid_nul", "grid_too_long", "grid_directory", "true_state_zero",
         "true_state_empty_string", "true_state_empty_list", "label_object", "label_null",
         "killed_repeated_key"],
)
def test_run_malformed_scenario_exits_2(fixtures_dir, tmp_path, capsys, field, edit):
    scenario = {
        "version": 1,
        "grid": str(fixtures_dir / "ieee14.json"),
        "killed": ["P(12)"],
        "estimation": {"seeds": 2, "seed_base": 0},
    }
    path = tmp_path / "scenario.json"
    edited = edit(scenario)
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited), encoding="utf-8")
    code = main(["run", "--scenario", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert field in capsys.readouterr().err


LONG = "x" * 5000
DIGITS = "9" * 4000  # a decimal id within Python's 4300-digit conversion limit


@pytest.mark.parametrize(
    "field, kind, edit",
    [
        ("unknown schema version", "scenario", lambda s: {**s, "version": LONG}),
        ("grid must be a path string", "scenario", lambda s: {**s, "grid": [LONG]}),
        ("label must be a string", "scenario", lambda s: {**s, "label": [LONG]}),
        ("bad model", "scenario", lambda s: {**s, "model": LONG}),
        ("bad case", "scenario", lambda s: {**s, "case": LONG}),
        ("bad killed entity", "scenario", lambda s: {**s, "killed": [LONG]}),
        ("bad killed entity", "scenario", lambda s: {**s, "killed": [[LONG]]}),
        # The entity's own error echoes its 4000-digit type too.
        ("bad killed entity", "scenario", lambda s: {**s, "killed": ["C(" + "9" * 4000 + ",1,1,1)"]}),
        ("estimation.true_state", "scenario", lambda s: {**s, "estimation": {"seeds": 2, "true_state": [LONG]}}),
        ("bus 5", "true_state", lambda t: {"buses": {**t["buses"], "5": [LONG, 0.0]}}),
        ("bus 5", "true_state", lambda t: {"buses": {**t["buses"], "5": [10**4000, 0.0]}}),
        ("is not a bus", "true_state", lambda t: {"buses": {**t["buses"], LONG: [1.0, 0.0]}}),
        ("scada: bad entry", "mask", lambda m: {**m, "scada": {**m["scada"], LONG: True}}),
        ("pmu: bad entry", "mask", lambda m: {**m, "pmu": {**m["pmu"], "5": LONG}}),
        ("model must be a string", "mask", lambda m: {**m, "model": [LONG]}),
        ("is not in the grid", "mask", lambda m: {**m, "scada": {**m["scada"], DIGITS: True}}),
        ("is flagged but not in pmu_equipped", "mask", lambda m: {**m, "pmu": {**m["pmu"], DIGITS: True}}),
        ("--seeds", "seeds", None),
        ("unknown schema version", "grid", lambda g: {**g, "version": LONG}),
        ("id must be at most", "grid", lambda g: {**g, "buses": [{"id": int(DIGITS)}, *g["buses"][1:]]}),
        ("unknown bus", "grid", lambda g: {**g, "branches": [{**g["branches"][0], "to": int(DIGITS)}]}),
        ("must be a bus id", "grid", lambda g: {**g, "substation_map": {**g["substation_map"], LONG: 1}}),
        ("bus id must be at most", "grid", lambda g: {**g, "substation_map": {**g["substation_map"], DIGITS: 1}}),
        ("must be a substation id", "grid", lambda g: {**g, "sadm_homing": {LONG: 1}}),
        # A string edit is the file's text: json.dumps writes no key twice.
        ("appears twice", "grid",
         lambda g: json.dumps(g).replace('"version"', f'"{LONG}": 1, "{LONG}": 2, "version"')),
    ],
    ids=["version", "grid", "label", "model", "case", "killed", "killed_not_string", "killed_type",
         "true_state_path", "true_state_entry", "true_state_huge_int", "true_state_bus", "mask_scada_key",
         "mask_pmu_value", "mask_model", "mask_foreign_bus", "mask_unequipped_bus", "seeds_flag",
         "grid_version", "grid_bus_id", "grid_branch_end", "grid_substation_map_key",
         "grid_substation_map_digits", "grid_sadm_homing_key", "grid_repeated_key"],
)
def test_error_line_cuts_a_long_refused_value(fixtures_dir, tmp_path, monkeypatch, capsys, field, kind, edit):
    """An error that echoes a refused value of 5000 characters exits 2 with
    every stderr line under 300 bytes: the echo is cut at 80 characters.  A
    grid error may echo a key twice, in its JSON pointer and its message, so
    the grid is named by a short relative path."""
    grid_path = fixtures_dir / "ieee14.json"
    grid = json.loads(grid_path.read_text())
    bus_ids = [bus["id"] for bus in grid["buses"]]
    inputs = {
        "scenario": {"version": 1, "grid": str(grid_path), "killed": ["P(12)"], "estimation": {"seeds": 2}},
        "true_state": {"buses": {str(b): [1.0, 0.0] for b in bus_ids}},
        "mask": {"grid": str(grid_path), "scada": {str(b): True for b in bus_ids},
                 "pmu": {str(b): False for b in bus_ids}},
        "grid": grid,
    }
    if edit is not None:
        inputs[kind] = edit(inputs[kind])
    for name, payload in inputs.items():
        text = payload if isinstance(payload, str) else json.dumps(payload)
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    if kind == "scenario":
        argv = ["run", "--scenario", str(tmp_path / "scenario.json"), "--out-dir", str(tmp_path / "out")]
    elif kind == "grid":
        monkeypatch.chdir(tmp_path)
        argv = ["validate", "--grid", "grid.json"]
    else:
        argv = ["estimate", "--mask", str(tmp_path / "mask.json"), "--out", str(tmp_path / "errors.csv"),
                "--seeds", "9" * 5000 if kind == "seeds" else "2"]
        argv += ["--true-state", str(tmp_path / "true_state.json")] if kind == "true_state" else []
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a bad flag value itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert field in err
    assert max(len(line.encode()) for line in err.splitlines()) < 300, err[:400]


@pytest.mark.parametrize("field", ["sadm_homing", "oadm_homing"])
def test_run_homing_for_unknown_substation_exits_2(fixtures_dir, tmp_path, capsys, field):
    """A homing key must name a substation that is homed: neither one the
    grid lacks nor a control center (14-bus substation 1), whose gateway
    connects to every node and so would ignore the key."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"version": 1, "grid": "grid.json", "killed": ["P(12)"]}), encoding="utf-8")
    for key, why in (("999", "does not exist"), ("1", "is a control center")):
        grid = json.loads((fixtures_dir / "ieee14.json").read_text(encoding="utf-8"))
        grid.setdefault(field, {})[key] = 1
        (tmp_path / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
        assert main(["run", "--scenario", str(scenario), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"error: {field}: substation {key} {why}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_run_at_the_magnitude_bound_writes_finite_errors(fixtures_dir, tmp_path):
    """A grid whose branches at PMU bus 2 have |b| at the bound, with a true
    state of |V| at the bound on every bus, runs to exit 0 with no NaN."""
    grid = json.loads((fixtures_dir / "ieee14.json").read_text(encoding="utf-8"))
    for branch in grid["branches"]:
        if 2 in (branch["from"], branch["to"]):
            branch["b"] = MAX_PU
    (tmp_path / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
    buses = {str(bus["id"]): [MAX_PU, 0.0] for bus in grid["buses"]}
    (tmp_path / "state.json").write_text(json.dumps({"buses": buses}), encoding="utf-8")
    scenario = {
        "version": 1,
        "grid": "grid.json",
        "killed": ["P(12)", "C(1,1,6,6)", "C(1,2,6,6)"],
        "estimation": {"seeds": 3, "true_state": "state.json"},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "errors.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * len(buses)
    assert all(math.isfinite(float(row[key])) for row in rows for key in ("mean_abs_err", "std_err"))


@pytest.mark.parametrize(
    "name, edit",
    [
        ("misses buses (1): 5", lambda buses: buses.pop("5")),
        ("bus 5", lambda buses: buses.update({"5": [10**400, 0.0]})),
    ],
    ids=["missing_bus", "voltage_huge_int"],
)
def test_run_with_a_bad_true_state_exits_2_and_writes_nothing(fixtures_dir, tmp_path, capsys, name, edit):
    """A scenario whose true-state file is refused exits 2, naming the bus,
    before ``run`` writes a file into its output directory."""
    shutil.copy(fixtures_dir / "ieee14.json", tmp_path)
    grid = json.loads((tmp_path / "ieee14.json").read_text(encoding="utf-8"))
    buses = {str(bus["id"]): [1.0, 0.0] for bus in grid["buses"]}
    edit(buses)
    (tmp_path / "state.json").write_text(json.dumps({"buses": buses}), encoding="utf-8")
    scenario = {
        "version": 1,
        "grid": "ieee14.json",
        "killed": ["P(12)"],
        "estimation": {"seeds": 2, "true_state": "state.json"},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--scenario", str(path), "--out-dir", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_disconnected_grid_error_names_the_count_and_first_pairs(fixtures_dir, tmp_path, capsys):
    """The 118-bus grid cut to its first branch leaves thousands of substation
    pairs unreachable: ``validate`` exits 2 naming their count and the first
    five, in one short line."""
    grid = json.loads((fixtures_dir / "ieee118.json").read_text(encoding="utf-8"))
    grid["branches"] = grid["branches"][:1]
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(grid), encoding="utf-8")
    assert main(["validate", "--grid", str(path)]) == 2
    error = capsys.readouterr().err
    assert error == (
        "error: substation graph is disconnected; 6902 unreachable pairs: "
        "(1, 3), (1, 4), (1, 5), (1, 6), (1, 7), ...\n"
    )
    assert_short_lines(error)


def test_unknown_pmu_substations_error_names_the_count_and_first_ids(fixtures_dir, tmp_path, capsys):
    """The 14-bus grid with 300 unknown ``pmu_substations`` ids: ``validate``
    exits 2 naming their count and the first five, in one short line."""
    grid = json.loads((fixtures_dir / "ieee14.json").read_text(encoding="utf-8"))
    path = tmp_path / "pmu.json"
    path.write_text(json.dumps(add_unknown_pmu_substations(grid, 300)), encoding="utf-8")
    assert main(["validate", "--grid", str(path)]) == 2
    error = capsys.readouterr().err
    assert error == "error: pmu_substations reference unknown substations (300): 15, 16, 17, 18, 19, ...\n"
    assert_short_lines(error)


@pytest.mark.parametrize("seed", range(3))
def test_grid_cut_until_disconnected_exits_2(fixtures_dir, tmp_path, capsys, seed):
    """The 118-bus grid with branches deleted, in a seeded order, until its
    substation graph disconnects: ``validate`` exits 2 and prints no long
    line."""
    grid = json.loads((fixtures_dir / "ieee118.json").read_text(encoding="utf-8"))
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(cut_until_disconnected(grid, seed)), encoding="utf-8")
    assert main(["validate", "--grid", str(path)]) == 2
    error = capsys.readouterr().err
    assert "substation graph is disconnected" in error
    assert_short_lines(error)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, fixtures_dir):
    """A directory holding the 14-bus grid, with the shipped 14-bus scenario
    and a mask written by ``cascade``, both parsed."""
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copy(fixtures_dir / "ieee14.json", root)
    scenario_path = fixtures_dir / "ieee14_substation6_attack.json"
    argv = ["cascade", "--scenario", str(scenario_path), "--model", "miim", "--out-dir", str(root)]
    assert main(argv) == 0
    mask = json.loads((root / "availability_miim_case1.json").read_text(encoding="utf-8"))
    return root, json.loads(scenario_path.read_text(encoding="utf-8")), mask


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_edited_scenario_loads_or_raises_its_error(fuzz_inputs, data):
    root, scenario, _ = fuzz_inputs
    path = root / "scenario.json"
    path.write_text(json.dumps(edit_json(data, copy.deepcopy(scenario))), encoding="utf-8")
    try:
        cli.load_scenario(path)
    except (cli.ScenarioFileError, EntityError) as exc:
        assert_short_lines(str(exc))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_edited_mask_loads_or_raises_its_error(fuzz_inputs, data):
    root, _, mask = fuzz_inputs
    path = root / "mask.json"
    path.write_text(json.dumps(edit_json(data, copy.deepcopy(mask))), encoding="utf-8")
    try:
        cli.load_mask(path)
    except (cli.ScenarioFileError, EntityError) as exc:
        assert_short_lines(str(exc))


@settings(deadline=None)
@given(data=st.data())
def test_edited_true_state_loads_or_raises_its_error(fuzz_inputs, ieee14_grid, data):
    root, _, _ = fuzz_inputs
    voltages = estimation.default_true_state(ieee14_grid).as_complex()
    state = {"buses": {str(bus): [v.real, v.imag] for bus, v in zip(ieee14_grid.bus_ids, voltages)}}
    path = root / "state.json"
    path.write_text(json.dumps(edit_json(data, state)), encoding="utf-8")
    try:
        cli.load_true_state(path, ieee14_grid)
    except cli.ScenarioFileError as exc:
        assert_short_lines(str(exc))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_edited_grid_validates_and_runs_or_exits_2(fuzz_inputs, data):
    """1-3 edits anywhere in the 14-bus grid file, then ``validate`` and a
    2-seed ``run`` on it: each exits 0 or 2, never 1 from deep inside the
    program, and prints no long line to stderr."""
    root, _, _ = fuzz_inputs
    grid = json.loads((root / "ieee14.json").read_text(encoding="utf-8"))
    (root / "edited_grid.json").write_text(json.dumps(edit_json(data, grid)), encoding="utf-8")
    scenario = {"version": 1, "grid": "edited_grid.json", "killed": [], "estimation": {"seeds": 2}}
    (root / "edited_grid_scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
    for argv in (
        ["validate", "--grid", str(root / "edited_grid.json")],
        ["run", "--scenario", str(root / "edited_grid_scenario.json"), "--out-dir", str(root / "edited_run")],
    ):
        errors = io.StringIO()
        with contextlib.redirect_stderr(errors), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 2), errors.getvalue()
        assert_short_lines(errors.getvalue())
