"""Command-line interface: synthesis, cascade runs, estimation, pipelines.

Subcommands:

    synth     build the communication overlay and write rule files
    validate  check a grid file and its synthesized network
    cascade   run failure scenarios and emit traces plus availability masks
    estimate  Monte-Carlo estimation errors under an availability mask
    run       full pipeline for a scenario file (synth -> cascade -> compare)

Every output is deterministic for fixed inputs: JSON is sorted, no
timestamps are embedded, and all randomness is seed-driven.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from jointgrid import cascade as cascade_mod
from jointgrid import estimation
from jointgrid.cascade import (
    AvailabilityMask,
    CascadeTrace,
    FailureScenario,
    data_availability,
    footprint_diff,
    run_cascade,
)
from jointgrid.entities import EntityError, parse_entity_id
from jointgrid.grid import MAX_PU, Grid, GridError, as_number, cut, first_five, int_key, is_int, load_grid, unique_keys
from jointgrid.idr import IIM, IIM_SYMBOLS, MIIM, format_idr
from jointgrid.network import CASES, JointNetwork, validate as validate_network
from jointgrid.synthesis import SynthesisError, build_joint_network

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2

SCENARIO_VERSION = 1

# The most Monte-Carlo seeds one estimation takes (``estimate --seeds``,
# a scenario's ``estimation.seeds``).  Every seed's observations are held
# at once, in the one noise block ``estimation.observations`` fills for the
# run: 100 000 seeds are about 450 MB on the 118-bus grid.
MAX_SEEDS = 100_000


class ScenarioFileError(ValueError):
    pass


def _int_in_range(minimum: int, maximum: Optional[int] = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {cut(text)!r}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"expected an integer <= {maximum}, got {cut(text)!r}")
        return value

    return parse


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: the parser reads no input, and parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="jointgrid",
        description="Joint power/communication dependency modeling and estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize the joint network and rule files")
    synth.add_argument("--grid", required=True, help="grid JSON file")
    synth.add_argument("--out-dir", required=True, help="output directory")

    validate = sub.add_parser("validate", help="validate a grid and its network")
    validate.add_argument("--grid", required=True, help="grid JSON file")

    casc = sub.add_parser("cascade", help="run a failure scenario to its fixpoint")
    casc.add_argument("--scenario", required=True, help="scenario JSON file")
    casc.add_argument("--model", choices=[MIIM, IIM, "both"], default=None)
    casc.add_argument("--case", type=int, choices=[1, 2], default=None)
    casc.add_argument("--out-dir", required=True)

    est = sub.add_parser("estimate", help="Monte-Carlo estimation under a mask")
    est.add_argument("--mask", required=True, help="availability JSON file")
    est.add_argument("--grid", default=None, help="grid JSON (defaults to mask's grid)")
    est.add_argument("--seeds", type=_int_in_range(1, MAX_SEEDS), default=100)
    est.add_argument("--seed-base", type=_int_in_range(0), default=0)
    est.add_argument("--true-state", default=None)
    est.add_argument("--out", required=True, help="errors CSV path")

    run = sub.add_parser("run", help="full pipeline for a scenario file")
    run.add_argument("--scenario", required=True)
    run.add_argument("--out-dir", required=True)

    return parser


# --- serialization helpers ---------------------------------------------------


_CONTAINERS = (dict, list, tuple)


class _Rendered(str):
    """A value's JSON text, already rendered as an item at the depth where
    the payload places it; ``_json_text`` writes it as it is."""


_WALKED = (*_CONTAINERS, _Rendered)


def _write_json(path: Path, payload) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline.

    Any ``indent`` makes ``json.dumps`` give up json's C encoder for its
    pure-Python one; ``_json_text`` writes the same text through the C
    encoder."""
    path.write_text(_json_text(payload) + "\n", encoding="utf-8")


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, tuples as lists.

    json's C encoder writes every container of scalars, every key and every
    scalar.  There is one encoder per depth, whose item separator is the
    newline and indent of that depth's items, so a container it writes needs
    only its brackets opened.  Python walks only the containers that hold
    containers.  Without the C accelerator this is ``json.dumps`` itself."""
    if c_make_encoder is None:
        return json.dumps(payload, indent=2, sort_keys=True)
    default = json.JSONEncoder().default
    encoders: List = []  # encoders[depth]

    def encoder(depth: int):
        while len(encoders) <= depth:
            separator = ",\n" + "  " * (len(encoders) + 1)
            encoders.append(
                c_make_encoder(None, default, encode_basestring_ascii, None, ": ", separator, True, False, True)
            )
        return encoders[depth]

    def scalar_text(value) -> str:
        return "".join(encoder(0)(value, 0))

    def key_text(key) -> str:
        """json's key conversion: an int, float, bool or None key is its text, quoted."""
        if isinstance(key, str):
            return encode_basestring_ascii(key)
        if key is None or isinstance(key, (int, float)):
            return f'"{scalar_text(key)}"'
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")

    def text(value, depth: int) -> str:
        """The text of ``value`` as an item at ``depth``."""
        if isinstance(value, _Rendered):
            return value
        if not isinstance(value, _CONTAINERS):
            return scalar_text(value)
        is_dict = isinstance(value, dict)
        indent = "\n" + "  " * (depth + 1)
        if not any(map(isinstance, value.values() if is_dict else value, repeat(_WALKED))):
            flat = "".join(encoder(depth)(value, 0))  # "[a,<indent>b]": open the brackets
            return f"{flat[0]}{indent}{flat[1:-1]}{indent[:-2]}{flat[-1]}" if value else flat
        if is_dict:
            items = [f"{key_text(key)}: {text(child, depth + 1)}" for key, child in sorted(value.items())]
        else:
            items = [text(child, depth + 1) for child in value]
        start, end = "{}" if is_dict else "[]"
        return f"{start}{indent}{(',' + indent).join(items)}{indent[:-2]}{end}"

    return text(payload, 0)


def _trace_payload(trace: CascadeTrace, names: Tuple[str, ...], model: str, case: int, label: str) -> dict:
    """``names`` is the network's, aligned with the trace's slots."""
    return {
        "label": label,
        "model": model,
        "case": case,
        "converged_at": trace.converged_at,
        "steps": [{names[slot]: value for slot, value in step.items()} for step in trace.changed],
        "final": dict(zip(names, trace.fixpoint)),
    }


def _trace_tsv(trace: CascadeTrace, names: Tuple[str, ...]) -> str:
    """One line per change, each step's in canonical entity (slot) order."""
    lines = ["step\tentity\tvalue"]
    for step_number, changes in enumerate(trace.changed, start=1):
        for slot, value in changes.items():
            lines.append(f"{step_number}\t{names[slot]}\t{value}")
    return "\n".join(lines) + "\n"


def _mask_payload(mask: AvailabilityMask, grid_path: str, model: str, case: int) -> dict:
    return {
        "grid": grid_path,
        "model": model,
        "case": case,
        "scada": {str(bus): ok for bus, ok in sorted(mask.scada.items())},
        "pmu": {str(bus): ok for bus, ok in sorted(mask.pmu.items())},
        "pmu_equipped": sorted(mask.pmu_equipped),
    }


def _write_cascade(
    out: Path, network: JointNetwork, failure: FailureScenario, model: str, case: int, grid_path: str
) -> Tuple[CascadeTrace, AvailabilityMask]:
    """Cascade one rule set, then write its trace (TSV and JSON) and mask."""
    rule_set = network.rule_set(model, case)
    trace = run_cascade(network, rule_set, failure)
    mask = data_availability(trace, network, rule_set)
    stem = f"{model}_case{case}"
    (out / f"trace_{stem}.tsv").write_text(_trace_tsv(trace, network.names), encoding="utf-8")
    _write_json(out / f"trace_{stem}.json", _trace_payload(trace, network.names, model, case, failure.label))
    _write_json(out / f"availability_{stem}.json", _mask_payload(mask, grid_path, model, case))
    return trace, mask


def _bus_flags(payload: dict, field: str, path: Path) -> Dict[int, bool]:
    flags = payload.get(field)
    if not isinstance(flags, dict):
        raise ScenarioFileError(f"{path}: {field} must be an object of bus id -> true/false")
    parsed = {}
    for bus, ok in flags.items():
        bus_id = int_key(bus)
        if bus_id is None or not isinstance(ok, bool):
            raise ScenarioFileError(f"{path}: {field}: bad entry {cut(bus)!r}: {cut(repr(ok))}")
        parsed[bus_id] = ok
    return parsed


def load_mask(path) -> Tuple[dict, AvailabilityMask]:
    """An availability file as written by ``cascade``: its JSON and its mask."""
    path = Path(path)
    payload = _read_json_object(path)
    equipped = payload.get("pmu_equipped", [])
    if not (isinstance(equipped, list) and all(map(is_int, equipped))):
        raise ScenarioFileError(f"{path}: pmu_equipped must be a list of bus ids")
    if not isinstance(payload.get("model", ""), str):
        raise ScenarioFileError(f"{path}: model must be a string, got {cut(repr(payload['model']))}")
    mask = AvailabilityMask(
        scada=_bus_flags(payload, "scada", path),
        pmu=_bus_flags(payload, "pmu", path),
        pmu_equipped=frozenset(equipped),
    )
    unequipped = sorted(bus for bus, ok in mask.pmu.items() if ok and bus not in mask.pmu_equipped)
    if unequipped:
        raise ScenarioFileError(f"{path}: pmu: bus {cut(str(unequipped[0]))} is flagged but not in pmu_equipped")
    return payload, mask


def registry_text(network: JointNetwork) -> str:
    """network.json's ``registry``: the text ``json.dumps(..., indent=2,
    sort_keys=True)`` gives it as the value of a top-level key.  Each entity's
    entry is ``{"endpoints": [a, b] or null, "substation": s or null}``, keyed
    by its name, in name order.  Entity names hold only letters, digits,
    parentheses and commas, which JSON takes unescaped."""
    names, slots = network.names, network.slots
    entries = []
    for name, entity in sorted(zip(names, network.entity_order)):  # names are distinct
        meta = network.registry[entity]
        substation = "null" if meta.substation is None else meta.substation
        if meta.ends is None:
            ends = "null"
        else:
            a, b = meta.ends
            ends = f'[\n        "{names[slots[a]]}",\n        "{names[slots[b]]}"\n      ]'
        entries.append(f'"{name}": {{\n      "endpoints": {ends},\n      "substation": {substation}\n    }}')
    return "{\n    " + ",\n    ".join(entries) + "\n  }" if entries else "{}"


def network_payload(network: JointNetwork, rule_texts: Dict[Tuple[str, int], str]) -> dict:
    """Joint-network fixture: registry, placements, and rule files as text.

    ``rule_texts`` is what ``rule_file_text`` returns.
    """
    return {
        "substations": [
            {
                "id": sub.id,
                "buses": sub.buses,
                "has_pmu": sub.has_pmu,
                "role": sub.role,
            }
            for sub in network.substations
        ],
        "control_centers": list(network.control_centers),
        "sadm_ring": {
            "hosts": network.sadm_ring.hosts,
            "edges": [list(edge) for edge in network.sadm_ring.edges],
        },
        "oadm_ring": {
            "hosts": network.oadm_ring.hosts,
            "edges": [list(edge) for edge in network.oadm_ring.edges],
        },
        "sadm_homing": {str(sub): node for sub, node in sorted(network.sadm_homing.items())},
        "oadm_homing": {str(sub): node for sub, node in sorted(network.oadm_homing.items())},
        "rtus": {str(sub): ids for sub, ids in sorted(network.rtus.items())},
        "pmus": {str(sub): ids for sub, ids in sorted(network.pmus.items()) if ids},
        "registry": _Rendered(registry_text(network)),
        "rules": {
            f"{model}_case{case}": text for (model, case), text in sorted(rule_texts.items())
        },
    }


def rule_file_text(network: JointNetwork) -> Dict[Tuple[str, int], str]:
    """Each rule set's ``.idr`` text by (model, case).  Only the MIIM rule sets
    are formatted, each distinct rule once; an IIM text is its case's MIIM rule
    lines under ``str.translate(IIM_SYMBOLS)``, the text of each rule read as
    binary on the same tree: a network's IIM rule sets read its MIIM rules,
    ``format_expr`` parenthesizes every operator child and no entity text
    holds ``& ^ | . +``.  Registered entities are named from
    ``network.names``."""
    miim = [network.rule_set(MIIM, case) for case in CASES]
    rules = {rs.case: rs.rules + rs.availability for rs in miim}
    distinct = {id(rule): rule for case_rules in rules.values() for rule in case_rules}
    names = dict(zip(network.entity_order, network.names))
    lines = {key: format_idr(rule, names) + "\n" for key, rule in distinct.items()}
    bodies = {case: "".join([lines[id(rule)] for rule in rs]) for case, rs in rules.items()}
    return {
        (model, case): f"# dependency rules: model={model} case={case}\n"
        "# GS(s)/GP(s) entries are data-path expressions evaluated at a fixpoint\n"
        f"#model: {model}\n" + (bodies[case] if model == MIIM else bodies[case].translate(IIM_SYMBOLS))
        for model, case in sorted(network.rule_sets)
    }


def _write_network(out: Path, network: JointNetwork) -> None:
    """network.json plus one rules_<model>_case<case>.idr file per rule set."""
    rule_texts = rule_file_text(network)
    _write_json(out / "network.json", network_payload(network, rule_texts))
    for (model, case), text in rule_texts.items():
        (out / f"rules_{model}_case{case}.idr").write_text(text, encoding="utf-8")


# --- scenario files -----------------------------------------------------------


def _read_json_object(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except ValueError as exc:  # also raised for an integer past the digit limit
        raise ScenarioFileError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioFileError(f"{path}: top level must be an object, got {type(data).__name__}")
    return data


def _file_beside(path: Optional[Path], name: str, what: str) -> Path:
    """``name`` resolved against the directory of the file ``path`` (against
    the working directory for a command-line ``name``, with ``path`` None);
    it must name a file."""
    where = f"{path}: " if path else ""
    try:
        resolved = ((path.parent if path else Path()) / name).resolve()
        if resolved.is_file():
            return resolved
    except (OSError, ValueError) as exc:  # a name too long, or with a NUL byte
        reason = getattr(exc, "strerror", None) or exc
        raise ScenarioFileError(f"{where}bad {what} path {cut(name)!r}: {reason}") from exc
    raise ScenarioFileError(f"{where}{what} file not found: {resolved}")


def load_scenario(path) -> dict:
    path = Path(path)
    data = _read_json_object(path)
    if not is_int(data.get("version")) or data["version"] != SCENARIO_VERSION:
        raise ScenarioFileError(f"{path}: unknown schema version {cut(repr(data.get('version')))}")
    if "grid" not in data:
        raise ScenarioFileError(f"{path}: missing grid path")
    if not isinstance(data["grid"], str):
        raise ScenarioFileError(f"{path}: grid must be a path string, got {cut(repr(data['grid']))}")
    data["_grid_path"] = _file_beside(path, data["grid"], "grid")
    data.setdefault("label", path.stem)
    if not isinstance(data["label"], str):
        raise ScenarioFileError(f"{path}: label must be a string, got {cut(repr(data['label']))}")
    data.setdefault("model", "both")
    data.setdefault("case", 1)
    if data["model"] not in (MIIM, IIM, "both"):
        raise ScenarioFileError(f"{path}: bad model {cut(repr(data['model']))}")
    if not is_int(data["case"]) or data["case"] not in (1, 2):
        raise ScenarioFileError(f"{path}: bad case {cut(repr(data['case']))}")
    raw_killed = data.get("killed", [])
    if not isinstance(raw_killed, list):
        raise ScenarioFileError(f"{path}: killed must be a list of entity ids")
    killed = []
    for text in raw_killed:
        if not isinstance(text, str):
            raise ScenarioFileError(f"{path}: bad killed entity {cut(repr(text))}: expected a string")
        try:
            killed.append(parse_entity_id(text))
        except EntityError as exc:
            raise ScenarioFileError(f"{path}: bad killed entity {cut(text)!r}: {cut(str(exc))}") from exc
    data["_killed"] = killed
    est = data.get("estimation")  # missing or null: no estimation
    if est is not None:
        if not isinstance(est, dict):
            raise ScenarioFileError(f"{path}: estimation must be an object")
        if not is_int(est.get("seeds")) or not 1 <= est["seeds"] <= MAX_SEEDS:
            raise ScenarioFileError(f"{path}: estimation.seeds must be an integer from 1 to {MAX_SEEDS}")
        if not is_int(est.get("seed_base", 0)) or est.get("seed_base", 0) < 0:
            raise ScenarioFileError(f"{path}: estimation.seed_base must be a non-negative integer")
        if est.get("true_state") is not None:  # missing or null: the default state
            if not (isinstance(est["true_state"], str) and est["true_state"]):
                raise ScenarioFileError(
                    f"{path}: estimation.true_state must be a path string, got {cut(repr(est['true_state']))}"
                )
            est["_true_state_path"] = _file_beside(path, est["true_state"], "true-state")
    return data


def load_true_state(path, grid: Grid) -> estimation.StateVector:
    """Bus voltages from ``{"buses": {"<bus>": [re, im], ...}}``."""
    path = Path(path)
    buses = _read_json_object(path).get("buses", {})
    if not isinstance(buses, dict):
        raise ScenarioFileError(f"{path}: buses must be an object of bus id -> [re, im]")
    missing = [b for b in grid.bus_ids if str(b) not in buses]
    if missing:
        raise ScenarioFileError(f"{path}: true state misses buses ({len(missing)}): {first_five(missing)}")
    if len(buses) > len(grid.bus_ids):
        known = {str(b) for b in grid.bus_ids}
        unknown = next(key for key in buses if key not in known)
        raise ScenarioFileError(f"{path}: buses: {cut(unknown)!r} is not a bus of the grid")
    voltages = []
    for b in grid.bus_ids:
        entry = buses[str(b)]
        parts = entry if isinstance(entry, list) and len(entry) == 2 else [None]  # None: not a number
        try:  # each part a number a float holds, by the grid's rule
            voltage = complex(*(as_number(part, f"/buses/{b}") for part in parts))
        except GridError:
            raise ScenarioFileError(
                f"{path}: bus {b}: voltage must be [re, im] with finite numbers, got {cut(repr(entry))}"
            ) from None
        magnitude = math.hypot(voltage.real, voltage.imag)  # inf past the largest float, where abs() raises
        if magnitude > MAX_PU:
            raise ScenarioFileError(f"{path}: bus {b}: |V| = {magnitude:g} pu above {MAX_PU:g} pu")
        voltages.append(voltage)
    return estimation.StateVector.from_complex(grid.bus_ids, voltages)


def _true_state(path, grid: Grid) -> estimation.StateVector:
    """The true state in the file ``path``, or with none the grid's default."""
    return load_true_state(path, grid) if path else estimation.default_true_state(grid)


# --- command implementations ----------------------------------------------------


def _build_validated(grid_path) -> Tuple[Grid, JointNetwork, List[str]]:
    grid = load_grid(grid_path)
    network = build_joint_network(grid)
    return grid, network, validate_network(network)


def _report_violations(problems: List[str]) -> bool:
    """Print each validation problem to stderr; true if there was any."""
    for problem in problems:
        print(f"violation: {problem}", file=sys.stderr)
    return bool(problems)


def _cmd_synth(args) -> int:
    grid, network, problems = _build_validated(args.grid)
    if _report_violations(problems):
        return EXIT_VALIDATION
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_network(out, network)
    print(f"wrote network.json and 4 rule files to {out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    grid, network, problems = _build_validated(args.grid)
    if problems:
        for problem in problems:
            print(f"violation: {problem}")
        return EXIT_VALIDATION
    print(
        f"ok: {len(grid.buses)} buses, {len(grid.branches)} branches, "
        f"{len(network.substations)} substations, {len(network.registry)} entities"
    )
    return EXIT_OK


def _models_cases(scenario: dict, args) -> List[Tuple[str, int]]:
    model = args.model if getattr(args, "model", None) else scenario["model"]
    case = args.case if getattr(args, "case", None) else scenario["case"]
    models = [MIIM, IIM] if model == "both" else [model]
    return [(m, case) for m in models]


def _cmd_cascade(args) -> int:
    scenario = load_scenario(args.scenario)
    grid, network, problems = _build_validated(scenario["_grid_path"])
    if _report_violations(problems):
        return EXIT_VALIDATION
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failure = FailureScenario.of(scenario["_killed"], scenario["label"])
    for model, case in _models_cases(scenario, args):
        trace, mask = _write_cascade(out, network, failure, model, case, str(scenario["_grid_path"]))
        print(
            f"{model}_case{case}: fixpoint at T{trace.converged_at}, "
            f"scada lost at {sorted(mask.scada_lost())}"
        )
    return EXIT_OK


def _cmd_estimate(args) -> int:
    payload, mask = load_mask(args.mask)
    if not args.grid and not isinstance(payload.get("grid"), str):
        raise ScenarioFileError(f"{args.mask}: grid must be a path string, or pass --grid")
    grid = load_grid(args.grid or _file_beside(Path(args.mask), payload["grid"], "grid"))
    buses = set(grid.bus_ids)
    flags = {"scada": mask.scada, "pmu": mask.pmu, "pmu_equipped": mask.pmu_equipped}
    for field, flagged in flags.items():
        foreign = sorted(set(flagged) - buses)
        if foreign:
            raise ScenarioFileError(f"{args.mask}: {field}: bus {cut(str(foreign[0]))} is not in the grid")
        missing = sorted(buses - set(flagged))
        if missing and field != "pmu_equipped":
            raise ScenarioFileError(f"{args.mask}: {field}: bus {missing[0]} is missing")
    true_state = _true_state(args.true_state, grid)
    label = payload.get("model", "mask")
    seeds = [args.seed_base + i for i in range(args.seeds)]
    result = estimation.compare_models(grid, {label: mask}, true_state, seeds)
    estimation.write_errors_csv(result, args.out)
    print(f"wrote {args.out} ({args.seeds} seeds, model={label})")
    return EXIT_OK


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    grid, network, problems = _build_validated(scenario["_grid_path"])
    if _report_violations(problems):
        return EXIT_VALIDATION
    est_cfg = scenario.get("estimation")
    if est_cfg is not None:  # a bad true state writes nothing
        true_state = _true_state(est_cfg.get("_true_state_path"), grid)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _write_network(out, network)

    failure = FailureScenario.of(scenario["_killed"], scenario["label"])
    masks: Dict[str, AvailabilityMask] = {}
    report: dict = {
        "label": scenario["label"],
        "grid": str(scenario["grid"]),
        "case": scenario["case"],
        "killed": sorted(str(e) for e in failure.killed),
        "models": {},
    }
    for model, case in _models_cases(scenario, args):
        trace, mask = _write_cascade(out, network, failure, model, case, str(scenario["_grid_path"]))
        masks[model] = mask
        report["models"][model] = {
            "converged_at": trace.converged_at,
            "scada_lost": sorted(mask.scada_lost()),
            "pmu_lost": sorted(mask.pmu_lost()),
        }

    if len(masks) == 2:
        diff = footprint_diff(masks[MIIM], masks[IIM])
        diff_payload = {
            "scada_lost_only_miim": sorted(diff.scada_only_a),
            "scada_lost_only_iim": sorted(diff.scada_only_b),
            "pmu_lost_only_miim": sorted(diff.pmu_only_a),
            "pmu_lost_only_iim": sorted(diff.pmu_only_b),
        }
        _write_json(out / "footprint_diff.json", diff_payload)
        report["footprint_diff"] = diff_payload

    if est_cfg is not None:
        seeds = [est_cfg.get("seed_base", 0) + i for i in range(est_cfg["seeds"])]
        result = estimation.compare_models(grid, masks, true_state, seeds)
        estimation.write_errors_csv(result, out / "errors.csv")
        report["estimation"] = {
            "seeds": est_cfg["seeds"],
            "errors_csv": "errors.csv",
            "mean_abs_error": {
                model: float(result.errors[model].mean()) for model in result.models
            },
            "anchored": {model: sorted(result.anchored[model]) for model in result.models},
        }

    _write_json(out / "report.json", report)
    print(f"report written to {out / 'report.json'}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "validate": _cmd_validate,
    "cascade": _cmd_cascade,
    "estimate": _cmd_estimate,
    "run": _cmd_run,
}

# Input-file options (argparse dest -> the file's name in errors).
_INPUT_FILES = {"grid": "grid", "scenario": "scenario", "mask": "mask", "true_state": "true-state"}


def _check_output(name: str, option: str) -> None:
    """Refuse an ``--out`` that is a directory or not in one, and an ``--out-dir`` under a file."""
    path = Path(name)
    try:
        if option == "--out":
            folder, problem = path.parent, "is a directory" if path.is_dir() else None
        else:  # the nearest path that exists
            folder, problem = next((p for p in (path, *path.parents) if p.exists()), Path()), None
        if not (problem or folder.is_dir()):
            problem = f"{folder} is not a directory" if folder.exists() else f"directory {folder} not found"
    except (OSError, ValueError) as exc:  # a name too long, or with a NUL byte
        problem = getattr(exc, "strerror", None) or str(exc)
    if problem:
        raise ScenarioFileError(f"{option} {cut(name)!r}: {problem}")


_VALIDATION_ERRORS = (
    GridError,
    SynthesisError,
    ScenarioFileError,
    cascade_mod.ScenarioError,
    EntityError,
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, what in _INPUT_FILES.items():
            name = getattr(args, dest, None)
            if name is not None:
                _file_beside(None, name, what)
        for dest in ("out", "out_dir"):
            if getattr(args, dest, None) is not None:
                _check_output(getattr(args, dest), "--" + dest.replace("_", "-"))
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
