"""Transmission grid model and its JSON file format (schema v1).

A grid file carries buses, branches, and the optional synthesis inputs used
to build the communication overlay:

    {
      "version": 1,
      "name": "ieee14",
      "buses": [{"id": 1, "generator": true}, ...],
      "branches": [{"from": 1, "to": 2, "r": 0.01938, "x": 0.05917,
                    "b": 0.0528, "length": 18.0, "transformer": false}, ...],
      "substation_map": {"4": 1, "7": 1, ...},          # bus -> substation
      "pmu_substations": [4, 7, 11],
      "control_centers": [2, 1],                         # primary, backup
      "sadm_homing": {"6": 1, ...},                      # substation -> host
      "oadm_homing": {"6": 1, ...}
    }

Branch ``length`` (km) may be omitted; a stand-in proportional to the
series reactance is synthesized so that placement stays deterministic.  A
line's length is positive and a transformer's non-negative, both at most
``MAX_LENGTH``.  Electrical parameters are per-unit; only the estimation
stage reads them.  Bus and substation ids are integers from 0 to
``MAX_ID``, and as keys they are canonical decimal: ``"4"``, never
``"04"``, ``" 4"`` or ``"-4"``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

SCHEMA_VERSION = 1

# km of synthesized line length per unit of per-unit reactance
LENGTH_PER_REACTANCE = 400.0

# Largest accepted per-unit magnitude of a shunt susceptance |b| and of a
# true-state voltage |V|: past it, a measurement's squared noise sigma can
# overflow a float.
MAX_PU = 1e6

# The longest branch (km): the stand-in length of the largest accepted
# reactance.  A sum of path lengths over any grid stays finite.
MAX_LENGTH = LENGTH_PER_REACTANCE * MAX_PU

# The largest bus or substation id: estimation holds ids in numpy's C
# integers.
MAX_ID = 10**9

# Accepted series impedance |r + jx| (pu).  Outside it the admittance can
# round to 0 or overflow, and estimation could no longer read a PMU
# current as fixing its far bus.
IMPEDANCE_RANGE = (1e-6, MAX_PU)


class GridError(ValueError):
    """Grid file violates the schema; a message about a part of the file
    starts with its JSON pointer."""


@dataclass(frozen=True)
class Bus:
    id: int
    generator: bool = False


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_sh: float = 0.0
    length: float = 0.0
    transformer: bool = False


@dataclass
class SynthesisConfig:
    """Optional explicit placement inputs for the overlay synthesis."""

    substation_map: Optional[Dict[int, int]] = None
    pmu_substations: List[int] = field(default_factory=list)
    control_centers: Optional[Tuple[int, int]] = None
    sadm_homing: Dict[int, int] = field(default_factory=dict)
    oadm_homing: Dict[int, int] = field(default_factory=dict)


@dataclass
class Grid:
    name: str
    buses: List[Bus]
    branches: List[Branch]
    config: SynthesisConfig = field(default_factory=SynthesisConfig)

    @property
    def bus_ids(self) -> List[int]:
        return sorted(b.id for b in self.buses)

    def generator_buses(self) -> List[int]:
        return sorted(b.id for b in self.buses if b.generator)


def cut(text: str) -> str:
    """The first 80 characters of ``text``: an error line of any input file
    names a refused value, key or path without repeating all of it."""
    return text[:80]


def first_five(items: Sequence) -> str:
    """``items``' first five and ``...`` if there are more: an error line's view of a long list."""
    return ", ".join(map(str, items[:5])) + (", ..." if len(items) > 5 else "")


def _expect(condition: bool, pointer: str, message: str):
    if not condition:
        raise GridError(f"{pointer}: {message}")


def is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_int(value, pointer: str) -> int:
    _expect(is_int(value), pointer, "expected an integer")
    return value


def _as_id(value, pointer: str, what: str = "") -> int:
    """A bus or substation id: an integer from 0 to ``MAX_ID``, non-negative
    since an entity id such as ``P(4)`` spells its indices in digits only."""
    number = _as_int(value, pointer)
    _expect(number >= 0, pointer, f"{what}id must be non-negative, got {cut(str(number))}")
    _expect(number <= MAX_ID, pointer, f"{what}id must be at most {MAX_ID}, got {cut(str(number))}")
    return number


def _id_key(key: str, pointer: str, what: str) -> int:
    """The id an object key names, in canonical decimal and in ``_as_id``'s range."""
    number = int_key(key)
    _expect(number is not None, pointer, f"key {cut(key)!r} must be a {what} id in canonical decimal")
    return _as_id(number, pointer, f"{what} ")


def int_key(key: str) -> Optional[int]:
    """The id a JSON object key spells in canonical decimal, where
    ``str(int(key)) == key``; None for any other key.  ``"05"``, ``" 5"``,
    ``"+5"`` and ``"1_4"`` spell no id, so no two keys of an object name the
    same one."""
    try:
        value = int(key)
    except ValueError:
        return None
    return value if str(value) == key else None


def as_number(value, pointer: str) -> float:
    """The float a JSON number holds: a ``GridError`` for anything else (a
    bool, NaN, an infinity, an integer past the largest float)."""
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        pointer,
        "expected a number",
    )
    try:
        number = float(value)
    except OverflowError:
        raise GridError(f"{pointer}: integer too large for a number") from None
    _expect(math.isfinite(number), pointer, f"expected a finite number, got {value!r}")
    return number


def _as_bool(value, pointer: str) -> bool:
    _expect(isinstance(value, bool), pointer, "expected a boolean")
    return value


def grid_from_dict(data: dict, name: str = "grid") -> Grid:
    """Validate and build a Grid from parsed JSON."""
    if not isinstance(data, dict):
        raise GridError(f"top level must be an object, got {type(data).__name__}")
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise GridError(f"/version: unknown schema version {cut(repr(version))} (expected {SCHEMA_VERSION})")

    raw_buses = data.get("buses")
    _expect(isinstance(raw_buses, list) and raw_buses, "/buses", "expected a non-empty array")
    buses: List[Bus] = []
    seen = set()
    for i, entry in enumerate(raw_buses):
        pointer = f"/buses/{i}"
        _expect(isinstance(entry, dict), pointer, "expected an object")
        bus_id = _as_id(entry.get("id"), f"{pointer}/id")
        _expect(bus_id not in seen, f"{pointer}/id", f"duplicate bus id {bus_id}")
        seen.add(bus_id)
        generator = _as_bool(entry.get("generator", False), f"{pointer}/generator")
        buses.append(Bus(bus_id, generator))

    raw_branches = data.get("branches")
    _expect(isinstance(raw_branches, list) and raw_branches, "/branches", "expected a non-empty array")
    branches: List[Branch] = []
    for i, entry in enumerate(raw_branches):
        pointer = f"/branches/{i}"
        _expect(isinstance(entry, dict), pointer, "expected an object")
        f = _as_int(entry.get("from"), f"{pointer}/from")
        t = _as_int(entry.get("to"), f"{pointer}/to")
        _expect(f in seen, f"{pointer}/from", f"unknown bus {cut(str(f))}")
        _expect(t in seen, f"{pointer}/to", f"unknown bus {cut(str(t))}")
        _expect(f != t, pointer, "branch endpoints must differ")
        r = as_number(entry.get("r", 0.0), f"{pointer}/r")
        _expect(r >= 0.0, f"{pointer}/r", "resistance must be non-negative")
        x = as_number(entry.get("x"), f"{pointer}/x")
        _expect(x != 0.0, f"{pointer}/x", "reactance must be non-zero")
        low, high = IMPEDANCE_RANGE
        impedance = math.hypot(r, x)
        _expect(
            low <= impedance <= high,
            f"{pointer}/x",
            f"impedance |r + jx| = {impedance:g} pu outside [{low:g}, {high:g}] pu",
        )
        b_sh = as_number(entry.get("b", 0.0), f"{pointer}/b")
        _expect(abs(b_sh) <= MAX_PU, f"{pointer}/b", f"|b| = {abs(b_sh):g} pu above {MAX_PU:g} pu")
        transformer = _as_bool(entry.get("transformer", False), f"{pointer}/transformer")
        if "length" in entry:
            length = as_number(entry.get("length"), f"{pointer}/length")
        else:
            length = round(abs(x) * LENGTH_PER_REACTANCE, 6)
        _expect(transformer or length > 0.0, f"{pointer}/length", "line length must be positive")
        _expect(
            0.0 <= length <= MAX_LENGTH,
            f"{pointer}/length",
            f"length {length:g} km outside [0, {MAX_LENGTH:g}] km",
        )
        branches.append(Branch(f, t, r, x, b_sh, length, transformer))

    config = SynthesisConfig()
    raw_map = data.get("substation_map")
    if raw_map is not None:
        _expect(isinstance(raw_map, dict), "/substation_map", "expected an object")
        mapping: Dict[int, int] = {}
        for key, value in raw_map.items():
            pointer = f"/substation_map/{cut(key)}"
            bus_id = _id_key(key, pointer, "bus")
            _expect(bus_id in seen, pointer, f"unknown bus {bus_id}")
            mapping[bus_id] = _as_id(value, pointer)
        missing = sorted(seen - mapping.keys())
        _expect(not missing, "/substation_map", f"buses without a substation: {missing}")
        config.substation_map = mapping

    raw_pmu = data.get("pmu_substations", [])
    _expect(isinstance(raw_pmu, list), "/pmu_substations", "expected an array")
    config.pmu_substations = [
        _as_id(v, f"/pmu_substations/{i}") for i, v in enumerate(raw_pmu)
    ]

    raw_cc = data.get("control_centers")
    if raw_cc is not None:
        _expect(
            isinstance(raw_cc, list) and len(raw_cc) == 2,
            "/control_centers",
            "expected [primary, backup]",
        )
        primary = _as_id(raw_cc[0], "/control_centers/0")
        backup = _as_id(raw_cc[1], "/control_centers/1")
        _expect(primary != backup, "/control_centers", "control centers must differ")
        config.control_centers = (primary, backup)

    for field_name in ("sadm_homing", "oadm_homing"):
        raw = data.get(field_name, {})
        _expect(isinstance(raw, dict), f"/{field_name}", "expected an object")
        homing: Dict[int, int] = {}
        for key, value in raw.items():
            pointer = f"/{field_name}/{cut(key)}"
            homing[_id_key(key, pointer, "substation")] = _as_id(value, pointer)
        setattr(config, field_name, homing)

    return Grid(str(data.get("name", name)), buses, branches, config)


def unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for reading every input file: the object as a
    dict, refusing a key it names twice, where ``json`` would keep the last
    value and drop the first unseen."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {cut(key)!r} appears twice in one object")
            seen.add(key)
    return obj


def load_grid(path) -> Grid:
    """Load and validate a grid file; an error names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, object_pairs_hook=unique_keys)
        except ValueError as exc:  # also raised for an integer past the digit limit
            raise GridError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return grid_from_dict(data, name=str(path))
    except GridError as exc:
        raise GridError(f"{path}: {exc}") from exc
