"""Hypothesis edits of valid input documents, for the input fuzz tests.

Each helper applies 1-3 random edits to a valid input and returns the result;
a test then checks that the loader either accepts it or raises the error
class it declares, with every line of the refusal short
(``assert_short_lines``).  ``rename_bus``, ``cut_until_disconnected`` and
``add_unknown_pmu_substations`` are the fixed edits, of a grid.
"""

import random

from hypothesis import strategies as st

# Fragments of rule text: operator, entity and directive characters, plus an
# index past Python's 4300-digit integer conversion limit.
RULE_PIECES = st.text(alphabet="PBCLRUGS(),<-&|^.+#: 0123456789miim", max_size=6) | st.just(
    "9" * 5000
)

# Entity text with any known prefix and 1-4 indices, so that most of it
# names an entity of the wrong arity, type or link family, or has an index
# too long to convert.
ENTITY_TEXT = st.builds(
    lambda prefix, indices: f"{prefix}({','.join(indices)})",
    st.sampled_from(["P", "PB", "BR", "C", "L", "R", "U", "GS", "GP", "X"]),
    st.lists(st.integers(0, 9).map(str) | st.just("9" * 5000), min_size=1, max_size=4),
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=4)
    | ENTITY_TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


# A re-keyed entry's new key: short text, a key of 5000 characters, or a
# 4000-digit decimal key, which reads as an id within Python's 4300-digit
# conversion limit.
KEYS = st.text(max_size=4) | st.just("k" * 5000) | st.just("9" * 4000)

# The longest line a refusal may print: an echoed value is cut at 80
# characters, and a line names at most a path and two echoes.
MAX_LINE_BYTES = 400


def assert_short_lines(text: str) -> None:
    """No line of ``text`` is longer than ``MAX_LINE_BYTES`` bytes."""
    longest = max((len(line.encode()) for line in text.splitlines()), default=0)
    assert longest <= MAX_LINE_BYTES, text[:MAX_LINE_BYTES + 100]


def _paths(node, prefix=()):
    """Every location in a parsed JSON value, the root included."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


def edit_json(data, document):
    """Replace, delete or re-key 1-3 locations anywhere in ``document``, a
    parsed JSON value that this edits in place; returns the edited value."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(document))))
        if not path:
            document = data.draw(JSON_VALUES)
            continue
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["replace", "delete", "rekey"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "rekey" and isinstance(parent, dict):
            parent[data.draw(KEYS)] = parent.pop(path[-1])
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    return document


def edit_rule_text(data, text):
    """Make 1-3 edits to an ``.idr`` text, each to one line: replace or
    delete a span of it, or re-key its rule by replacing the target with
    other entity text."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        start = data.draw(st.integers(0, len(line)))
        end = data.draw(st.integers(start, len(line)))
        action = data.draw(st.sampled_from(["replace", "delete", "rekey"]))
        if action == "delete":
            lines[i] = line[:start] + line[end:]
        elif action == "rekey" and "<-" in line:
            lines[i] = data.draw(ENTITY_TEXT) + " " + line[line.index("<-"):]
        else:
            lines[i] = line[:start] + data.draw(RULE_PIECES) + line[end:]
    return "\n".join(lines) + "\n"


def rename_bus(grid, old, new):
    """Rename bus ``old`` of a parsed grid file to ``new`` wherever it
    appears; returns the grid, edited in place."""
    for bus in grid["buses"]:
        bus["id"] = new if bus["id"] == old else bus["id"]
    for branch in grid["branches"]:
        for end in ("from", "to"):
            branch[end] = new if branch[end] == old else branch[end]
    grid["substation_map"][str(new)] = grid["substation_map"].pop(str(old))
    return grid


def _connected(buses, branches) -> bool:
    """Whether ``branches`` join every bus of ``buses``."""
    neighbors = {bus: [] for bus in buses}
    for branch in branches:
        neighbors[branch["from"]].append(branch["to"])
        neighbors[branch["to"]].append(branch["from"])
    start = next(iter(neighbors))
    seen, frontier = {start}, [start]
    while frontier:
        for other in neighbors[frontier.pop()]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(neighbors)


def cut_until_disconnected(grid, seed):
    """Delete the branches of a parsed grid file without a substation map,
    one at a time in an order fixed by ``seed``, until its bus graph, and so
    its substation graph, falls apart; returns the grid, edited in place."""
    buses = [bus["id"] for bus in grid["buses"]]
    order = list(range(len(grid["branches"])))
    random.Random(seed).shuffle(order)
    kept = set(order)
    for index in order:
        kept.discard(index)
        if not _connected(buses, [grid["branches"][i] for i in kept]):
            break
    grid["branches"] = [branch for i, branch in enumerate(grid["branches"]) if i in kept]
    return grid


def add_unknown_pmu_substations(grid, count):
    """Append to a parsed grid file's ``pmu_substations`` ``count`` ids past
    its every bus and substation id, so none names a substation; returns the
    grid, edited in place."""
    start = 1 + max([bus["id"] for bus in grid["buses"]] + list(grid.get("substation_map", {}).values()))
    grid.setdefault("pmu_substations", []).extend(range(start, start + count))
    return grid
