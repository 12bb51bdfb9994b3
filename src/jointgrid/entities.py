"""Entity identifiers for the joint power/communication network.

Every entity is named by a short prefix plus integer indices:

    P(4)         bus 4
    PB(1)        battery backup of substation 1
    BR(1,2)      branch between buses 1 and 2
    C(t,s,y,z)   communication entity (type, subtype, and two indices)
    L(f,i)       power supply link, family f, index i
    R(1)         RTU 1
    U(2)         PMU 2
    GS(1)/GP(1)  SCADA/PMU data-path pseudo entities of a substation gateway

Communication entity types: 1 = substation equipment, 2 = SONET-ring,
3 = DWDM-ring.  Type-1 subtypes: 1 server, 2 gateway, 3 LAN, 4 SONEToE
cable, 5 EoDWDM cable, 6 RTU channel, 7 PMU channel.  Type-2/3 subtypes:
1 ring node (SADM/OADM), 2 ring link.

Link families: L(1,b)/L(2,b) feed the server/gateway from bus b,
L(3,k)/L(4,k) are the k-th SADM/OADM power feed, L(5,s)/L(6,s) feed the
server/gateway of substation s from its battery.

An ``EntityId`` is the tuple ``(kind rank, indices)``, so registry keys,
slots and rule literals hash, compare and sort as tuples.  ``validate`` is
the one walk checking literals; the compilers check by their own lookups.
"""

from __future__ import annotations

import re
from typing import Tuple

KIND_BUS = "bus"
KIND_BATTERY = "battery"
KIND_BRANCH = "branch"
KIND_COMM = "comm"
KIND_LINK = "link"
KIND_RTU = "rtu"
KIND_PMU = "pmu"
KIND_GW_SCADA = "gw_scada"
KIND_GW_PMU = "gw_pmu"

_PREFIX_TO_KIND = {
    "P": (KIND_BUS, 1),
    "PB": (KIND_BATTERY, 1),
    "BR": (KIND_BRANCH, 2),
    "C": (KIND_COMM, 4),
    "L": (KIND_LINK, 2),
    "R": (KIND_RTU, 1),
    "U": (KIND_PMU, 1),
    "GS": (KIND_GW_SCADA, 1),
    "GP": (KIND_GW_PMU, 1),
}

# Each kind's index count and text template, e.g. (4, "C(%s,%s,%s,%s)").
_KIND_FORMAT = {kind: (n, f"{p}({','.join(['%s'] * n)})") for p, (kind, n) in _PREFIX_TO_KIND.items()}

# Canonical ordering of kinds for reports and rule files: an entity's rank
# is its kind's position in the prefix table.
_KINDS = tuple(kind for kind, _ in _PREFIX_TO_KIND.values())
_KIND_RANK = {kind: rank for rank, kind in enumerate(_KINDS)}
_RANK_TEXT = tuple(_KIND_FORMAT[kind][1] for kind in _KINDS)
_TYPE1_SUBTYPES, _LINK_FAMILIES = frozenset(range(1, 8)), frozenset(range(1, 7))

# ASCII: ``\d`` alone would take any Unicode digit, which ``int`` converts.
_ENTITY_RE = re.compile(r"^([A-Z]+)\((\s*\d+\s*(?:,\s*\d+\s*)*)\)$", re.ASCII)


class EntityError(ValueError):
    """Malformed entity identifier."""


class EntityId(tuple):
    """Structured entity identifier: a kind plus its integer indices.

    The value is the tuple ``(kind rank, indices)``.  Entity ids key every
    state, registry and slot map, so equality, hash and the canonical order
    (kind rank, then indices) are the tuple's own.  The hash is built from
    integers only, so it is the same in every process.
    """

    __slots__ = ()

    def __new__(cls, kind: str, indices: Tuple[int, ...]):
        if kind not in _KIND_FORMAT:
            raise EntityError(f"unknown entity kind: {kind!r}")
        expected, _ = _KIND_FORMAT[kind]
        if len(indices) != expected:
            raise EntityError(f"{kind} entity takes {expected} indices, got {len(indices)}")
        if kind == KIND_COMM:
            ctype, subtype = indices[0], indices[1]
            if ctype not in (1, 2, 3):
                raise EntityError(f"communication entity type must be 1, 2, or 3: {ctype}")
            if ctype == 1 and subtype not in _TYPE1_SUBTYPES:
                raise EntityError(f"type-1 subtype must be 1..7: {subtype}")
            if ctype in (2, 3) and subtype not in (1, 2):
                raise EntityError(f"type-{ctype} subtype must be 1 or 2: {subtype}")
        if kind == KIND_LINK and indices[0] not in _LINK_FAMILIES:
            raise EntityError(f"link family must be 1..6: {indices[0]}")
        return tuple.__new__(cls, (_KIND_RANK[kind], indices))

    def __getnewargs__(self):
        return (self.kind, self.indices)

    @property
    def kind(self) -> str:
        return _KINDS[self[0]]

    @property
    def indices(self) -> Tuple[int, ...]:
        return self[1]

    def __str__(self):
        return _RANK_TEXT[self[0]] % self[1]

    def __repr__(self):
        return f"parse_entity_id({str(self)!r})"


def parse_entity_id(text: str) -> EntityId:
    """Parse an entity identifier such as ``C(1,2,6,6)`` or ``PB(1)``."""
    match = _ENTITY_RE.match(text.strip())
    if not match:
        raise EntityError(f"malformed entity identifier: {text!r}")
    prefix, body = match.groups()
    if prefix not in _PREFIX_TO_KIND:
        raise EntityError(f"unknown entity prefix: {prefix!r}")
    kind, _ = _PREFIX_TO_KIND[prefix]
    try:
        indices = tuple(int(part) for part in body.split(","))
    except ValueError as exc:  # an index past the integer digit limit
        raise EntityError(f"bad entity index in {text!r}: {exc}") from None
    return EntityId(kind, indices)


def bus(b: int) -> EntityId:
    return EntityId(KIND_BUS, (b,))


def battery(substation: int) -> EntityId:
    return EntityId(KIND_BATTERY, (substation,))


def server(substation: int) -> EntityId:
    return EntityId(KIND_COMM, (1, 1, substation, substation))


def gateway(substation: int) -> EntityId:
    return EntityId(KIND_COMM, (1, 2, substation, substation))


def lan(substation: int) -> EntityId:
    return EntityId(KIND_COMM, (1, 3, substation, substation))


def sonet_channel(sadm: int, substation: int) -> EntityId:
    return EntityId(KIND_COMM, (1, 4, sadm, substation))


def dwdm_channel(oadm: int, substation: int) -> EntityId:
    return EntityId(KIND_COMM, (1, 5, oadm, substation))


def rtu_channel(rtu: int, substation: int) -> EntityId:
    return EntityId(KIND_COMM, (1, 6, rtu, substation))


def pmu_channel(pmu: int, substation: int) -> EntityId:
    return EntityId(KIND_COMM, (1, 7, pmu, substation))


def sadm(node: int) -> EntityId:
    return EntityId(KIND_COMM, (2, 1, node, 0))


def oadm(node: int) -> EntityId:
    return EntityId(KIND_COMM, (3, 1, node, 0))


def sonet_ring_link(a: int, b: int) -> EntityId:
    lo, hi = sorted((a, b))
    return EntityId(KIND_COMM, (2, 2, lo, hi))


def dwdm_ring_link(a: int, b: int) -> EntityId:
    lo, hi = sorted((a, b))
    return EntityId(KIND_COMM, (3, 2, lo, hi))


def link(family: int, index: int) -> EntityId:
    return EntityId(KIND_LINK, (family, index))


def rtu(index: int) -> EntityId:
    return EntityId(KIND_RTU, (index,))


def pmu(index: int) -> EntityId:
    return EntityId(KIND_PMU, (index,))


def gw_scada(substation: int) -> EntityId:
    return EntityId(KIND_GW_SCADA, (substation,))


def gw_pmu(substation: int) -> EntityId:
    return EntityId(KIND_GW_PMU, (substation,))
