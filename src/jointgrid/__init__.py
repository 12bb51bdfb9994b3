"""Joint power/communication network modeling and analysis.

The package builds a synthetic communication overlay (SONET and DWDM rings,
substation servers, gateways, RTU/PMU channels) on top of a transmission
grid, expresses the intra- and inter-dependencies of the combined network
as logical rules over a three-valued operational domain, simulates cascading
failures to a fixpoint, and quantifies the downstream impact on weighted
least squares state estimation driven by the surviving SCADA/PMU telemetry.
"""

from jointgrid.ternary import FULL, REDUCED, FAILED, min_and, max_or, new_xor
from jointgrid.entities import EntityId, parse_entity_id
from jointgrid.idr import IdrRule, format_idr
from jointgrid.grid import Grid, load_grid
from jointgrid.network import JointNetwork
from jointgrid.synthesis import build_joint_network
from jointgrid.cascade import run_cascade, data_availability, footprint_diff

__version__ = "0.1.0"

__all__ = [
    "FULL",
    "REDUCED",
    "FAILED",
    "min_and",
    "max_or",
    "new_xor",
    "EntityId",
    "parse_entity_id",
    "IdrRule",
    "format_idr",
    "Grid",
    "load_grid",
    "JointNetwork",
    "build_joint_network",
    "run_cascade",
    "data_availability",
    "footprint_diff",
    "__version__",
]
