"""Hybrid SCADA+PMU weighted least squares state estimation.

States are per-bus rectangular voltages (V_r, V_i), so voltage and branch
current measurements are both linear in the state and one weighted
least-squares solve recovers every bus voltage.  SCADA feeds one voltage
pseudo-measurement per delivered bus (the output of the conventional
estimation stage, carrying its error level); PMUs feed a precise voltage
measurement plus one current measurement per incident branch.

Measurement noise is Gaussian, zero-mean, independent per rectangular
component: 3 percent of the local voltage magnitude for SCADA and 0.1
percent of the local signal magnitude for PMUs.  Weights are the inverse
per-component variances on a diagonal; cross-component covariance is
neglected.

Buses cut off from every measurement are anchored with a weak flat-start
pseudo-measurement (1+j0, sigma 0.5 pu) so the solve proceeds, and are
flagged in reports; under a mask that delivers nothing, every bus is.

The design matrix, the weights and observability depend only on the mask
and the true state, never on the noise.  ``compare_models`` therefore
builds the noise-free measurement template once for the union of the
masks and, per mask, scales the system and anchors its unobservable buses
once, read from the measurement graph.  Each seed then costs one noise
draw, and all seeds of a mask are solved by one least-squares call with
one right-hand-side column per seed.  The per-seed path
(``simulate_measurements``, ``solve_with_anchors``, ``wls_solve``) stays as
the reference it is tested against: each of its solves takes the rank, the
null-space buses and the solution from one SVD.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from jointgrid.cascade import AvailabilityMask
from jointgrid.grid import Grid

SCADA_SIGMA = 0.03
PMU_SIGMA = 0.001
SIGMA_FLOOR = 1e-6
ANCHOR_SIGMA = 0.5
RANK_TOL = 1e-8

KIND_SCADA_V = "scada_v"
KIND_PMU_V = "pmu_v"
KIND_PMU_I = "pmu_i"


class EstimationError(ValueError):
    pass


class UnobservableError(EstimationError):
    """The design matrix is rank deficient; carries the undetermined buses."""

    def __init__(self, buses: Sequence[int]):
        super().__init__(f"unobservable state at buses {sorted(buses)}")
        self.buses = sorted(buses)


@dataclass
class StateVector:
    """Rectangular bus voltages in sorted bus-id order."""

    bus_ids: List[int]
    values: np.ndarray  # interleaved [V_r(b0), V_i(b0), V_r(b1), ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (2 * len(self.bus_ids),):
            raise EstimationError("state dimension must be twice the bus count")
        if not np.all(np.isfinite(self.values)):
            raise EstimationError("state must be finite")
        self._index = {bus: i for i, bus in enumerate(self.bus_ids)}

    def voltage(self, bus: int) -> complex:
        i = self._index[bus]
        return complex(self.values[2 * i], self.values[2 * i + 1])

    def as_complex(self) -> np.ndarray:
        return self.values[0::2] + 1j * self.values[1::2]

    @staticmethod
    def from_complex(bus_ids: Sequence[int], voltages: Sequence[complex]) -> "StateVector":
        values = np.empty(2 * len(bus_ids))
        values[0::2] = np.real(voltages)
        values[1::2] = np.imag(voltages)
        return StateVector(list(bus_ids), values)


@dataclass(frozen=True)
class BranchAdmittance:
    """Series admittance g+jb plus the measuring-end shunt g0+jb0 (per-unit)."""

    g: float
    b: float
    g0: float = 0.0
    b0: float = 0.0


def admittance_from_branch(r: float, x: float, b_sh: float = 0.0) -> BranchAdmittance:
    """Series admittance 1/(r+jx) and the from-end half of the line charging."""
    denom = r * r + x * x
    if denom == 0.0:
        raise EstimationError("singular branch: r = x = 0")
    return BranchAdmittance(g=r / denom, b=-x / denom, g0=0.0, b0=b_sh / 2.0)


def branch_current_rows(adm: BranchAdmittance) -> np.ndarray:
    """2x4 coefficients mapping [Va_r, Va_i, Vb_r, Vb_i] to [I_r, I_i].

    The current leaving the measuring end a is
    I = (g + jb)(Va - Vb) + (g0 + jb0) Va.
    """
    g, b, g0, b0 = adm.g, adm.b, adm.g0, adm.b0
    return np.array(
        [
            [g + g0, -(b + b0), -g, b],
            [b + b0, g + g0, -b, -g],
        ]
    )


def branch_current(adm: BranchAdmittance, va: complex, vb: complex) -> complex:
    """Current at the measuring end, via the coefficient rows."""
    rows = branch_current_rows(adm)
    vec = np.array([va.real, va.imag, vb.real, vb.imag])
    i_r, i_i = rows @ vec
    return complex(i_r, i_i)


@dataclass(frozen=True)
class Measurement:
    kind: str
    bus: int  # measured bus (owner of the PMU / SCADA estimate)
    other_bus: Optional[int]  # far end for current measurements
    branch_index: Optional[int]  # index into grid.branches for currents
    z_r: float
    z_i: float
    var_r: float
    var_i: float


def _delivered(m: Measurement, mask: AvailabilityMask) -> bool:
    """Whether the bus producing ``m`` still delivers its data under the mask."""
    if m.kind == KIND_SCADA_V:
        return mask.scada.get(m.bus, False)
    return mask.pmu.get(m.bus, False)


@dataclass
class MeasurementSet:
    entries: List[Measurement] = field(default_factory=list)

    def __len__(self):
        return len(self.entries)

    def filtered(self, mask: AvailabilityMask) -> "MeasurementSet":
        """Entries whose producing bus still delivers under the mask."""
        return MeasurementSet([m for m in self.entries if _delivered(m, mask)])


@dataclass(frozen=True)
class MeasurementTemplate:
    """The noise-free measurements under one mask, in draw order.

    ``exact`` holds the true values and the floored variances; ``sigmas``
    holds each entry's per-component noise sigma before flooring (zero
    allowed).  Nothing here depends on the seed.
    """

    exact: MeasurementSet
    sigmas: np.ndarray

    def noise(self, seed: int) -> np.ndarray:
        """Interleaved [r, i] noise of every entry for one seed.

        One draw over all entries yields the same stream as one size-2 draw
        per entry in order.
        """
        return np.random.default_rng(seed).normal(0.0, np.repeat(self.sigmas, 2))


def _incident_branches(grid: Grid) -> Dict[int, List[int]]:
    """Bus -> indices of its incident branches, in branch order."""
    incident: Dict[int, List[int]] = {}
    for index, branch in enumerate(grid.branches):
        for bus in {branch.from_bus, branch.to_bus}:
            incident.setdefault(bus, []).append(index)
    return incident


def measurement_template(
    true_state: StateVector,
    grid: Grid,
    mask: AvailabilityMask,
    scada_sigma: float = SCADA_SIGMA,
    pmu_sigma: float = PMU_SIGMA,
) -> MeasurementTemplate:
    """Noise-free measurement entries under a mask, in draw order: SCADA
    voltages by bus, then per PMU bus its voltage and incident-branch
    currents in branch order."""
    entries: List[Measurement] = []
    sigmas: List[float] = []

    def add(kind, bus, other, branch_index, value: complex, sigma: float):
        # Noise is drawn at the exact sigma; the recorded variance is floored
        # so weights stay positive.
        var = max(sigma, SIGMA_FLOOR) ** 2
        entries.append(
            Measurement(kind, bus, other, branch_index, value.real, value.imag, var, var)
        )
        sigmas.append(sigma)

    buses = sorted(true_state.bus_ids)
    for bus in buses:
        if mask.scada.get(bus, False):
            v = true_state.voltage(bus)
            add(KIND_SCADA_V, bus, None, None, v, scada_sigma * abs(v))

    incident = _incident_branches(grid)
    for bus in buses:
        if not mask.pmu.get(bus, False):
            continue
        v = true_state.voltage(bus)
        add(KIND_PMU_V, bus, None, None, v, pmu_sigma * abs(v))
        for branch_index in incident.get(bus, []):
            branch = grid.branches[branch_index]
            other = branch.to_bus if bus == branch.from_bus else branch.from_bus
            adm = admittance_from_branch(branch.r, branch.x, branch.b_sh)
            current = branch_current(adm, v, true_state.voltage(other))
            add(KIND_PMU_I, bus, other, branch_index, current, pmu_sigma * abs(current))
    return MeasurementTemplate(MeasurementSet(entries), np.array(sigmas, dtype=float))


def simulate_measurements(
    true_state: StateVector,
    grid: Grid,
    mask: AvailabilityMask,
    seed: int,
    scada_sigma: float = SCADA_SIGMA,
    pmu_sigma: float = PMU_SIGMA,
) -> MeasurementSet:
    """Draw one noisy measurement set under an availability mask.

    Deterministic in the seed: identical inputs reproduce the set exactly.
    Draw order is fixed (SCADA voltages by bus, then per PMU bus its voltage
    and incident-branch currents), so a wider mask is a superset of draws.
    """
    template = measurement_template(true_state, grid, mask, scada_sigma, pmu_sigma)
    noise = template.noise(seed)
    return MeasurementSet(
        [
            replace(m, z_r=m.z_r + noise[2 * k], z_i=m.z_i + noise[2 * k + 1])
            for k, m in enumerate(template.exact.entries)
        ]
    )


def build_system(
    measurements: MeasurementSet, grid: Grid
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the design matrix J, diagonal weight entries W, and the
    observation vector Z (two rows per measurement).  An empty set gives a
    system of no rows, in which every bus is unobservable."""
    bus_ids = grid.bus_ids
    col = {bus: 2 * i for i, bus in enumerate(bus_ids)}
    n_rows = 2 * len(measurements.entries)
    J = np.zeros((n_rows, 2 * len(bus_ids)))
    W = np.zeros(n_rows)
    Z = np.zeros(n_rows)
    for k, m in enumerate(measurements.entries):
        r0 = 2 * k
        Z[r0], Z[r0 + 1] = m.z_r, m.z_i
        W[r0], W[r0 + 1] = m.var_r, m.var_i
        if m.kind in (KIND_SCADA_V, KIND_PMU_V):
            c = col[m.bus]
            J[r0, c] = 1.0
            J[r0 + 1, c + 1] = 1.0
        else:
            branch = grid.branches[m.branch_index]
            adm = admittance_from_branch(branch.r, branch.x, branch.b_sh)
            rows = branch_current_rows(adm)
            ca, cb = col[m.bus], col[m.other_bus]
            J[r0 : r0 + 2, ca : ca + 2] = rows[:, 0:2]
            J[r0 : r0 + 2, cb : cb + 2] = rows[:, 2:4]
    return J, W, Z


def _svd(A: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``U, s, V^T`` of ``A`` and its rank, singular values above ``RANK_TOL``
    of the largest (or of 1).  ``V^T`` is square, so its rows past the rank
    span the null space; ``U`` is thin unless ``A`` has fewer rows than
    columns."""
    u, s, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    rank = int(np.count_nonzero(s > RANK_TOL * max(1.0, s.max(initial=0.0))))
    return u, s, vt, rank


def _null_space_buses(null_rows: np.ndarray, bus_ids: Sequence[int]) -> List[int]:
    """The buses whose voltage components some null-space row moves."""
    moved = (np.abs(null_rows) > 1e-6).reshape(len(null_rows), len(bus_ids), 2).any(axis=(0, 2))
    return sorted(bus for bus, hit in zip(bus_ids, moved) if hit)


def wls_solve(
    J: np.ndarray, W: np.ndarray, Z: np.ndarray, bus_ids: Sequence[int]
) -> Tuple[StateVector, float]:
    """Weighted least squares: minimize (Z - JV)' W^-1 (Z - JV).

    Solved through the scaled system W^-1/2 J V = W^-1/2 Z.  One SVD of
    it gives the rank, the null space and the solution; raises
    UnobservableError listing null-space buses when the design matrix loses
    column rank.
    """
    scale = 1.0 / np.sqrt(W)
    A = J * scale[:, None]
    y = Z * scale
    u, s, vt, rank = _svd(A)
    if rank < A.shape[1]:
        raise UnobservableError(_null_space_buses(vt[rank:], bus_ids))
    solution = vt.T @ ((u.T @ y) / s)
    residual = float(np.linalg.norm(A @ solution - y))
    return StateVector(list(bus_ids), solution), residual


def _anchor_rows(
    anchored: Sequence[int], bus_ids: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weak flat-start voltage rows (J, W, Z) for the anchored buses."""
    col = {bus: 2 * i for i, bus in enumerate(bus_ids)}
    J = np.zeros((2 * len(anchored), 2 * len(bus_ids)))
    for k, bus in enumerate(anchored):
        J[2 * k, col[bus]] = 1.0
        J[2 * k + 1, col[bus] + 1] = 1.0
    W = np.full(2 * len(anchored), ANCHOR_SIGMA**2)
    Z = np.tile([1.0, 0.0], len(anchored))
    return J, W, Z


def solve_with_anchors(
    measurements: MeasurementSet, grid: Grid
) -> Tuple[StateVector, float, List[int]]:
    """WLS solve that anchors unobservable buses at flat start.

    Returns (state, residual, anchored buses).  Anchors are weak (sigma
    0.5 pu) flat-start voltage rows added only for the undetermined buses.
    """
    J, W, Z = build_system(measurements, grid)
    bus_ids = grid.bus_ids
    try:
        state, residual = wls_solve(J, W, Z, bus_ids)
        return state, residual, []
    except UnobservableError as exc:
        anchored = exc.buses
    J_a, W_a, Z_a = _anchor_rows(anchored, bus_ids)
    state, residual = wls_solve(
        np.vstack([J, J_a]), np.concatenate([W, W_a]), np.concatenate([Z, Z_a]), bus_ids
    )
    return state, residual, anchored


@dataclass(frozen=True)
class ScaledSystem:
    """The seed-independent part of one mask's WLS solve.

    ``A`` is W^-1/2 J with the anchor rows appended; ``scale`` is W^-1/2 of
    the measurement rows and ``anchor_y`` the scaled anchor observations.
    """

    A: np.ndarray
    scale: np.ndarray
    anchor_y: np.ndarray
    anchored: List[int]


def analyse_system(measurements: MeasurementSet, grid: Grid) -> ScaledSystem:
    """Scale the design matrix and anchor its unobservable buses, once per mask.

    On the measurement graph, a bus is observable if it has a voltage entry or
    is the far end of a PMU current entry (whose bus must have a PMU voltage;
    the grid keeps admittances nonzero).  The rest are the null-space buses
    ``solve_with_anchors`` finds by SVD; once anchored, A has full column rank.
    """
    entries = measurements.entries
    orphans = {m.bus for m in entries if m.kind == KIND_PMU_I}
    orphans -= {m.bus for m in entries if m.kind == KIND_PMU_V}
    if orphans:
        raise EstimationError(f"PMU currents without a PMU voltage at buses {sorted(orphans)}")
    J, W, _ = build_system(measurements, grid)
    observed = {m.other_bus if m.kind == KIND_PMU_I else m.bus for m in entries}
    anchored = [bus for bus in grid.bus_ids if bus not in observed]
    J_a, W_a, Z_a = _anchor_rows(anchored, grid.bus_ids)
    scale = 1.0 / np.sqrt(W)
    scale_a = 1.0 / np.sqrt(W_a)
    A = np.vstack([J * scale[:, None], J_a * scale_a[:, None]])
    return ScaledSystem(A, scale, Z_a * scale_a, anchored)


def default_true_state(grid: Grid, seed: int = 42) -> StateVector:
    """Deterministic flat-start-perturbed operating point.

    Magnitudes sit in [0.97, 1.03] pu and angles in +/-[0.06, 0.15] rad, so
    every bus is measurably away from the 1+j0 flat start.
    """
    rng = np.random.default_rng(seed)
    bus_ids = grid.bus_ids
    mags = rng.uniform(0.97, 1.03, size=len(bus_ids))
    angles = rng.uniform(0.06, 0.15, size=len(bus_ids)) * rng.choice(
        [-1.0, 1.0], size=len(bus_ids)
    )
    return StateVector.from_complex(bus_ids, mags * np.exp(1j * angles))


@dataclass
class ComparisonResult:
    """Per-seed, per-bus absolute voltage errors for each model's mask.

    ``chi2[model]`` is each seed's weighted residual sum of squares; with
    weights that match the noise its mean is about ``rows[model] - cols``
    (the solved system's row count, anchor rows included, less the state
    dimension).
    """

    bus_ids: List[int]
    models: List[str]
    seeds: List[int]
    errors: Dict[str, np.ndarray]  # model -> (n_seeds, n_buses)
    anchored: Dict[str, Set[int]]  # model -> buses anchored in any seed
    chi2: Dict[str, np.ndarray]  # model -> (n_seeds,)
    rows: Dict[str, int]
    cols: int

    def mean_error(self, model: str) -> Dict[int, float]:
        means = self.errors[model].mean(axis=0)
        return {bus: float(means[i]) for i, bus in enumerate(self.bus_ids)}

    def errors_at(self, model: str, bus: int) -> np.ndarray:
        return self.errors[model][:, self.bus_ids.index(bus)]


def compare_models(
    grid: Grid,
    masks: Dict[str, AvailabilityMask],
    true_state: StateVector,
    seeds: Sequence[int],
) -> ComparisonResult:
    """Estimate under each model's mask with shared noise draws.

    For every seed one measurement set is drawn under the union of the
    masks; each model then keeps the entries its own mask retains, so a
    measurement surviving under both models carries identical noise and
    per-bus error differences isolate the masks' effect.

    The draws and decisions are those of ``simulate_measurements`` on the
    union mask followed by ``filtered`` and ``solve_with_anchors`` per
    seed, but each mask is analysed once and all its seeds are solved as
    the columns of one right-hand side.
    """
    models = sorted(masks)
    bus_ids = grid.bus_ids
    seeds = list(seeds)
    union = AvailabilityMask(
        scada={b: any(masks[m].scada.get(b, False) for m in models) for b in bus_ids},
        pmu={b: any(masks[m].pmu.get(b, False) for m in models) for b in bus_ids},
        pmu_equipped=frozenset().union(*(masks[m].pmu_equipped for m in models)),
    )
    template = measurement_template(true_state, grid, union)
    entries = template.exact.entries
    exact = np.array([(m.z_r, m.z_i) for m in entries], dtype=float).reshape(-1)
    observed = np.empty((exact.size, len(seeds)))  # one column per seed
    for column, seed in enumerate(seeds):
        observed[:, column] = exact + template.noise(seed)

    true_complex = true_state.as_complex()
    errors: Dict[str, np.ndarray] = {}
    anchored: Dict[str, Set[int]] = {}
    chi2: Dict[str, np.ndarray] = {}
    rows: Dict[str, int] = {}
    for model in models:
        keep = [k for k, m in enumerate(entries) if _delivered(m, masks[model])]
        system = analyse_system(MeasurementSet([entries[k] for k in keep]), grid)
        kept_rows = np.repeat(2 * np.array(keep, dtype=int), 2) + np.tile([0, 1], len(keep))
        Y = np.vstack(
            [
                observed[kept_rows] * system.scale[:, None],
                np.repeat(system.anchor_y[:, None], len(seeds), axis=1),
            ]
        )
        solution, _, _, _ = np.linalg.lstsq(system.A, Y, rcond=None)
        if not np.all(np.isfinite(solution)):
            raise EstimationError("state must be finite")
        estimate = solution[0::2] + 1j * solution[1::2]  # (n_buses, n_seeds)
        errors[model] = np.abs(estimate.T - true_complex)
        anchored[model] = set(system.anchored)
        chi2[model] = np.sum((system.A @ solution - Y) ** 2, axis=0)
        rows[model] = system.A.shape[0]
    return ComparisonResult(
        list(bus_ids), models, seeds, errors, anchored, chi2, rows, 2 * len(bus_ids)
    )


def write_errors_csv(result: ComparisonResult, path) -> None:
    """Per-bus, per-model summary: mean |error|, its standard error, flags."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bus", "model", "mean_abs_err", "std_err", "flagged_unobservable"])
        for model in result.models:
            errs = result.errors[model]
            means = errs.mean(axis=0)
            stderrs = errs.std(axis=0, ddof=1) / np.sqrt(errs.shape[0]) if errs.shape[0] > 1 else np.zeros(errs.shape[1])
            for i, bus in enumerate(result.bus_ids):
                writer.writerow(
                    [
                        bus,
                        model,
                        f"{means[i]:.9f}",
                        f"{stderrs[i]:.9f}",
                        int(bus in result.anchored[model]),
                    ]
                )
