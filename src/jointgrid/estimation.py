"""Hybrid SCADA+PMU weighted least squares state estimation.

States are per-bus rectangular voltages (V_r, V_i), so voltage and branch
current measurements are both linear in the state and one weighted
least-squares solve recovers every bus voltage.  SCADA feeds one voltage
pseudo-measurement per delivered bus (the output of the conventional
estimation stage, carrying its error level); PMUs feed a precise voltage
measurement plus one current measurement per incident branch.

The noise is Gaussian, zero-mean, independent per rectangular
component: 3 percent of the local voltage magnitude for SCADA and 0.1
percent of the local signal magnitude for PMUs.  Weights are the inverse
per-component variances on a diagonal; cross-component covariance is
neglected.

Buses cut off from every measurement are anchored with a weak flat-start
pseudo-measurement (1+j0, sigma 0.5 pu) so the solve proceeds, and are
flagged in reports; under a mask that delivers nothing, every bus is.

The design matrix, the weights and observability depend only on the mask
and the true state, never on the noise.  ``measurement_template`` builds
them as whole arrays in one pass: per measurement entry its two rows of
the design matrix J (real and imaginary part), its exact values and floored
variances, its noise sigma, the flag that gates it and the bus whose
voltage it fixes.  ``compare_models`` builds one template for the union of
the masks and is the composition of two steps.  ``observations`` draws one
noise block for the run, one row of standard normals per seed.  ``solve``
then takes each mask's system as the row selection ``kept(mask)`` of the
template, scaled once by ``analyse_system``, which anchors every bus that no
kept entry fixes; all seeds of the mask are solved by one least-squares
call with one right-hand-side column per seed, and each seed's chi-square
is read from that call.  The per-seed reference it is tested against, one
SVD solve per J, W, Z, lives with the tests in ``tests/wls_reference.py``, as
do the per-entry admittance, branch-current and per-seed noise references.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import zip_longest
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from jointgrid.cascade import AvailabilityMask
from jointgrid.grid import Grid

SCADA_SIGMA = 0.03
PMU_SIGMA = 0.001
SIGMA_FLOOR = 1e-6
ANCHOR_SIGMA = 0.5


class EstimationError(ValueError):
    pass


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

    def as_complex(self) -> np.ndarray:
        return self.values[0::2] + 1j * self.values[1::2]

    @staticmethod
    def from_complex(bus_ids: Sequence[int], voltages: Sequence[complex]) -> "StateVector":
        values = np.empty(2 * len(bus_ids))
        values[0::2] = np.real(voltages)
        values[1::2] = np.imag(voltages)
        return StateVector(list(bus_ids), values)


@dataclass(frozen=True)
class MeasurementTemplate:
    """The noise-free measurements under one mask as arrays, in draw order.

    Entry k owns rows 2k (real part) and 2k+1 (imaginary part) of the design
    matrix ``J``, of the exact ``values`` and of the ``variances``: its noise
    variance, floored at ``SIGMA_FLOOR`` so weights stay positive.  Per entry,
    ``sigmas`` holds the noise sigma before flooring (zero allowed); ``pmu``
    and ``bus`` name the flag that gates it (the PMU flag of that bus, else
    its SCADA flag); ``fixes`` is the bus whose voltage it fixes: its own bus
    for a voltage, the far end for a branch current.  Nothing here depends
    on the seed.
    """

    J: np.ndarray
    values: np.ndarray
    variances: np.ndarray
    sigmas: np.ndarray
    pmu: np.ndarray
    bus: np.ndarray
    fixes: np.ndarray

    def kept(self, mask: AvailabilityMask) -> np.ndarray:
        """One boolean per row: whether its entry's gating flag is set under
        ``mask``."""
        delivered = [
            (mask.pmu if pmu else mask.scada).get(bus, False)
            for pmu, bus in zip(self.pmu.tolist(), self.bus.tolist())
        ]
        return np.repeat(np.array(delivered, dtype=bool), 2)


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
    """The measurement entries under a mask, in draw order: SCADA voltages
    by bus, then per PMU bus its voltage and incident-branch currents in
    branch order.  A narrower mask's entries are a subset of these, in the
    same order, so its system is a row selection (``kept``) of this one.

    The entries are listed in Python, then ``J``, the values and the
    sigmas are written as whole arrays.  The true state must list the grid's
    buses in the grid's order, as the estimates do."""
    buses = grid.bus_ids
    if list(true_state.bus_ids) != buses:
        pairs = enumerate(zip_longest(true_state.bus_ids, buses, fillvalue="none"))
        k, (got, want) = next((k, pair) for k, pair in pairs if pair[0] != pair[1])
        raise EstimationError(f"true state buses differ from the grid's at position {k}: {got}, not {want}")
    incident = _incident_branches(grid)
    entries = [(False, bus, bus, -1) for bus in buses if mask.scada.get(bus, False)]
    for bus in buses:
        if mask.pmu.get(bus, False):
            entries.append((True, bus, bus, -1))
            for index in incident.get(bus, []):
                branch = grid.branches[index]
                other = branch.to_bus if bus == branch.from_bus else branch.from_bus
                entries.append((True, bus, other, index))
    pmu, bus, fixes, branch = np.array(entries, dtype=int).reshape(-1, 4).T
    pmu, current = pmu.astype(bool), branch >= 0

    # The state follows the grid's bus order: a bus's state row is its column / 2.
    col = {b: 2 * i for i, b in enumerate(buses)}
    own, far = (np.array([col[b] for b in ids.tolist()], dtype=int) for ids in (bus, fixes))
    # Per entry [V_r, V_i] of its bus, then of the bus it fixes.
    state = true_state.values.reshape(-1, 2)
    ends = np.concatenate([state[own // 2], state[far // 2]], axis=1)
    r, x, b_sh = np.array([(br.r, br.x, br.b_sh) for br in grid.branches]).reshape(-1, 3)[branch[current]].T
    den = r * r + x * x
    if not den.all():
        raise EstimationError("singular branch: r = x = 0")
    # tests/wls_reference.py's admittance_from_branch (g0 = 0, b0 = b_sh / 2), then branch_current_rows.
    g, b = r / den, -x / den
    gg, bb = g + 0.0, b + b_sh / 2.0
    rows = np.stack([np.stack([gg, -bb, -g, b], -1), np.stack([bb, gg, -b, -g], -1)], 1)
    values = ends[:, 0:2].copy()  # a voltage entry's value is its bus voltage
    values[current] = np.matmul(rows, ends[current, :, None])[:, :, 0]  # branch_current, batched

    J = np.zeros((2 * len(entries), 2 * len(col)))
    voltage = 2 * np.flatnonzero(~current)
    J[voltage, own[~current]] = J[voltage + 1, own[~current] + 1] = 1.0
    two_rows, pair = 2 * np.flatnonzero(current)[:, None, None] + np.array([[0], [1]]), np.array([0, 1])
    J[two_rows, own[current, None, None] + pair] = rows[:, :, 0:2]
    J[two_rows, far[current, None, None] + pair] = rows[:, :, 2:4]
    # |V| and |I| as abs() of a complex, which np.hypot matches bit for bit.
    sigmas = np.where(pmu, pmu_sigma, scada_sigma) * np.hypot(values[:, 0], values[:, 1])
    # Noise is drawn at the exact sigma; the variance is floored so weights
    # stay positive (float_power is the libm pow of Python's ``** 2``).
    variances = np.repeat(np.float_power(np.maximum(sigmas, SIGMA_FLOOR), 2), 2)
    return MeasurementTemplate(J, values.reshape(-1), variances, sigmas, pmu, bus, fixes)


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


def analyse_system(
    template: MeasurementTemplate, rows: np.ndarray, bus_ids: Sequence[int]
) -> ScaledSystem:
    """Scale the template's ``rows`` (a mask's ``template.kept(mask)``) and
    anchor their unobservable buses, once per mask.

    On the measurement graph, a bus is observable if some kept entry fixes
    it: a voltage fixes its own bus, a PMU current its far end (its own bus
    has the PMU voltage gated by the same flag, and the grid keeps
    admittances nonzero).  The rest are the null-space buses of the
    unanchored system; once anchored, A has full column rank.
    """
    fixed = set(template.fixes[rows[0::2]].tolist())
    anchored = [bus for bus in bus_ids if bus not in fixed]
    J_a, W_a, Z_a = _anchor_rows(anchored, bus_ids)
    scale = 1.0 / np.sqrt(template.variances[rows])
    scale_a = 1.0 / np.sqrt(W_a)
    A = np.vstack([template.J[rows] * scale[:, None], J_a * scale_a[:, None]])
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
    anchored: Dict[str, Set[int]]  # model -> buses no entry of its mask fixes: anchored in every seed
    chi2: Dict[str, np.ndarray]  # model -> (n_seeds,)
    rows: Dict[str, int]
    cols: int


def observations(template: MeasurementTemplate, seeds: Sequence[int]) -> np.ndarray:
    """Every seed's observed values: column k is bit for bit ``template.values
    + noise(template, seeds[k])`` (``tests/wls_reference.py``).  Each seed's
    standard normals fill one row of one block, scaled in place as
    ``normal(0.0, sigma)`` scales them: ``0.0 + sigma * z``."""
    block = np.empty((len(seeds), template.values.size))
    for row, seed in zip(block, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    block *= np.repeat(template.sigmas, 2)
    block += 0.0
    block += template.values
    return block.T


def solve(
    template: MeasurementTemplate, kept: np.ndarray, observed: np.ndarray, bus_ids: Sequence[int]
) -> Tuple[ScaledSystem, np.ndarray, np.ndarray]:
    """One mask's system (its ``kept`` rows of the template, analysed once),
    the solution of every seed's column of ``observed`` by one least-squares
    call, and each seed's chi-square (weighted residual sum of squares).
    ``lstsq`` returns the chi-square unless the system is square, as under a
    mask that delivers nothing, where it is computed here.  A solution or
    chi-square that is not finite raises ``EstimationError``."""
    system = analyse_system(template, kept, bus_ids)
    anchors = np.repeat(system.anchor_y[:, None], observed.shape[1], axis=1)
    Y = np.vstack([observed[kept] * system.scale[:, None], anchors])
    solution, chi2, _, _ = np.linalg.lstsq(system.A, Y, rcond=None)
    if not np.all(np.isfinite(solution)):
        raise EstimationError("state must be finite")
    if chi2.size == 0:
        chi2 = np.sum((system.A @ solution - Y) ** 2, axis=0)
    if not np.all(np.isfinite(chi2)):
        raise EstimationError("chi-square must be finite")
    return system, solution, chi2


def compare_models(
    grid: Grid,
    masks: Dict[str, AvailabilityMask],
    true_state: StateVector,
    seeds: Sequence[int],
) -> ComparisonResult:
    """Estimate under each model's mask with shared noise draws.

    For every seed one measurement set is drawn under the union of the
    masks (``observations``); each model then keeps the entries its own mask
    retains, so a measurement surviving under both models carries identical
    noise and per-bus error differences isolate the masks' effect.

    The draws and decisions are those of a per-seed anchored solve on the
    kept rows of the union mask's template, but each mask is analysed once
    and all its seeds are solved as the columns of one right-hand side.
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
    observed = observations(template, seeds)

    true_complex = true_state.as_complex()
    errors: Dict[str, np.ndarray] = {}
    anchored: Dict[str, Set[int]] = {}
    chi2: Dict[str, np.ndarray] = {}
    rows: Dict[str, int] = {}
    for model in models:
        system, solution, chi2[model] = solve(template, template.kept(masks[model]), observed, bus_ids)
        estimate = solution[0::2] + 1j * solution[1::2]  # (n_buses, n_seeds)
        errors[model] = np.abs(estimate.T - true_complex)
        anchored[model] = set(system.anchored)
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
