"""The per-entry and per-seed references for ``jointgrid.estimation``.

``measurement_template`` writes every measurement of a mask as whole
arrays.  The per-entry references it is checked against live here: a
branch's admittance (``admittance_from_branch``), its current coefficient
rows (``branch_current_rows``) and current (``branch_current``), one
seed's noise (``noise``, one draw over all entries) and one bus's voltage
(``voltage``).

``compare_models`` solves every seed of a mask with one batched
least-squares call and takes observability from the measurement graph.
This module solves one J, W, Z at a time instead: each solve takes the
rank, the null-space buses and the solution from one SVD, and
``solve_with_anchors`` appends ``estimation._anchor_rows`` for exactly the
null-space buses.  The batched-vs-per-seed oracles and the SVD-vs-graph
observability oracle compare the two paths.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from jointgrid.estimation import EstimationError, MeasurementTemplate, StateVector, _anchor_rows


def voltage(state: StateVector, bus: int) -> complex:
    i = state.bus_ids.index(bus)
    return complex(state.values[2 * i], state.values[2 * i + 1])


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


def noise(template: MeasurementTemplate, seed: int) -> np.ndarray:
    """Interleaved [r, i] noise of every entry for one seed.

    One draw over all entries yields the same stream as one size-2 draw
    per entry in order.
    """
    return np.random.default_rng(seed).normal(0.0, np.repeat(template.sigmas, 2))


RANK_TOL = 1e-8


class UnobservableError(EstimationError):
    """The design matrix is rank deficient; carries the undetermined buses."""

    def __init__(self, buses: Sequence[int]):
        super().__init__(f"unobservable state at buses {sorted(buses)}")
        self.buses = sorted(buses)


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


def solve_with_anchors(
    J: np.ndarray, W: np.ndarray, Z: np.ndarray, bus_ids: Sequence[int]
) -> Tuple[StateVector, float, List[int]]:
    """WLS solve that anchors unobservable buses at flat start.

    Returns (state, residual, anchored buses).  Anchors are weak (sigma
    0.5 pu) flat-start voltage rows added only for the undetermined buses.
    """
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
