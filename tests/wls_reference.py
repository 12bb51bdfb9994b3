"""The per-seed WLS solve: the tests' reference for ``compare_models``.

``compare_models`` solves every seed of a mask with one batched
least-squares call and takes observability from the measurement graph.
This module solves one J, W, Z at a time instead: each solve takes the
rank, the null-space buses and the solution from one SVD, and
``solve_with_anchors`` appends ``estimation._anchor_rows`` for exactly the
null-space buses.  The batched-vs-per-seed oracles and the SVD-vs-graph
observability oracle compare the two paths.
"""

from typing import List, Sequence, Tuple

import numpy as np

from jointgrid.estimation import EstimationError, StateVector, _anchor_rows

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
