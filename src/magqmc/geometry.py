"""Electron-nucleus and electron-electron distances of a batch of configurations.

One pass per evaluation feeds the potential, the coincidence mask and the
correlation factor. Pairs are kept once, in ``np.triu_indices(N, 1)`` order
(i < j, row by row); no (W, N, N, 3) difference tensor is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Distances:
    ri: np.ndarray   # (..., N) electron-nucleus distances
    rij: np.ndarray  # (..., N(N-1)/2) pair distances; empty at N = 1


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of every pair i < j, in the order of ``Distances.rij``."""
    return np.triu_indices(n, k=1)


def distances(r: np.ndarray) -> Distances:
    """Distances of configurations ``r`` of shape (..., N, 3)."""
    ri = np.sqrt(np.einsum("...ik,...ik->...i", r, r))
    rows = []
    for i in range(r.shape[-2] - 1):
        d = r[..., i + 1:, :] - r[..., i, None, :]
        rows.append(np.einsum("...jk,...jk->...j", d, d))
    rij = np.sqrt(np.concatenate(rows, axis=-1)) if rows else np.empty(r.shape[:-2] + (0,))
    return Distances(ri, rij)
