"""Shot sampling: measurement statistics from state vectors.

Bitstrings use qubit 0 as the most significant bit, matching
:mod:`repro.sim.operators`.  Observable estimators mirror how the paper's
real-device metrics are computed from 1000-shot histograms.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "sample_bitstrings",
    "sample_column_bitstrings",
    "counts_from_samples",
    "apply_readout_error",
    "z_average_from_samples",
    "zz_average_from_samples",
]


def sample_bitstrings(
    state: np.ndarray,
    shots: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample measurement outcomes; returns an ``(shots, N)`` 0/1 array.

    Uses inverse-transform sampling (cumulative sum + binary search):
    one ``rng.random`` draw per shot and an ``O(shots · log dim)``
    lookup, markedly cheaper than ``rng.choice(..., p=...)`` which
    rebuilds its alias structures on every call.
    """
    if shots < 1:
        raise SimulationError("shots must be >= 1")
    rng = rng if rng is not None else np.random.default_rng()
    probabilities = np.abs(np.asarray(state)) ** 2
    total = probabilities.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        raise SimulationError(f"state norm² is {total:.6f}, expected 1")
    cdf = np.cumsum(probabilities)
    cdf /= cdf[-1]
    num_qubits = int(round(np.log2(len(probabilities))))
    outcomes = np.searchsorted(cdf, rng.random(shots), side="right")
    bits = (
        (outcomes[:, None] >> np.arange(num_qubits - 1, -1, -1)) & 1
    ).astype(np.int8)
    return bits


def sample_column_bitstrings(
    states: np.ndarray,
    shots_per_column: Sequence[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """``shots_per_column[j]`` outcomes of column ``j`` of a ``(2^N, k)``
    block, stacked in column order as one ``(Σ shots, N)`` 0/1 array.

    One pass over the block: one ``|ψ|²``, one ``cumsum`` per column
    (its last entry is the norm² that is checked) and one
    ``rng.random`` draw split in column order, then a ``searchsorted``
    per column and one bit unpack.  The sums and the draw run in the
    order of per-column :func:`sample_bitstrings` calls, so the samples
    are bit-identical to them.
    """
    shots = np.asarray(shots_per_column, dtype=np.int64)
    if shots.shape != (states.shape[1],):
        raise SimulationError(
            f"{shots.size} shot counts for {states.shape[1]} state columns"
        )
    if (shots < 1).any():
        raise SimulationError("shots must be >= 1")
    # One CDF per row of a C-ordered (k, 2^N) array, so each lookup
    # searches contiguous memory; the last entry is the norm².
    cdf = np.cumsum(
        (np.abs(states) ** 2).T, axis=1, out=np.empty(states.shape[::-1])
    )
    totals = cdf[:, -1].copy()
    off = np.flatnonzero(~np.isclose(totals, 1.0, atol=1e-6))
    if off.size:
        raise SimulationError(
            f"state norm² of column {off[0]} is {totals[off[0]]:.6f}, "
            "expected 1"
        )
    cdf /= totals[:, None]
    draws = np.split(rng.random(int(shots.sum())), np.cumsum(shots)[:-1])
    outcomes = np.concatenate(
        [
            np.searchsorted(row, draw, side="right")
            for row, draw in zip(cdf, draws)
        ]
    )
    num_qubits = int(round(np.log2(states.shape[0])))
    return (
        (outcomes[:, None] >> np.arange(num_qubits - 1, -1, -1)) & 1
    ).astype(np.int8)


def counts_from_samples(samples: np.ndarray) -> Dict[str, int]:
    """Histogram of sampled bitstrings, keys like ``"0110"``.

    Rows are packed into integer codes and histogrammed with
    :func:`numpy.unique`; only the (few) distinct outcomes are formatted
    as strings — no per-row Python join.
    """
    samples = np.asarray(samples)
    num_qubits = samples.shape[1]
    weights = 1 << np.arange(num_qubits - 1, -1, -1, dtype=np.int64)
    codes = samples.astype(np.int64) @ weights
    values, counts = np.unique(codes, return_counts=True)
    return {
        np.binary_repr(value, width=num_qubits): int(count)
        for value, count in zip(values, counts)
    }


def apply_readout_error(
    samples: np.ndarray,
    p01: float,
    p10: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Flip measured bits with asymmetric SPAM probabilities.

    ``p01`` is the probability of reading 1 when the state was 0;
    ``p10`` the reverse.
    """
    if not (0 <= p01 <= 1 and 0 <= p10 <= 1):
        raise SimulationError("readout probabilities must be in [0, 1]")
    rng = rng if rng is not None else np.random.default_rng()
    random = rng.random(samples.shape)
    flip = np.where(samples == 0, random < p01, random < p10)
    return np.where(flip, 1 - samples, samples).astype(np.int8)


def z_average_from_samples(samples: np.ndarray) -> float:
    """``(1/N) Σ_i ⟨Z_i⟩`` estimated from shots (Z = +1 for bit 0)."""
    z_values = 1.0 - 2.0 * samples
    return float(z_values.mean())


def zz_average_from_samples(
    samples: np.ndarray, periodic: bool = True
) -> float:
    """``(1/N) Σ_i ⟨Z_i Z_{i+1}⟩`` estimated from shots."""
    z_values = 1.0 - 2.0 * samples.astype(float)
    n = z_values.shape[1]
    if n < 2:
        raise SimulationError("ZZ average needs at least 2 qubits")
    pairs = [(i, i + 1) for i in range(n - 1)]
    if periodic and n > 2:
        pairs.append((n - 1, 0))
    correlations = [
        (z_values[:, i] * z_values[:, j]).mean() for i, j in pairs
    ]
    return float(np.mean(correlations))
