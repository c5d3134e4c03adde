"""Arrival processes: deterministic request-time generation for traces.

A deployment serving "millions of users" is not exercised by one attack
accumulating a pool — it sees *traffic*: requests arriving over a time
horizon with a shape. This module is the registry of those shapes. Each
arrival process is a vectorized sampler ``(rng, n_events, horizon) ->
float64 times`` returning ``n_events`` arrival instants in
``[0, horizon)``, sorted ascending, fully determined by the generator it
is handed — the property every downstream determinism proof (sharded ==
serial replay, trace round-trips) rests on.

The league of registered processes:

``poisson``
    A homogeneous Poisson process conditioned on its event count: given
    ``N`` arrivals in ``[0, horizon)``, the instants are distributed as
    ``N`` iid uniforms, order statistics sorted — the textbook
    conditional construction, exact and O(n).
``bursty``
    Flash-crowd traffic: ``n_bursts`` centers drawn uniformly over the
    horizon, each event attached to a random center plus exponential
    jitter — heavy short-range correlation, the worst case for a cache
    bound and for per-shard load balance.
``diurnal``
    A sinusoidal day/night intensity ``λ(t) ∝ 1 + depth·sin(2πt/period)``
    sampled by inverse-CDF over a dense grid — smooth long-range
    non-stationarity, the shape real serving dashboards show.
"""

from __future__ import annotations

import numpy as np

from repro.utils.registry import Registry
from repro.exceptions import ValidationError
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["ARRIVALS", "poisson_arrivals", "bursty_arrivals", "diurnal_arrivals"]

#: Arrival-process samplers, keyed by short name. Each entry is a
#: callable ``(rng, n_events, horizon, **params) -> np.ndarray`` of
#: sorted float64 arrival times in ``[0, horizon)``.
ARRIVALS = Registry("arrival process")


def _check_args(n_events: int, horizon: float) -> float:
    check_positive_int(n_events, name="n_events")
    horizon = float(horizon)
    if not horizon > 0.0:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    return horizon


@ARRIVALS.register("poisson")
def poisson_arrivals(
    rng: np.random.Generator, n_events: int, horizon: float
) -> np.ndarray:
    """Homogeneous Poisson arrivals, conditioned on the event count."""
    horizon = _check_args(n_events, horizon)
    times = rng.uniform(0.0, horizon, size=n_events)
    times.sort()
    return times


@ARRIVALS.register("bursty")
def bursty_arrivals(
    rng: np.random.Generator,
    n_events: int,
    horizon: float,
    *,
    n_bursts: int = 10,
    spread: float = 0.01,
) -> np.ndarray:
    """Flash-crowd arrivals clustered around random burst centers.

    ``spread`` is the exponential jitter scale as a fraction of the
    horizon; smaller means sharper spikes.
    """
    horizon = _check_args(n_events, horizon)
    check_positive_int(n_bursts, name="n_bursts")
    check_in_range(spread, name="spread", low=0.0)
    centers = rng.uniform(0.0, horizon, size=n_bursts)
    assignment = rng.integers(0, n_bursts, size=n_events)
    jitter = rng.exponential(scale=spread * horizon, size=n_events)
    # Fold overshoot back into the horizon so the support stays exact.
    times = np.mod(centers[assignment] + jitter, horizon)
    times.sort()
    return times


@ARRIVALS.register("diurnal")
def diurnal_arrivals(
    rng: np.random.Generator,
    n_events: int,
    horizon: float,
    *,
    period: "float | None" = None,
    depth: float = 0.8,
    grid: int = 4096,
) -> np.ndarray:
    """Day/night arrivals from a sinusoidal intensity, via inverse CDF.

    ``period`` defaults to the horizon (one full day per trace);
    ``depth`` in ``[0, 1)`` sets the peak-to-trough contrast.
    """
    horizon = _check_args(n_events, horizon)
    if not 0.0 <= depth < 1.0:
        raise ValidationError(f"depth must lie in [0, 1), got {depth}")
    check_positive_int(grid, name="grid")
    period = horizon if period is None else float(period)
    if not period > 0.0:
        raise ValidationError(f"period must be positive, got {period}")
    t = np.linspace(0.0, horizon, grid + 1)
    intensity = 1.0 + depth * np.sin(2.0 * np.pi * t / period)
    cdf = np.concatenate([[0.0], np.cumsum((intensity[1:] + intensity[:-1]) / 2.0)])
    cdf /= cdf[-1]
    times = np.interp(rng.uniform(0.0, 1.0, size=n_events), cdf, t)
    times.sort()
    return times
