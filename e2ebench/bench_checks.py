"""Correctness checks of the benchmark, computed apart from the fast paths.

Every check returns a list of problems (empty = pass), so the self-tests
can feed each one a deliberately broken output and assert that it fails.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np


# --------------------------------------------------------------------------- #
# paper_sweep
# --------------------------------------------------------------------------- #
def sensor_noise_bound(sensor_positions: np.ndarray, truth_positions: np.ndarray) -> float:
    """``max |sensor - truth|`` over a scenario's traces, in metres."""
    d = np.asarray(sensor_positions, float) - np.asarray(truth_positions, float)
    return float(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]).max())


def trace_hours(times: np.ndarray) -> float:
    """A trace's duration in hours, from its own timestamps."""
    return float(times[-1] - times[0]) / 3600.0


def check_sweep_points(points: Sequence[Dict[str, object]]) -> List[str]:
    """Each point: ``max_error <= us + noise`` and the updates/hour identity.

    A point is ``{"label", "us", "noise", "hours", "updates",
    "updates_per_hour", "max_error"}`` where ``noise`` and ``hours`` were
    computed by the benchmark from the scenario traces and the other
    fields were reported by the program.
    """
    problems = []
    for p in points:
        bound = p["us"] + p["noise"]
        if not p["max_error"] <= bound:
            problems.append(
                f"{p['label']}: max error {p['max_error']:.3f} m exceeds "
                f"us + max|sensor-truth| = {bound:.3f} m"
            )
        expected = p["updates"] / p["hours"]
        if not math.isclose(p["updates_per_hour"], expected, rel_tol=1e-12):
            problems.append(
                f"{p['label']}: updates/hour {p['updates_per_hour']!r} != "
                f"updates / trace hours {expected!r}"
            )
    return problems


def check_kernel_parity(pairs: Sequence[Tuple[str, int, int]]) -> List[str]:
    """``(label, tick updates, event updates)``: the counts must agree."""
    return [
        f"{label}: tick kernel sent {tick} updates, event kernel {event}"
        for label, tick, event in pairs
        if tick != event
    ]


# --------------------------------------------------------------------------- #
# megafleet_columnar
# --------------------------------------------------------------------------- #
def linear_dr_oracle(
    times: np.ndarray, positions: np.ndarray, accuracy: float, window: int = 4
) -> Tuple[np.ndarray, np.ndarray]:
    """Linear dead reckoning of a noise-free fleet, written from the paper.

    ``positions`` is ``(n, T, 2)``.  The source fits a least-squares
    velocity over its last ``window`` sightings, sends an update when the
    linear prediction deviates from the sighting by more than
    ``accuracy``, and the server's error is ``|prediction - truth|`` after
    that decision.  Returns ``(updates per lane, errors (n, T))``.
    """
    n, t_count, _ = positions.shape
    updates = np.zeros(n, dtype=np.int64)
    errors = np.empty((n, t_count))
    rep_pos = np.zeros((n, 2))
    rep_vel = np.zeros((n, 2))
    rep_t = np.zeros(n)
    for i in range(t_count):
        t = times[i]
        p = positions[:, i, :]
        lo = max(0, i - window + 1)
        if i == 0:
            vel = np.zeros((n, 2))
        else:
            tw = times[lo : i + 1] - times[i]
            tc = tw - tw.mean()
            denom = (tc * tc).sum()
            win = positions[:, lo : i + 1, :]
            centred = win - win.mean(axis=1, keepdims=True)
            vx = (tc * centred[:, :, 0]).sum(axis=1) / denom
            vy = (tc * centred[:, :, 1]).sum(axis=1) / denom
            vel = np.stack([vx, vy], axis=1)
        if i == 0:
            send = np.ones(n, dtype=bool)
        else:
            dt = t - rep_t
            pred = rep_pos + rep_vel * dt[:, None]
            dx = p[:, 0] - pred[:, 0]
            dy = p[:, 1] - pred[:, 1]
            send = np.sqrt(dx * dx + dy * dy) > accuracy
        rep_pos[send] = p[send]
        rep_vel[send] = vel[send]
        rep_t[send] = t
        updates += send
        pred = rep_pos + rep_vel * (t - rep_t)[:, None]
        dx = pred[:, 0] - p[:, 0]
        dy = pred[:, 1] - p[:, 1]
        errors[:, i] = np.sqrt(dx * dx + dy * dy)
    return updates, errors


def check_columnar_against_oracle(
    ids: Sequence[str],
    program_updates: Dict[str, int],
    program_errors: Dict[str, np.ndarray],
    oracle_updates: np.ndarray,
    oracle_errors: np.ndarray,
    accuracy: float,
) -> List[str]:
    """Per lane: same update count, error samples equal to 1e-6 m, all <= us."""
    problems = []
    for k, oid in enumerate(ids):
        if program_updates[oid] != int(oracle_updates[k]):
            problems.append(
                f"{oid}: engine sent {program_updates[oid]} updates, "
                f"NumPy oracle {int(oracle_updates[k])}"
            )
        err = np.asarray(program_errors[oid])
        if err.shape != oracle_errors[k].shape or not np.allclose(
            err, oracle_errors[k], rtol=0.0, atol=1e-6
        ):
            problems.append(f"{oid}: error samples differ from the NumPy oracle")
    worst = float(oracle_errors.max()) if oracle_errors.size else 0.0
    if worst > accuracy:
        problems.append(f"recomputed error {worst:.6f} m exceeds us = {accuracy} m")
    worst_program = max((float(np.max(e)) for e in program_errors.values()), default=0.0)
    if worst_program > accuracy:
        problems.append(f"engine error sample {worst_program:.6f} m exceeds us = {accuracy} m")
    return problems


def check_bitwise_lanes(
    columnar: Dict[str, Tuple[dict, np.ndarray]],
    scalar: Dict[str, Tuple[dict, np.ndarray]],
) -> List[str]:
    """Columnar lanes vs the scalar event loop: rows and errors bit for bit."""
    problems = []
    if list(columnar) != list(scalar):
        return ["columnar and scalar runs report different object ids"]
    for oid, (row, err) in columnar.items():
        srow, serr = scalar[oid]
        if row != srow:
            problems.append(f"{oid}: result row differs from the scalar event loop")
        elif not np.array_equal(err, serr):
            problems.append(f"{oid}: error samples differ from the scalar event loop")
    return problems


# --------------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------------- #
def linear_answer(kind: str, states: Dict[str, Tuple[float, float, float, float, float]],
                  call, workload):
    """One query answered with plain NumPy over linear-prediction states.

    ``states`` maps id -> ``(t, x, y, vx, vy)``, the last update each
    object reported.  Distances are ``sqrt(dx*dx + dy*dy)``; results are
    ordered by ``(distance, id)`` (range: by id).
    """
    ids = sorted(states)
    arr = np.array([states[i] for i in ids], dtype=float).reshape(-1, 5)
    dt = call.time - arr[:, 0]
    px = arr[:, 1] + arr[:, 3] * dt
    py = arr[:, 2] + arr[:, 4] * dt
    if kind == "range":
        half = workload.range_extent_m / 2.0
        x0, x1 = call.cx - half, call.cx + half
        y0, y1 = call.cy - half, call.cy + half
        inside = (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)
        return [ids[j] for j in np.nonzero(inside)[0]]
    dx = px - call.cx
    dy = py - call.cy
    d = np.sqrt(dx * dx + dy * dy)
    if kind == "nearest":
        order = sorted(range(len(ids)), key=lambda j: (d[j], ids[j]))[: workload.k]
    else:
        radius = workload.geofence_radius_m
        order = sorted(
            (j for j in range(len(ids)) if d[j] <= radius), key=lambda j: (d[j], ids[j])
        )
    return [(ids[j], float(d[j])) for j in order]


def check_served(
    batches_total: int,
    batches_accepted: int,
    queries_total: int,
    queries_answered: int,
    mismatches: Sequence[object],
    numpy_mismatches: Sequence[int],
) -> List[str]:
    problems = []
    if batches_accepted != batches_total:
        problems.append(
            f"{batches_total - batches_accepted} of {batches_total} batches not accepted")
    if queries_answered != queries_total:
        problems.append(f"{queries_total - queries_answered} of {queries_total} queries unanswered")
    if mismatches:
        problems.append(
            f"{len(mismatches)} served answers differ from the reference replay "
            f"(first call {mismatches[0][0]})"
        )
    if numpy_mismatches:
        problems.append(
            f"{len(numpy_mismatches)} sampled answers differ from the NumPy "
            f"recomputation (first call {numpy_mismatches[0]})"
        )
    return problems
