"""Seeded scenario generators for the benchmark workloads.

Each workload is a fixed list of cells.  A cell pins the command, the mode
count and the nominal step count; the seed varies amplitude, mode band and
step count around the shipped scenarios' values, the band only where it
leaves the cost of a run unchanged.  Step counts move by at most 1% from the
nominal, so a new seed gives new inputs without moving the cost of a run.
Cells of one workload are sized to cost about the same per run, and each
workload has an odd number of cells, so the median run time lands inside one
cell's cluster and does not jump between cells as the number of completed
runs changes.
"""
from __future__ import annotations

import random

HORIZON = 1.0
# Linear-audit constants of the shipped `linear-audit` scenario: eta exceeds
# the radius loss 2*K0/(m0*(q-1)) + 4*M^2/m0 = 7.16, and M equals the
# manufactured speed's maximum 1 + amplitude*(offset + 1).
AUDIT_ETA = 8.16
AUDIT_DECAY = 4.08
MANUFACTURED = {"q": 1.5, "amplitude": 0.1, "offset": 2.0, "m0": 1.0, "M": 1.3}


def _steps(rng: random.Random, nominal: int) -> int:
    return nominal + rng.randint(-nominal // 100, nominal // 100)


def _doc(name, command, count, steps, initial, eta=2.0, grid=None, options=None):
    doc = {
        "name": name,
        "command": command,
        "basis": {"kind": "interval-dirichlet", "count": count},
        "initial": initial,
        "gevrey": {"s": 2.0, "eta": eta},
        "horizon": HORIZON,
        "grid": {"steps": steps, **(grid or {})},
    }
    if options is not None:
        doc["options"] = options
    return doc


def _band(rng, amplitude, decay, lo_top, hi_top):
    return {
        "family": {
            "amplitude": round(rng.uniform(*amplitude), 6),
            "decay": decay,
            "modes": [1, rng.randint(lo_top, hi_top)],
        }
    }


def _fixedpoint(name, count, steps, initial):
    return _doc(name, "fixedpoint", count, steps, initial,
                options={"tol": 1e-10, "max_iter": 30})


def fixedpoint_narrow(rng: random.Random) -> list[dict]:
    """Like the shipped two-mode or single-mode run, and the band-limited runs.

    The amplitude ranges keep the iteration count fixed for every seed: 4 for
    the 8-mode cell and 6 for the band-limited ones.
    """
    two_mode = {
        "position": [round(rng.uniform(0.08, 0.12), 6), round(rng.uniform(0.03, 0.07), 6)],
        "velocity": [round(rng.uniform(0.01, 0.03), 6)],
    }
    single_mode = {"position": [round(rng.uniform(0.08, 0.12), 6)], "velocity": []}
    return [
        _fixedpoint("narrow-n8", 8, _steps(rng, 4000), rng.choice([two_mode, single_mode])),
        _fixedpoint("narrow-band-n16", 16, _steps(rng, 3000),
                    _band(rng, (0.055, 0.06), 0.5, 6, 8)),
        _fixedpoint("narrow-band-n32", 32, _steps(rng, 3000),
                    _band(rng, (0.055, 0.06), 0.5, 6, 8)),
    ]


def fixedpoint_wide(rng: random.Random) -> list[dict]:
    """Band-limited data on 512 and 1024 modes: long vectors, large outputs.

    2200 steps keep c*sqrt(lambda)*dt under the 0.5 guard at 1024 modes for
    these amplitudes (c stays below 1.004).  The 1024-mode cell runs with two
    data sets, so the median lands inside one cell's cluster of run times.
    """
    return [
        _fixedpoint("wide-band-n512", 512, _steps(rng, 3600),
                    _band(rng, (0.015, 0.02), 0.5, 6, 8)),
        _fixedpoint("wide-band-n1024-a", 1024, _steps(rng, 2200),
                    _band(rng, (0.015, 0.02), 0.5, 6, 8)),
        _fixedpoint("wide-band-n1024-b", 1024, _steps(rng, 2200),
                    _band(rng, (0.015, 0.02), 0.5, 6, 8)),
    ]


def simulate(rng: random.Random) -> list[dict]:
    """Like the shipped conservation-n32 run, on 32 and 64 modes.

    Every mode is excited, as in the shipped run: the norm series skips zero
    modes, so a seeded band would move the cost of a run.  The 64-mode cell
    runs with two data sets, so the median lands inside one cell's cluster of
    run times.
    """
    return [
        _doc("simulate-n32", "simulate", 32, _steps(rng, 10000),
             _band(rng, (0.4, 0.5), 1.0, 32, 32)),
        _doc("simulate-n64-a", "simulate", 64, _steps(rng, 10000),
             _band(rng, (0.4, 0.5), 1.0, 64, 64)),
        _doc("simulate-n64-b", "simulate", 64, _steps(rng, 10000),
             _band(rng, (0.4, 0.5), 1.0, 64, 64)),
    ]


def linear_audit(rng: random.Random) -> list[dict]:
    """Graded grids and the manufactured speed of the shipped linear-audit run.

    Every mode is excited, as in the shipped run: a zero mode writes a CSV of
    short "0.0" fields, so a seeded band would move the cost of a run.
    """
    out = []
    for count, steps in ((16, 3000), (32, 2000), (64, 1000)):
        out.append(_doc(
            f"audit-n{count}", "linear-audit", count, _steps(rng, steps),
            _band(rng, (0.5, 1.0), AUDIT_DECAY, count, count),
            eta=AUDIT_ETA,
            grid={"grading_ratio": 0.9, "end_gap": 1e-9},
            options={"sigma": 1.0, "manufactured": dict(MANUFACTURED)},
        ))
    return out


WORKLOADS = {
    "fixedpoint-narrow": fixedpoint_narrow,
    "fixedpoint-wide": fixedpoint_wide,
    "simulate": simulate,
    "linear-audit": linear_audit,
}


def scenarios(workload: str, seed: int) -> list[dict]:
    """The workload's scenario documents for ``seed``; same seed, same documents."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
