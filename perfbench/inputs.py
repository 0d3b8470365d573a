"""Seeded inputs of every workload.

Each generator takes the workload seed and returns plain data (numbers,
strings, request payloads); the program only ever sees these generated
inputs.  The seed moves parameters, grid endpoints and ordering, while
model sizes are drawn from fixed strata, so every seed asks for about
the same amount of work and the end-to-end figures of two seeds are
comparable.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

# ---------------------------------------------------------------------------
# threshold-sweep: Figure 4/5-style power-down-threshold sweeps
# ---------------------------------------------------------------------------

#: grid points per threshold sweep
THRESHOLD_POINTS = 240
#: metrics of every threshold sweep (steady state)
THRESHOLD_METRICS = ["power", "fraction:standby"]


def threshold_sweep(seed: int) -> List[Dict[str, Any]]:
    """Three templates (power-up delay ``D``, arrival rate ``AR``), each
    swept over ``THRESHOLD_POINTS`` thresholds ``T``.

    ``AR`` comes from three adjacent strata, so the queue truncation the
    backend sizes from it (31-33, a 1,056-1,122-state chain) stays within
    a few percent across seeds.  The strata start at ``AR = 1.0``: below
    it the truncation drops to 30, where the sparse LU runs about three
    times slower, and a seed landing there would move the figures.
    """
    rng = random.Random(f"threshold-sweep/{seed}")
    delays = [rng.uniform(0.001, 0.01), rng.uniform(0.02, 0.1),
              rng.uniform(0.1, 0.3)]
    rng.shuffle(delays)
    sweeps = []
    for i, (lo, hi) in enumerate([(1.0, 1.2), (1.2, 1.4), (1.4, 1.6)]):
        sweeps.append({
            "D": round(delays[i], 6),
            "AR": round(rng.uniform(lo, hi), 6),
            "T": [round(rng.uniform(0.05, 0.15), 6),
                  round(rng.uniform(1.5, 2.5), 6), THRESHOLD_POINTS],
        })
    rng.shuffle(sweeps)
    return sweeps


# ---------------------------------------------------------------------------
# model-scan: GSPN models built fresh, then swept over a short rate grid
# ---------------------------------------------------------------------------

CPU_GSPN_METRICS = ["throughput:SR", "throughput:AR", "mean_tokens:Stand_By"]
WSN_METRICS = ["throughput:arr0", "throughput:snd0", "throughput:rel0",
               "mean_tokens:buf0"]
#: cpu-gspn capacities of the scan
CPU_GSPN_BUFFERS = [25, 32, 39, 46, 53, 60]
#: wsn-cluster buffer of the scan
WSN_BUFFER = 8


def model_scan(seed: int) -> List[Dict[str, Any]]:
    """``cpu-gspn`` at six capacities spanning 25-60, then ``wsn-cluster``
    under the ``auto`` solver choice and under ``gmres`` (two points each;
    ``auto`` costs about 0.33 s a point there, ``gmres`` a tenth of it).

    Capacities and order are fixed; the seed picks the rate grids.  Build
    cost grows steeply with capacity, so a seeded capacity would move the
    figures more than most code changes.  A pass takes about 2 s, so a run
    times each sweep ten times or more and its best time is steady.  The
    order is fixed because the worker's peak RSS depends on it (which
    large allocation comes after which), by about 12% between orders.
    """
    rng = random.Random(f"model-scan/{seed}")
    scans: List[Dict[str, Any]] = []
    for buffer in CPU_GSPN_BUFFERS:
        ar_lo = round(rng.uniform(0.1, 0.3), 6)
        ar_hi = round(rng.uniform(1.5, 2.5), 6)
        scans.append({
            "net": "cpu-gspn",
            "buffer": buffer,
            "method": "auto",
            "axes": {
                "AR": [ar_lo + (ar_hi - ar_lo) * i / 7 for i in range(8)],
                "PDT": sorted([round(rng.uniform(1.5, 3.0), 6),
                               round(rng.uniform(4.0, 8.0), 6)]),
            },
            "metrics": CPU_GSPN_METRICS,
        })
    for method in ("auto", "gmres"):
        lo = rng.uniform(0.4, 0.6)
        hi = rng.uniform(1.0, 1.2)
        scans.append({
            "net": "wsn-cluster",
            "buffer": WSN_BUFFER,
            "method": method,
            "axes": {"arr0": [lo, hi]},
            "metrics": WSN_METRICS,
        })
    return scans


def _axis(name: str, lo: float, hi: float, n: int) -> str:
    return f"{name}={lo:.6g}:{hi:.6g}:{n}"


# ---------------------------------------------------------------------------
# cli-oneshot: a script of one-shot `python -m repro` processes
# ---------------------------------------------------------------------------


def cli_script(seed: int) -> List[Dict[str, Any]]:
    """About ten CLI invocations in a seeded order.

    Each entry holds ``argv`` (after ``python -m repro``; ``{pickle}`` and
    ``{http}`` stand for the set-up daemon's addresses) and ``expect``,
    what the check compares the printed table against.
    """
    rng = random.Random(f"cli-oneshot/{seed}")

    def t_axis(n: int) -> str:
        return _axis("T", rng.uniform(0.05, 0.15), rng.uniform(1.5, 2.5), n)

    d_paper = f"D={rng.uniform(0.01, 0.1):.6g}"
    # AR in [1.02, 1.18] keeps the --stages 32 chain at truncation 31
    # (1,056 states): the batched solve's memory grows with it
    ar = f"AR={rng.uniform(1.02, 1.18):.6g}"
    paper = ["--stages", "2", "--n-max", "10"]
    metrics = ["--metric", "power", "--metric", "fraction:standby"]
    script: List[Dict[str, Any]] = [
        {"name": "sweep-paper",
         "argv": ["sweep", "--model", "phase-type", *paper, "--param", d_paper,
                  "--rate", t_axis(200), *metrics, "--quiet"],
         "expect": "table"},
        {"name": "sweep-batched-32",
         "argv": ["sweep", "--model", "phase-type", "--batched",
                  "--param", ar, "--rate", t_axis(60), *metrics, "--quiet"],
         "expect": "table"},
        {"name": "sweep-cpu-gspn",
         "argv": ["sweep", "--net", "cpu-gspn",
                  "--rate", _axis("AR", rng.uniform(0.1, 0.3),
                                  rng.uniform(1.5, 2.5), 8),
                  "--rate", f"PDT={rng.uniform(1.5, 3):.6g},"
                            f"{rng.uniform(4, 8):.6g}",
                  "--quiet"],
         "expect": "table"},
        {"name": "sweep-distributed",
         "argv": ["sweep", "--model", "phase-type", "--distributed",
                  "--shards", "2", "--param", ar, "--rate", t_axis(120),
                  *metrics, "--quiet"],
         "expect": "table"},
        {"name": "sweep-distributed-batched",
         "argv": ["sweep", "--model", "phase-type-batched", *paper,
                  "--distributed", "--shards", "2", "--param", d_paper,
                  "--rate", t_axis(200), *metrics, "--quiet"],
         "expect": "table"},
        {"name": "lint-cpu-gspn",
         "argv": ["lint", "--net", "cpu-gspn"], "expect": "lint"},
        {"name": "lint-wsn-cluster",
         "argv": ["lint", "--net", "wsn-cluster"], "expect": "lint"},
        {"name": "query-sweep",
         "argv": ["query", "--connect", "{pickle}", "--op", "sweep",
                  "--model", "phase-type-batched", *paper, "--param", d_paper,
                  "--axis", t_axis(50), *metrics],
         "expect": "table"},
        {"name": "query-steady-http",
         "argv": ["query", "--connect", "{http}", "--http", "--op", "steady",
                  "--model", "phase-type", *paper, "--param", d_paper],
         "expect": "steady"},
        {"name": "sweep-paper-ar",
         "argv": ["sweep", "--model", "phase-type", *paper, "--param", ar,
                  "--rate", t_axis(200), *metrics, "--quiet"],
         "expect": "table"},
    ]
    rng.shuffle(script)
    return script
