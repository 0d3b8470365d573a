"""Fresh-process worker of the library sweep workloads.

``threshold-sweep`` and ``model-scan`` run here, in a process the
orchestrator just launched, so imports and template builds are paid as a
user pays them.  The worker writes one JSON record to ``--out``:

- ``setup_s``: launch (``--t-spawn``, a ``time.monotonic`` reading of the
  parent) to the first timed operation;
- the timed phase: whole passes over the seeded sweep list until
  ``--seconds`` have passed, each sweep timed from its template build
  through every point and checked against its reference; ``sweep_s``
  holds one list of sweep times per untraced pass, ``points_ok`` the
  correct points of each;
- with ``--trace 1``, passes alternate untraced and traced; the traced
  ones carry the per-layer shims and a ``repro.obs`` trace.

Usage (normally through ``run.py``)::

    python perfbench/sweep_worker.py --workload threshold-sweep --seed 1 \\
        --seconds 10 --trace 0 --t-spawn 123.4 --out result.json
"""

from __future__ import annotations

import argparse
import gc
import math
import resource
import sys
import time

import numpy as np

from repro import obs
from repro.core.params import CPUModelParams
from repro.sweep import (
    PhaseTypeBackend,
    RenewalBackend,
    SweepGrid,
    SweepRunner,
    build_cpu_gspn_net,
    build_wsn_cluster_net,
)

import inputs  # noqa: E402
import layers  # noqa: E402
from common import write_json  # noqa: E402

#: Erlang-32 against the exact renewal closed form: measured worst case
#: 0.6% on power and 0.0075 on the standby fraction over these grids
POWER_RTOL = 0.02
STANDBY_ATOL = 0.02
#: flow balance of an exact stationary vector (LU: ~1e-12; GMRES at its
#: default 1e-10 tolerance: ~1e-9)
BALANCE_RTOL = 1e-6
#: untraced passes at the least, so each sweep's best time is taken over
#: repeats even when a slow machine stretches a pass
MIN_PASSES = 3


def _params(spec):
    from dataclasses import replace

    return replace(
        CPUModelParams.paper_defaults(),
        power_up_delay=spec["D"],
        arrival_rate=spec["AR"],
    )


def _threshold_grid(spec) -> SweepGrid:
    lo, hi, n = spec["T"]
    return SweepGrid({"T": list(np.linspace(lo, hi, n))})


# -- one sweep per workload ---------------------------------------------------


def threshold_run(spec):
    runner = SweepRunner(
        PhaseTypeBackend(_params(spec), stages=32),
        inputs.THRESHOLD_METRICS,
    )
    return runner.run(_threshold_grid(spec))


def threshold_reference(spec):
    exact = SweepRunner(RenewalBackend(_params(spec)), inputs.THRESHOLD_METRICS)
    return exact.run(_threshold_grid(spec))


def threshold_check(spec, result, reference) -> int:
    """Grid points whose row misses the exact closed form."""
    bad = {e.index for e in result.errors}
    for i, (row, ref) in enumerate(zip(result.values, reference.values)):
        power, standby = row["power"], row["fraction:standby"]
        if not (math.isfinite(power) and math.isfinite(standby)):
            bad.add(i)
        elif abs(power - ref["power"]) > POWER_RTOL * abs(ref["power"]):
            bad.add(i)
        elif abs(standby - ref["fraction:standby"]) > STANDBY_ATOL:
            bad.add(i)
    return len(bad)


def scan_run(spec):
    if spec["net"] == "cpu-gspn":
        net = build_cpu_gspn_net(buffer_capacity=spec["buffer"])
    else:
        net = build_wsn_cluster_net(buffer_capacity=spec["buffer"])
    runner = SweepRunner(net, spec["metrics"], method=spec["method"])
    return runner.run(SweepGrid(spec["axes"]))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def scan_check(spec, result, _reference) -> int:
    """Grid points whose row breaks the net's flow balance.

    ``cpu-gspn``: every job that arrives is served (``SR == AR``, the
    arrival throughput never above its rate).  ``wsn-cluster``: node 0's
    arrivals, sends and releases balance; its buffer mean is in range.
    """
    bad = {e.index for e in result.errors}
    for i, (point, row) in enumerate(zip(result.points, result.values)):
        values = list(row.values())
        if not all(math.isfinite(v) for v in values):
            bad.add(i)
            continue
        if spec["net"] == "cpu-gspn":
            ok = (_close(row["throughput:SR"], row["throughput:AR"], 1e-8)
                  and row["throughput:AR"] <= point["AR"] * (1 + 1e-9))
        else:
            arr, snd, rel = (row["throughput:arr0"], row["throughput:snd0"],
                             row["throughput:rel0"])
            ok = (_close(arr, snd, BALANCE_RTOL)
                  and _close(snd, rel, BALANCE_RTOL)
                  and arr <= point["arr0"] * (1 + 1e-9)
                  and 0.0 <= row["mean_tokens:buf0"] <= spec["buffer"])
        if not ok:
            bad.add(i)
    return len(bad)


WORKLOADS = {
    "threshold-sweep": (inputs.threshold_sweep, threshold_run,
                        threshold_reference, threshold_check),
    "model-scan": (inputs.model_scan, scan_run, None, scan_check),
}


def warm_up(workload: str) -> None:
    """Run each code path of the workload once on a model too small to
    matter, so lazy imports and first-call costs land in set-up."""
    if workload == "threshold-sweep":
        SweepRunner(PhaseTypeBackend(stages=2, n_max=4), ["power"]).run(
            SweepGrid({"T": [0.2, 0.4]})
        )
        return
    for method in ("auto", "gmres"):
        scan_run({"net": "cpu-gspn", "buffer": 3, "method": method,
                  "axes": {"AR": [0.5, 1.0]},
                  "metrics": inputs.CPU_GSPN_METRICS})
        scan_run({"net": "wsn-cluster", "buffer": 2, "method": method,
                  "axes": {"arr0": [0.5, 1.0]},
                  "metrics": inputs.WSN_METRICS})


# -- the timed phase ------------------------------------------------------------


def run_pass(specs, run, references, check, out):
    """One pass over *specs*; appends its sweep times (in spec order) and
    its correct points to *out*, returns its wall time."""
    sweep_s = []
    points_ok = 0
    t_pass = time.perf_counter()
    for spec, ref in zip(specs, references):
        # every sweep starts from the same heap: what earlier sweeps left in
        # reference cycles would otherwise be collected, and held in memory,
        # at a point that moves from pass to pass
        gc.collect()
        t0 = time.perf_counter()
        result = run(spec)
        dt = time.perf_counter() - t0
        failed = check(spec, result, ref)
        sweep_s.append(dt)
        out["attempted"] += len(result)
        out["failed"] += failed
        points_ok += len(result) - failed
    out["sweep_s"].append(sweep_s)
    out["points_ok"].append(points_ok)
    return time.perf_counter() - t_pass


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    make_inputs, run, reference, check = WORKLOADS[args.workload]
    warm_up(args.workload)
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        write_json(args.out, {"setup_s": setup_s})
        return 0

    specs = make_inputs(args.seed)
    references = [reference(s) if reference else None for s in specs]
    if args.trace:
        layers.install()

    untraced = {"sweep_s": [], "attempted": 0, "failed": 0, "points_ok": []}
    traced = {"sweep_s": [], "attempted": 0, "failed": 0, "points_ok": []}
    pass_s = {"untraced": [], "traced": []}
    raws = []
    t_start = time.perf_counter()
    while True:
        tracing_now = bool(args.trace) and len(pass_s["untraced"]) > len(
            pass_s["traced"]
        )
        if tracing_now:
            layers.REC.reset()
            layers.REC.begin()
            with obs.tracing("perfbench") as trace:
                pass_s["traced"].append(
                    run_pass(specs, run, references, check, traced)
                )
            layers.REC.end()
            raw = layers.REC.snapshot()
            raw["counters"] = dict(trace.counters)
            raws.append(raw)
        else:
            pass_s["untraced"].append(
                run_pass(specs, run, references, check, untraced)
            )
        elapsed = time.perf_counter() - t_start
        if (elapsed >= args.seconds
                and len(pass_s["untraced"]) >= MIN_PASSES
                and (not args.trace or len(pass_s["traced"]) >= 1)):
            break

    write_json(args.out, {
        "setup_s": setup_s,
        "sweep_s": untraced["sweep_s"],
        "pass_s": pass_s["untraced"],
        "traced_pass_s": pass_s["traced"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "points_ok": untraced["points_ok"],
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw": layers.merge_raw(raws) if raws else None,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
