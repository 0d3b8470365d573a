"""The repository's benchmark: three seeded workloads, layered metrics.

Run one workload::

    python3 perfbench/run.py --workload threshold-sweep --seed 1 \\
        --seconds 10 --trace 0 [--out results.jsonl]

The last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--out`` also appends the result,
with its workload, seed and machine, to a JSON Lines file.

Compare two such files (per workload and metric: medians, delta, and
whether an end-to-end metric moved past its bound in BENCHMARK.json)::

    python3 perfbench/run.py --compare base.jsonl new.jsonl

See ``perfbench/README.md`` for the workloads and what each metric
means on each of them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import layers  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR,
    PYTHON,
    ROOT,
    SRC,
    TMP_ROOT,
    BenchError,
    Child,
    check_sources,
    compile_sources,
    machine_info,
    median,
    read_json,
    run_child,
)
from daemon import Daemon  # noqa: E402

WORKLOADS = ("threshold-sweep", "model-scan", "cli-oneshot")
#: fresh set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: a run must finish well inside three minutes
RUN_BUDGET_S = 170.0

#: End-to-end timings are built from each operation's best time over the
#: run (a sweep over the passes, a CLI process over the sessions).  On a
#: shared two-vCPU host the machine's speed drifts by up to 1.5x; noise
#: only ever adds time, so the best time is the steadiest estimate of what
#: the code costs (README.md, "Noise").
END_TO_END = {
    "setup_s": "s",
    "sweep_p50_s": "s",
    "points_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "cli_session_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


class Outcome:
    """What a workload measured: metrics plus the correctness tally."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []


def _deadline_left(t_start: float) -> float:
    left = RUN_BUDGET_S - (time.monotonic() - t_start)
    if left <= 5:
        raise BenchError("out of time budget")
    return left


# ---------------------------------------------------------------------------
# threshold-sweep and model-scan: a fresh worker process
# ---------------------------------------------------------------------------


def sweep_workload(args, workdir: str, t_start: float) -> Outcome:
    worker = os.path.join(BENCH_DIR, "sweep_worker.py")

    def launch(tag: str, setup_only: bool) -> Tuple[Child, dict]:
        out = os.path.join(workdir, f"{tag}.json")
        argv = [PYTHON, worker, "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", out,
                "--t-spawn", repr(time.monotonic())]
        if setup_only:
            argv.append("--setup-only")
        child = run_child(argv, workdir, tag, _deadline_left(t_start))
        if child.returncode != 0:
            raise BenchError(f"{tag} exited {child.returncode}: "
                             f"{child.stderr()[-800:]}")
        return child, read_json(out)

    setups = [launch(f"setup{i}", True)[1]["setup_s"]
              for i in range(SETUP_REPEATS - 1)]
    child, rec = launch("worker", False)
    setups.append(rec["setup_s"])

    out = Outcome()
    out.attempted, out.failed = rec["attempted"], rec["failed"]
    best = [min(times) for times in zip(*rec["sweep_s"])]
    if args.trace:
        out.metrics = layers.layer_metrics(rec["raw"], len(rec["traced_pass_s"]))
        out.metrics["obs.overhead_frac"] = (
            median(rec["traced_pass_s"]) / median(rec["pass_s"]) - 1.0
        )
    else:
        out.metrics = {
            "setup_s": median(setups),
            "sweep_p50_s": median(best),
            "points_per_s": median(rec["points_ok"]) / sum(best),
            "request_p50_ms": median(best) * 1e3,
            "request_tail_ms": max(best) * 1e3,
            "cli_session_s": sum(best),
            "peak_rss_mb": child.maxrss_mb,
        }
    out.notes.append(f"{len(best)} sweeps x {len(rec['pass_s'])} passes")
    return out


# ---------------------------------------------------------------------------
# cli-oneshot: a seeded script of `python -m repro` processes
# ---------------------------------------------------------------------------


def _cli_argv(entry, daemon: Daemon, traced: bool, layers_out: str) -> List[str]:
    pickle_addr = "{}:{}".format(*daemon.pickle_addr)
    http_addr = "{}:{}".format(*daemon.http_addr)
    argv = [a.replace("{pickle}", pickle_addr).replace("{http}", http_addr)
            for a in entry["argv"]]
    if traced:
        return [PYTHON, os.path.join(BENCH_DIR, "launch.py"),
                "--layers", layers_out, "--", *argv]
    return [PYTHON, "-m", "repro", *argv]


def run_session(script, daemon, workdir, tag, traced, t_start):
    t0 = time.monotonic()
    procs = []
    for i, entry in enumerate(script):
        layers_out = os.path.join(workdir, f"{tag}-{i}.layers.json")
        child = run_child(_cli_argv(entry, daemon, traced, layers_out),
                          workdir, f"{tag}-{i}", _deadline_left(t_start))
        raw = None
        if traced and os.path.exists(layers_out):
            raw = read_json(layers_out)
            raw["wall"] = child.wall_s
        procs.append({"entry": entry, "argv": child.argv,
                      "rc": child.returncode, "wall": child.wall_s,
                      "rss": child.maxrss_mb, "stdout": child.stdout(),
                      "raw": raw})
    return time.monotonic() - t0, procs


def check_cli(proc, expected) -> Tuple[bool, int]:
    """``(ok, points)``: exit 0 and the printed output as expected."""
    from reference import parse_table, rows_match

    if proc["rc"] != 0:
        return False, 0
    text = proc["stdout"]
    kind = proc["entry"]["expect"]
    if kind == "lint":
        codes = sorted(set(re.findall(r"^((?:PN|CH|SW)\d{3}) ", text, re.M)))
        return codes == expected["codes"] and "0 error(s)" in text, 0
    if kind == "steady":
        values = dict(re.findall(r"^(\S+:\S+|power)\s+(\S+)$", text, re.M))
        got = [[float(values[m]) if m in values else None
                for m in expected["metrics"]]]
        return rows_match(got, expected["rows"]), 1
    table = parse_table(text)
    if table is None:
        return False, 0
    want = expected["rows"]
    n_metrics = len(want[0]) if want else 0
    got = [row[-n_metrics:] for row in table["rows"]]
    want = [row[-n_metrics:] for row in want]
    ok = rows_match(got, want)
    return ok, len(table["rows"]) if ok else 0


def cli_workload(args, workdir: str, t_start: float) -> Outcome:
    script = inputs.cli_script(args.seed)
    setups = []
    daemon = None
    daemon_layers = os.path.join(workdir, "daemon.layers.json")
    cache = {"hits": 0, "misses": 0, "flights": 0, "coalesced": 0}
    try:
        for i in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            # in a traced run the daemon that serves the sessions carries
            # the shims too, recording while a traced session runs
            traced_daemon = bool(args.trace) and i == SETUP_REPEATS - 1
            daemon = Daemon(workdir, f"daemon{i}",
                            daemon_layers if traced_daemon else None)
            daemon.wait_listening()
            daemon.wait_healthy()
            setups.append(time.monotonic() - daemon.child.t_spawn)
        sessions: List[Tuple[bool, float, list]] = []
        t_timed = time.monotonic()
        while True:
            traced = bool(args.trace) and (
                sum(1 for s in sessions if not s[0])
                > sum(1 for s in sessions if s[0])
            )
            if traced:
                before = daemon.stats()
                daemon.child.signal(signal.SIGUSR1)
            wall, procs = run_session(script, daemon, workdir,
                                      f"s{len(sessions)}", traced, t_start)
            if traced:
                daemon.child.signal(signal.SIGUSR2)
                after = daemon.stats()
                for key, section in (("hits", "cache"), ("misses", "cache"),
                                     ("flights", "batching"),
                                     ("coalesced", "batching")):
                    cache[key] += after[section][key] - before[section][key]
            sessions.append((traced, wall, procs))
            if time.monotonic() - t_timed >= args.seconds and (
                not args.trace or any(s[0] for s in sessions)
            ):
                break
    finally:
        if daemon is not None:
            daemon.stop()

    # outputs are checked after the timed phase: references import repro
    sys.path.insert(0, SRC)
    from reference import cli_expected

    expected = {e["name"]: cli_expected(
        [a.replace("{pickle}", "127.0.0.1:1").replace("{http}", "127.0.0.1:1")
         for a in e["argv"]]) for e in script}
    out = Outcome()
    points = 0
    for _, _, procs in sessions:
        for proc in procs:
            ok, n = check_cli(proc, expected[proc["entry"]["name"]])
            out.attempted += 1
            out.failed += 0 if ok else 1
            points += n
    plain = [s for s in sessions if not s[0]]
    best: Dict[str, float] = {}
    for _, _, procs in plain:
        for p in procs:
            name = p["entry"]["name"]
            best[name] = min(best.get(name, p["wall"]), p["wall"])
    sweep_best = [best[e["name"]] for e in script if e["argv"][0] == "sweep"]
    if args.trace:
        traced_sessions = [s for s in sessions if s[0]]
        raws = [p["raw"] for s in traced_sessions for p in s[2] if p["raw"]]
        # the daemon works while a query process waits for it, inside
        # that process's wall: its self times count, its window does not
        served = read_json(daemon_layers)
        served["wall"] = 0.0
        out.metrics = layers.layer_metrics(layers.merge_raw(raws + [served]),
                                           len(traced_sessions))
        out.metrics["obs.overhead_frac"] = (
            median([s[1] for s in traced_sessions])
            / median([s[1] for s in plain]) - 1.0
        )
        lookups = cache["hits"] + cache["misses"]
        out.metrics["service.cache_hit_ratio"] = cache["hits"] / max(1, lookups)
        out.metrics["service.coalesce_ratio"] = cache["coalesced"] / max(
            1, cache["flights"] + cache["coalesced"])
    else:
        out.metrics = {
            "setup_s": median(setups),
            "sweep_p50_s": median(sweep_best),
            "points_per_s": points / len(sessions) / sum(best.values()),
            "request_p50_ms": median(list(best.values())) * 1e3,
            "request_tail_ms": max(best.values()) * 1e3,
            "cli_session_s": sum(best.values()),
            "peak_rss_mb": max(p["rss"] for s in plain for p in s[2]),
        }
    out.notes.append(f"{len(sessions)} session(s) of {len(script)} processes")
    return out


RUNNERS: Dict[str, Callable[..., Outcome]] = {
    "threshold-sweep": sweep_workload,
    "model-scan": sweep_workload,
    "cli-oneshot": cli_workload,
}


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------


def _load_records(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(base_path: str, new_path: str) -> int:
    """Print per-workload, per-metric medians and deltas of two files."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m.get("better") for m in spec["per_layer"]}
    better.update({k: v["better"] for k, v in bounds.items()})

    def collect(records):
        table: Dict[Tuple[str, str], List[float]] = {}
        for rec in records:
            for name, m in rec["result"]["metrics"].items():
                table.setdefault((rec["workload"], name), []).append(m["value"])
        return table

    base, new = (collect(_load_records(p)) for p in (base_path, new_path))
    regressions = 0
    print(f"{'workload':16s} {'metric':28s} {'base':>12s} {'new':>12s} "
          f"{'delta':>8s}  verdict")
    for key in sorted(set(base) & set(new)):
        b, n = median(base[key]), median(new[key])
        delta = (n - b) / abs(b) if b else 0.0
        verdict = ""
        worse = delta if better.get(key[1]) == "lower" else -delta
        if key[1] in bounds:
            if worse > bounds[key[1]]["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif worse < -bounds[key[1]]["bound"]:
                verdict = "improved"
        print(f"{key[0]:16s} {key[1]:28s} {b:12.6g} {n:12.6g} "
              f"{delta * 100:+7.1f}%  {verdict}")
    return 1 if regressions else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None,
                    help="append the result to this JSON Lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        check_sources()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        compile_sources()
        outcome = RUNNERS[args.workload](args, workdir, t_start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END
    missing = [name for name in units if name not in outcome.metrics]
    for name in missing:
        outcome.metrics[name] = 0.0  # a layer this workload never enters
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    for note in outcome.notes:
        print(f"[{args.workload}] {note}")
    print(f"[{args.workload}] failed_frac = {outcome.failed}/"
          f"{outcome.attempted} = {outcome.failed / outcome.attempted:.4g}")
    if args.trace:
        covered = sum(outcome.metrics[m] for m in layers.SELF_METRICS.values())
        wall = outcome.metrics["trace.wall_s"]
        uncovered = outcome.metrics["trace.uncovered_s"]
        print(f"[{args.workload}] traced wall {wall:.4f} s = layer self "
              f"times {covered:.4f} s + uncovered {uncovered:.4f} s")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "machine": machine_info(), "result": result,
            }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
