"""Per-layer timing for the traced runs, recorded from outside the program.

:func:`install` wraps public functions of each ``repro`` layer (and the
few private seams the service dispatches work through) in timing shims.
Nothing in ``src/`` is edited: the shims are installed at run time by the
benchmark's own launchers, and only in traced runs.

A shim records a span on a per-thread stack.  A layer's *self time* is
the time its spans spend minus the time their shimmed children take, so
the self times of all layers plus an explicit *uncovered* remainder add
up to the traced wall time.  Coroutines (the service's request read and
admission) cannot sit on a thread's stack -- the event loop runs other
work while they wait -- so they are recorded as waits, outside that sum.

Counts come from the shims (markings explored, points per stacked solve,
frames decoded) and from the program's own ``repro.obs`` counters.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

now = time.perf_counter

#: synchronous seams: (module, attribute, span name, counter hook)
SYNC_TARGETS: List[Tuple[str, str, str, Optional[str]]] = [
    ("repro.experiments.cli", "main", "experiments.main", None),
    ("repro.petri.analysis", "explore_reachability", "petri.explore",
     "markings"),
    ("repro.petri.analysis", "ReachabilityGraph.vanishing_absorption",
     "petri.vanishing", "vanishing"),
    ("repro.petri.ctmc_export", "GSPNSolver.__init__", "petri.template",
     None),
    ("repro.sweep.backends.base", "SweepBackend.prepare", "backends.prepare",
     None),
    ("repro.sweep.backends.base", "SweepBackend.evaluate",
     "backends.evaluate", None),
    ("repro.sweep.backends.phase_type", "PhaseTypeBackend.solve",
     "backends.solve", None),
    ("repro.sweep.backends.gspn", "GSPNBackend.solve", "backends.solve",
     None),
    ("repro.sweep.backends.batched", "BatchedPhaseTypeBackend.solve_batch",
     "backends.solve_batch", "batch_points"),
    ("repro.verify.lint", "preflight_sweep", "verify.preflight", None),
    ("repro.verify.lint", "lint_net", "verify.lint", None),
    ("repro.sweep.runner", "SweepRunner.run", "engine.run", None),
    ("repro.sweep.engine.executor", "SerialExecutor.run", "engine.run", None),
    ("repro.sweep.engine.executor", "PoolExecutor.run", "engine.run", None),
    ("repro.sweep.service.batching", "run_traced", "service.solve", None),
    ("repro.sweep.service.template_cache", "_build_in_thread",
     "service.prepare", None),
] + [
    ("repro.markov.ctmc", name, "markov.steady", None)
    for name in (
        "CTMC.steady_state",
        "sparse_steady_state",
        "lu_analyse_solve",
        "lu_resolve_permuted",
        "gmres_augmented_solve",
        "gmres_steady_state",
        "power_steady_state",
        "batched_lu_solve",
        "batched_dense_solve",
        "batched_gmres_solve",
    )
]

#: coroutine seams: (module, attribute, wait name)
ASYNC_TARGETS: List[Tuple[str, str, str]] = [
    ("repro.sweep.service.http", "read_request", "service.http_parse"),
    ("repro.sweep.service.admission", "AdmissionController.admit",
     "service.admission_wait"),
]

#: ``repro.obs`` counters read back after a traced run
OBS_COUNTERS = {
    "solver.gmres.iterations": "markov.gmres_iterations",
    "solver.ilu.builds": "markov.ilu_builds",
    "sweep.rows.completed": "engine.rows",
    "sweep.rows.failed": "engine.rows_failed",
    "dist.requeues": "distributed.requeues",
    "service.requests.rejected": "service.rejected",
    "service.protocol.rejected": "service.rejected",
}

#: span name -> per-layer metric holding its self time
SELF_METRICS = {
    "experiments.import": "experiments.import_s",
    "experiments.main": "experiments.main_self_s",
    "petri.explore": "petri.explore_s",
    "petri.vanishing": "petri.vanishing_s",
    "petri.template": "petri.template_s",
    "backends.prepare": "backends.prepare_s",
    "backends.solve": "backends.solve_self_s",
    "backends.evaluate": "backends.evaluate_s",
    "backends.solve_batch": "backends.solve_batch_s",
    "markov.steady": "markov.steady_s",
    "verify.preflight": "verify.preflight_s",
    "verify.lint": "verify.lint_s",
    "engine.run": "engine.run_self_s",
    "distributed.decode": "distributed.decode_s",
    "service.solve": "service.solve_s",
    "service.prepare": "service.prepare_s",
    "trace.install": "trace.install_s",
}

#: span name -> metric counting its outermost calls
CALL_METRICS = {
    "backends.solve": "backends.solve_calls",
    "markov.steady": "markov.steady_calls",
}


class Recorder:
    """Span totals of one process, per name, across its threads."""

    def __init__(self) -> None:
        self.enabled = False
        self.lock = threading.Lock()
        self.local = threading.local()
        self.wall = 0.0
        self._opened: Optional[float] = None
        self.reset()

    def reset(self) -> None:
        with self.lock:
            # name -> [self seconds, outermost calls]
            self.spans: Dict[str, List[float]] = {}
            self.waits: Dict[str, float] = {}
            self.counts: Dict[str, float] = {}
            self.wall = 0.0

    def begin(self) -> None:
        """Open a recording window (traced time starts counting)."""
        self._opened = now()
        self.enabled = True

    def end(self) -> None:
        """Close the window; its length joins :attr:`wall`."""
        if self._opened is not None:
            self.wall += now() - self._opened
            self._opened = None
        self.enabled = False

    def stack(self) -> List[List[Any]]:
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def add_self(self, name: str, seconds: float, outermost: bool) -> None:
        with self.lock:
            entry = self.spans.setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += 1 if outermost else 0

    def add_wait(self, name: str, seconds: float) -> None:
        with self.lock:
            self.waits[name] = self.waits.get(name, 0.0) + seconds

    def count(self, name: str, value: float) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def snapshot(self) -> Dict[str, Any]:
        with self.lock:
            wall = self.wall
            if self._opened is not None:
                wall += now() - self._opened
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "waits": dict(self.waits),
                "counts": dict(self.counts),
                "wall": wall,
            }


REC = Recorder()


def _count_hook(kind: Optional[str], args: tuple, result: Any) -> None:
    if kind == "markings":
        REC.count("petri.markings", len(result.markings))
    elif kind == "vanishing":
        REC.count("petri.vanishing_markings", len(result))
    elif kind == "batch_points":
        REC.count("backends.batch_points", len(args[1]))


def _wrap_sync(fn: Callable, name: str, hook: Optional[str]) -> Callable:
    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Any:
        if not REC.enabled:
            return fn(*args, **kwargs)
        st = REC.stack()
        outermost = not any(frame[0] == name for frame in st)
        frame = [name, 0.0]
        st.append(frame)
        t0 = now()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = now() - t0
            st.pop()
            if st:
                st[-1][1] += dur
            REC.add_self(name, dur - frame[1], outermost)
        if hook is not None:
            _count_hook(hook, args, result)
        return result

    shim.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return shim


def _wrap_async(fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    async def shim(*args: Any, **kwargs: Any) -> Any:
        if not REC.enabled:
            return await fn(*args, **kwargs)
        t0 = now()
        try:
            return await fn(*args, **kwargs)
        finally:
            REC.add_wait(name, now() - t0)

    shim.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return shim


class _PickleShim:
    """Stands in for ``pickle`` inside the wire protocol: times decodes."""

    def __init__(self, real: Any) -> None:
        self._real = real
        self._loads = _wrap_sync(real.loads, "distributed.decode", None)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)

    def loads(self, data: bytes, *args: Any, **kwargs: Any) -> Any:
        if REC.enabled:
            REC.count("distributed.frames", 1)
            REC.count("distributed.frame_bytes", len(data))
        return self._loads(data, *args, **kwargs)


def _replace_everywhere(original: Callable, shim: Callable) -> None:
    """Rebind every ``from x import f`` copy of *original* in ``repro``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, shim)


def _patch(module_name: str, path: str,
           make: Callable[[Callable], Callable]) -> None:
    module = importlib.import_module(module_name)
    owner: Any = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        original = owner.__dict__[parts[-1]]  # defined here, not inherited
    else:
        original = getattr(owner, parts[-1])
    if hasattr(original, "__perfbench_original__"):
        return
    shim = make(original)
    setattr(owner, parts[-1], shim)
    if not isinstance(owner, type):
        _replace_everywhere(original, shim)


_installed = False


def install() -> float:
    """Install every shim (idempotent); returns the seconds it took."""
    global _installed
    t0 = now()
    if _installed:
        return 0.0
    for mod in (
        "repro.sweep.distributed",
        "repro.sweep.service",
        "repro.experiments.cli",
    ):
        importlib.import_module(mod)
    for module_name, path, name, hook in SYNC_TARGETS:
        _patch(module_name, path,
               lambda fn, name=name, hook=hook: _wrap_sync(fn, name, hook))
    for module_name, path, name in ASYNC_TARGETS:
        _patch(module_name, path, lambda fn, name=name: _wrap_async(fn, name))
    protocol = importlib.import_module("repro.sweep.distributed.protocol")
    protocol.pickle = _PickleShim(protocol.pickle)  # type: ignore[attr-defined]
    _installed = True
    return now() - t0


# ---------------------------------------------------------------------------
# turning raw records into per-layer metrics
# ---------------------------------------------------------------------------


def merge_raw(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum raw snapshots (several passes or processes) into one."""
    out: Dict[str, Any] = {"spans": {}, "waits": {}, "counts": {},
                           "counters": {}, "wall": 0.0}
    for rec in records:
        for name, (self_s, calls) in rec.get("spans", {}).items():
            entry = out["spans"].setdefault(name, [0.0, 0])
            entry[0] += self_s
            entry[1] += calls
        for key in ("waits", "counts", "counters"):
            for name, value in rec.get(key, {}).items():
                out[key][name] = out[key].get(name, 0.0) + value
        out["wall"] += rec.get("wall", 0.0)
    return out


def layer_metrics(raw: Dict[str, Any], sessions: int) -> Dict[str, float]:
    """Per-layer metrics of *raw*, per session of the workload's script.

    Self times, call counts and counts are divided by *sessions* so a run
    that fitted more passes into its window reports the same figures.
    ``trace.uncovered_s`` is the traced wall minus every self time.
    """
    per = 1.0 / max(1, sessions)
    out: Dict[str, float] = {}
    covered = 0.0
    for span, metric in SELF_METRICS.items():
        value = raw["spans"].get(span, [0.0, 0])[0]
        covered += value
        out[metric] = value * per
    for span, metric in CALL_METRICS.items():
        out[metric] = raw["spans"].get(span, [0.0, 0])[1] * per
    for name in ("petri.markings", "petri.vanishing_markings",
                 "backends.batch_points", "distributed.frames",
                 "distributed.frame_bytes"):
        out[name] = raw["counts"].get(name, 0.0) * per
    for counter, metric in OBS_COUNTERS.items():
        value = raw["counters"].get(counter, 0.0) * per
        out[metric] = out.get(metric, 0.0) + value
    for wait in ("service.http_parse", "service.admission_wait"):
        out[wait + "_s"] = raw["waits"].get(wait, 0.0) * per
    out["trace.wall_s"] = raw["wall"] * per
    out["trace.uncovered_s"] = (raw["wall"] - covered) * per
    return out
