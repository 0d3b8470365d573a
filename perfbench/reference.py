"""Reference answers, from the library's serial solve of the same inputs.

Imported only by the CLI session's check step, after its timed phase.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence

from repro.sweep.nets import DEMO_NETS
from repro.sweep.service.session import build_backend, parse_request
from repro.verify import lint_net

#: the CLI prints six significant digits; a stacked (batched) or
#: distributed solve agrees with the pointwise reference far closer
REL_TOL = 2e-5
ABS_TOL = 1e-9


def _pointwise(canonical: Dict[str, Any]) -> Dict[str, Any]:
    """The pointwise twin of a batched spec (the serial reference)."""
    if canonical["kind"] != "phase-type-batched":
        return dict(canonical)
    spec = dict(canonical, kind="phase-type")
    spec.pop("batch_size", None)
    return spec


def expected_reply(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The rows a correct service reply to a sweep or steady *payload*
    carries (steady is one row at the base parameters)."""
    request = parse_request(payload)
    backend = build_backend(_pointwise(request.model))
    rows = []
    for point in request.points:
        solution = backend.solve(point)
        rows.append([backend.evaluate(solution, m) for m in request.metrics])
    return {"rows": rows, "metrics": list(request.metrics)}


def _close(a: Optional[float], b: float) -> bool:
    if a is None or not math.isfinite(a) or not math.isfinite(b):
        return False
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def rows_match(got: Sequence[Sequence[Optional[float]]],
               want: Sequence[Sequence[float]]) -> bool:
    if len(got) != len(want):
        return False
    return all(
        len(g) == len(w) and all(_close(x, y) for x, y in zip(g, w))
        for g, w in zip(got, want)
    )


# ---------------------------------------------------------------------------
# CLI output
# ---------------------------------------------------------------------------


def parse_table(text: str) -> Optional[Dict[str, Any]]:
    """The first rendered sweep table of a CLI's stdout.

    ``{"title": str, "columns": [...], "rows": [[float, ...], ...]}``, or
    ``None`` when there is no table.
    """
    lines = text.splitlines()
    for i in range(len(lines) - 3):
        if set(lines[i + 1]) == {"="} and "|" in lines[i + 2]:
            columns = [c.strip() for c in lines[i + 2].split("|")]
            rows = []
            for line in lines[i + 4:]:
                if "|" not in line:
                    break
                try:
                    rows.append([float(c) for c in line.split("|")])
                except ValueError:
                    return None
            return {"title": lines[i], "columns": columns, "rows": rows}
    return None


def cli_expected(argv: Sequence[str]) -> Dict[str, Any]:
    """The table (or steady values / lint codes) a script entry prints.

    Sweeps and queries are re-solved pointwise through the library.
    """
    from repro.experiments.cli import build_parser

    args = build_parser().parse_args(list(argv))
    if args.command == "lint":
        factory, _ = DEMO_NETS[args.net]
        report = lint_net(factory(), level=args.level)
        return {"codes": sorted({d.code for d in report.sorted()})}
    if args.command == "query":
        model = {"kind": args.model}
        if args.param:
            model["params"] = {
                k: float(v) for k, v in (p.split("=", 1) for p in args.param)
            }
        for key in ("stages", "n_max"):
            if getattr(args, key) is not None:
                model[key] = getattr(args, key)
        payload: Dict[str, Any] = {"op": args.op, "model": model}
        if args.axis:
            payload["axes"] = list(args.axis)
        if args.metric:
            payload["metrics"] = list(args.metric)
        return expected_reply(payload)
    # sweep
    from repro.sweep import SweepGrid

    model = {"kind": "phase-type" if args.model != "gspn" else "gspn"}
    if args.model == "gspn":
        model["net"] = args.net or "cpu-gspn"
    else:
        if args.param:
            model["params"] = {
                k: float(v) for k, v in (p.split("=", 1) for p in args.param)
            }
        model["stages"] = args.stages if args.stages is not None else 32
        if args.n_max is not None:
            model["n_max"] = args.n_max
    metrics = args.metric or list(DEMO_NETS[model["net"]][1]
                                  if args.model == "gspn" else
                                  ("fraction:standby", "fraction:active",
                                   "power"))
    grid = SweepGrid.from_specs(args.rate)
    request = parse_request({"op": "sweep", "model": model,
                             "axes": list(args.rate), "metrics": metrics})
    backend = build_backend(request.model)
    rows = []
    for point in grid.points():
        solution = backend.solve(point)
        rows.append([point[a] for a in grid.names]
                    + [backend.evaluate(solution, m) for m in metrics])
    return {"rows": rows}
