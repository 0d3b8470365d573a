"""Start-up import budget: heavy scipy subpackages stay off every entry path.

Only numpy, ``scipy.sparse`` and ``scipy.linalg`` may load at module level
(see "Start-up cost" in docs/architecture.md).  Each case runs in a fresh
interpreter, since this test process has long since loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

FORBIDDEN = ("scipy.stats", "scipy.special", "scipy.optimize", "scipy.spatial")

_PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
{body}
print(json.dumps(sorted(m for m in {forbidden!r} if m in sys.modules)))
"""

_CLI = "    from repro.experiments.cli import main\n    assert main({argv!r}) == 0\n"

CASES = {
    "import-cli": "    import repro.experiments.cli\n",
    "import-sweep": "    import repro.sweep\n",
    "import-service": "    import repro.sweep.service\n",
    "import-distributed": "    import repro.sweep.distributed\n",
    "import-params": "    import repro.core.params\n",
    "lint-cpu-gspn": _CLI.format(argv=["lint", "--net", "cpu-gspn"]),
    "sweep-paper-grid": _CLI.format(argv=[
        "sweep", "--model", "phase-type", "--stages", "2", "--n-max", "10",
        "--rate", "T=0.1:2.0:5", "--metric", "power", "--quiet",
    ]),
}


@pytest.mark.parametrize("body", list(CASES.values()), ids=list(CASES))
def test_no_heavy_scipy_subpackage_loaded(body):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body, forbidden=FORBIDDEN)],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


#: entry paths that must not load the service daemon package
_SERVICE_PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
{body}
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[:3] == ["repro", "sweep", "service"])))
"""

SERVICE_FREE_CASES = {
    "import-cli": CASES["import-cli"],
    "sweep-paper-grid": CASES["sweep-paper-grid"],
    "steady-phase-type": _CLI.format(argv=[
        "steady", "--model", "phase-type", "--stages", "2", "--n-max", "8",
    ]),
    "inline-distributed-sweep": (
        "    from repro.sweep import SweepGrid, build_mm1k_net\n"
        "    from repro.sweep.distributed import DistributedSweepRunner\n"
        "    runner = DistributedSweepRunner(\n"
        "        build_mm1k_net(), ['mean_tokens:queue'],\n"
        "        n_shards=1, worker_mode='inline')\n"
        "    result = runner.run(SweepGrid({'arrive': [0.5, 1.0, 1.5]}))\n"
        "    assert len(result) == 3 and not result.errors\n"
    ),
}


@pytest.mark.parametrize(
    "body", list(SERVICE_FREE_CASES.values()), ids=list(SERVICE_FREE_CASES)
)
def test_service_package_not_loaded(body):
    """One-shot sweeps and steady solves, inline distributed ones
    included, never pay for the daemon's imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SERVICE_PROBE.format(body=body)],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
