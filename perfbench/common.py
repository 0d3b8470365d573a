"""Shared helpers of the benchmark: paths, child processes, statistics.

Nothing here imports ``repro``: the orchestrator (``run.py``) stays a
light process, so the program's import cost is paid only inside the
fresh processes each workload launches.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
PYTHON = sys.executable


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a child that hung)."""


def child_env() -> Dict[str, str]:
    """Environment of every child: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def check_sources() -> None:
    """Fail fast when the checkout holds no program to measure."""
    marker = os.path.join(SRC, "repro", "experiments", "cli.py")
    if not os.path.isfile(marker):
        raise BenchError(f"program sources not found under {SRC}")


def compile_sources() -> None:
    """Byte-compile ``src`` once, so no timed import pays compilation."""
    proc = subprocess.run(
        [PYTHON, "-m", "compileall", "-q", SRC],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=300,
    )
    if proc.returncode != 0:
        raise BenchError(f"compileall failed: {proc.stderr.decode()[-400:]}")


class Child:
    """A child process whose peak RSS is read back when it is reaped.

    ``subprocess`` reaps with ``waitpid`` and discards resource usage, so
    children are reaped here with ``os.wait4``; its ``ru_maxrss`` is the
    child's own peak (or that of its largest reaped descendant).
    """

    def __init__(
        self,
        argv: Sequence[str],
        out_path: str,
        err_path: str,
    ) -> None:
        self.argv = list(argv)
        self.out_path = out_path
        self.err_path = err_path
        self._out = open(out_path, "wb")
        self._err = open(err_path, "wb")
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            self.argv,
            stdin=subprocess.DEVNULL,
            stdout=self._out,
            stderr=self._err,
            env=child_env(),
            cwd=ROOT,
        )
        self.returncode: Optional[int] = None
        self.maxrss_mb = 0.0
        self.t_exit = 0.0

    def poll(self) -> Optional[int]:
        if self.returncode is not None:
            return self.returncode
        pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
        if pid == 0:
            return None
        self._reaped(status, usage)
        return self.returncode

    def wait(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while self.poll() is None:
            if time.monotonic() > deadline:
                self.kill()
                raise BenchError(
                    f"child timed out after {timeout:.0f} s: {self.argv[:6]}"
                )
            time.sleep(0.005)
        assert self.returncode is not None
        return self.returncode

    def signal(self, signum: int) -> None:
        if self.returncode is None:
            try:
                os.kill(self.proc.pid, signum)
            except ProcessLookupError:
                pass

    def kill(self) -> None:
        self.signal(signal.SIGKILL)
        if self.returncode is None:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self._reaped(status, usage)

    def _reaped(self, status: int, usage) -> None:
        self.t_exit = time.monotonic()
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode  # keep Popen from re-reaping
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self._out.close()
        self._err.close()

    @property
    def wall_s(self) -> float:
        return self.t_exit - self.t_spawn

    def stdout(self) -> str:
        with open(self.out_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()

    def stderr(self) -> str:
        with open(self.err_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()


def run_child(
    argv: Sequence[str], workdir: str, tag: str, timeout: float = 150.0
) -> Child:
    """Run *argv* to completion; the reaped :class:`Child`."""
    child = Child(
        argv,
        os.path.join(workdir, f"{tag}.out"),
        os.path.join(workdir, f"{tag}.err"),
    )
    child.wait(timeout)
    return child


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, payload) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def machine_info() -> Dict[str, object]:
    """What the numbers were measured on."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
    }
    try:
        out = subprocess.run(
            [PYTHON, "-c",
             "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
            capture_output=True, text=True, timeout=60,
        ).stdout.split()
        info["numpy"], info["scipy"] = out[0], out[1]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    return info
