"""A ``repro serve`` daemon driven over its HTTP front end.

The ``cli-oneshot`` workload's ``query`` target; imports nothing from
``repro``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import time
from typing import Any, Dict, Optional, Tuple

from common import BENCH_DIR, PYTHON, BenchError, Child

_LISTEN = re.compile(
    r"listening on (\S+):(\d+) \(pickle\) and http://(\S+):(\d+)"
)


class Daemon:
    """One ``repro serve`` process with its pickle and HTTP addresses."""

    def __init__(self, workdir: str, tag: str, layers_out: Optional[str]):
        serve = ["serve", "--bind", "127.0.0.1:0", "--http", "127.0.0.1:0"]
        if layers_out is None:
            argv = [PYTHON, "-m", "repro", *serve]
        else:
            argv = [PYTHON, os.path.join(BENCH_DIR, "launch.py"),
                    "--layers", layers_out, "--window", "--", *serve]
        self.child = Child(argv, os.path.join(workdir, f"{tag}.out"),
                           os.path.join(workdir, f"{tag}.err"))
        self.pickle_addr: Tuple[str, int] = ("", 0)
        self.http_addr: Tuple[str, int] = ("", 0)

    def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTEN.search(self.child.stdout())
            if match:
                self.pickle_addr = (match.group(1), int(match.group(2)))
                self.http_addr = (match.group(3), int(match.group(4)))
                return
            if self.child.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError(f"daemon did not start: {self.child.stderr()[-500:]}")

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> Tuple[int, dict]:
        conn = http.client.HTTPConnection(*self.http_addr, timeout=60)
        try:
            data = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=data,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        finally:
            conn.close()

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise BenchError("daemon never became healthy")

    def stats(self) -> Dict[str, Any]:
        return self.request("GET", "/stats")[1]["stats"]

    def stop(self) -> None:
        self.child.signal(signal.SIGTERM)
        self.child.wait(60)
