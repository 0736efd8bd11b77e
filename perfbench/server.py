"""The server under test as a subprocess, and the HTTP client that
drives it.

:class:`ServerProcess` boots ``python -m repro serve <table> --http
127.0.0.1:0`` (or the traced launcher, :mod:`tracer`), reads the bound
port from the server's own announcement, and reads the server's CPU
time and peak resident memory from ``/proc``. :class:`Client` is the
closed-loop client's keep-alive connection.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

#: How long a server may take to bind, answer /healthz or drain.
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")

#: The client and the server share one CPU: the client pins itself
#: with :func:`pin` and the server inherits the pin. On a VM, a request
#: that goes from one vCPU to another waits for the host to wake the
#: idle one. Pinned to two CPUs, a cache hit took about 0.8 ms longer
#: and its latency followed the host's load (same-seed p50 of
#: ``ingest_mixed`` from 2.9 to 3.8 ms, against 2.1 to 2.7 ms on one
#: CPU); left to the scheduler, the two sometimes shared a CPU and
#: sometimes not, and the throughput of cache hits varied by half.
BENCH_CPU = min(os.sched_getaffinity(0))


def pin() -> None:
    """Pin this process, and every process it starts later, to
    :data:`BENCH_CPU`."""
    os.sched_setaffinity(0, {BENCH_CPU})


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


class Client:
    """One keep-alive HTTP/1.1 connection to the server, timing each
    round trip. (``repro.bench.http_load`` has a similar client, but a
    private one: the benchmark uses only public names of ``repro``.)"""

    def __init__(self, address: tuple[str, int]):
        self._conn = http.client.HTTPConnection(*address, timeout=120)

    def call(self, method: str, path: str, body: dict | None = None,
             ) -> tuple[int, dict, float]:
        """One round trip: ``(status, JSON body, seconds)``. The time
        runs from sending the request to having read the whole
        response body; decoding the JSON is not part of it."""
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        start = time.perf_counter()
        self._conn.request(method, path, body=data, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - start
        return response.status, json.loads(raw), elapsed

    def close(self) -> None:
        self._conn.close()


class ServerProcess:
    """A ``repro serve --http`` subprocess.

    Args:
        root: checkout root (its ``src`` goes on ``PYTHONPATH``).
        table: the ``.cohana`` file or sharded directory to serve.
        log: file that receives the server's stderr.
        trace_out: when set, boot the traced launcher instead, writing
            its span totals to this path.
    """

    def __init__(self, root: Path, table: Path, log: Path,
                 trace_out: Path | None = None):
        self.log = log
        self.trace_out = trace_out
        self._marks = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        serve = ["serve", str(table), "--http", "127.0.0.1:0"]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable, str(root / "perfbench" / "tracer.py"),
                    "--out", str(trace_out), *serve]
        with open(log, "wb") as stderr:
            self.proc = subprocess.Popen(
                argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr)
        self.address: tuple[str, int] | None = None

    def wait_ready(self) -> tuple[str, int]:
        """Wait for the bound port, then for ``/healthz`` to answer."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while self.address is None:
            for line in self.log.read_text(errors="replace").splitlines():
                if line.startswith("serving http://"):
                    host, port = line.split()[1][len("http://"):] \
                        .rsplit(":", 1)
                    self.address = (host, int(port))
            if self.address is None:
                self._check_alive(deadline)
                time.sleep(0.002)
        client = Client(self.address)
        try:
            while True:
                try:
                    status, _, _ = client.call("GET", "/healthz")
                except (ConnectionError, http.client.HTTPException):
                    status = None
                if status == 200:
                    return self.address
                self._check_alive(deadline)
                time.sleep(0.002)
        finally:
            client.close()

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise BenchError(f"server exited with {self.proc.returncode}: "
                             f"{self.log.read_text(errors='replace')}")
        if time.monotonic() > deadline:
            raise BenchError("server did not become ready in time")

    def cpu_seconds(self) -> float:
        """The server's user + system CPU time so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (VmHWM)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in /proc status")

    def mark(self) -> dict:
        """Ask the traced launcher for a snapshot of its span totals."""
        path = Path(f"{self.trace_out}.mark{self._marks}.json")
        self._marks += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not path.exists():
            self._check_alive(deadline)
            time.sleep(0.002)
        return json.loads(path.read_text())

    def stop(self) -> int:
        """Drain the server with SIGTERM and wait until it has exited;
        kill it if the drain does not finish in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode
