"""Process, socket and statistics helpers shared by the workloads."""

from __future__ import annotations

import json
import math
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

#: Seconds to wait for a server to print its listening line.
START_TIMEOUT_S = 60.0
#: Seconds a single request may take before the benchmark gives up.
REQUEST_TIMEOUT_S = 60.0


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_SANITIZE", None)
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """The *q* quantile, interpolating linearly between order statistics."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


# -- the server process ----------------------------------------------------------


class ServerProcess:
    """``python -m repro serve`` (or the traced wrapper) as a child process."""

    def __init__(self, argv: List[str], log_path: Path):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            argv,
            cwd=str(ROOT),
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        buffer = b""
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.2)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                buffer += chunk
                for line in buffer.decode(errors="replace").splitlines():
                    if line.startswith("listening on "):
                        return int(line.rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(
            f"server did not start: {self.log_path.read_text(errors='replace')[-2000:]}"
        )

    def pids(self) -> List[int]:
        """The server and every process it started (its worker pool)."""
        found = [self.proc.pid]
        index = 0
        while index < len(found):
            pid = found[index]
            index += 1
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for task in tasks:
                try:
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        found.extend(int(c) for c in handle.read().split())
                except OSError:
                    pass
        return found

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb_of(pid) for pid in self.pids())

    def stop(self) -> None:
        """SIGINT (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def peak_rss_mb_of(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def serve_argv(
    csvs: Iterable[Path], mode: str, seed: int, traced: Optional[Path] = None,
    extra: Sequence[str] = (),
) -> List[str]:
    if traced is None:
        head = [sys.executable, "-m", "repro", "serve"]
    else:
        head = [sys.executable, str(BENCH_DIR / "traced_serve.py"), str(traced), "serve"]
    return head + [
        *(str(p) for p in csvs),
        "--port", "0",
        "--mode", mode,
        "--workers", "2",
        "--seed", str(seed),
        *extra,
    ]


# -- clients ----------------------------------------------------------------------


class Connection:
    """One persistent NDJSON connection."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, payload: dict) -> None:
        self.sock.sendall(json.dumps(payload).encode() + b"\n")

    def receive(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, payload: dict) -> dict:
        self.send(payload)
        return self.receive()

    def request_polled(self, payload: dict) -> dict:
        """:meth:`request`, waiting for the reply by polling the socket and
        yielding the CPU between polls instead of sleeping (README)."""
        self.send(payload)
        deadline = time.monotonic() + REQUEST_TIMEOUT_S
        while not select.select([self.sock], [], [], 0)[0]:
            if time.monotonic() > deadline:
                raise TimeoutError("no reply within the request timeout")
            os.sched_yield()
        return self.receive()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def scrape_metrics(port: int) -> Dict[str, float]:
    """``GET /metrics`` parsed into ``{name: value}`` (unlabelled series)."""
    with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    body = b"".join(chunks).decode(errors="replace").split("\r\n\r\n", 1)[-1]
    out: Dict[str, float] = {}
    for line in body.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        name, _, value = line.partition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            pass
    return out


def delta(after: Dict[str, float], before: Dict[str, float], name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)
