"""The real deployment as separate processes: keyspace, two runners, coordinator.

Every process is started through ``launcher.py`` (traced or not) with its
port chosen by the OS and announced through ``--port-file``.  :meth:`Fleet.stop`
sends ``SIGTERM`` (the program's graceful drain) and waits for every
process; it is safe to call more than once and runs on every exit path of
the benchmark.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.service.client import ServiceClient

HERE = Path(__file__).resolve().parent
START_TIMEOUT_SECONDS = 60.0
STOP_TIMEOUT_SECONDS = 20.0

#: Every fleet started by this process and not yet stopped.
LIVE: List["Fleet"] = []


class Fleet:
    def __init__(self, workdir: Path, trace: bool) -> None:
        self.workdir = workdir
        self.trace = trace
        self.processes: Dict[str, subprocess.Popen] = {}
        self.urls: Dict[str, str] = {}
        LIVE.append(self)

    # -- start -------------------------------------------------------------------------

    def _spawn(self, role: str, args: List[str]) -> None:
        port_file = self.workdir / f"{role}.port"
        command = [sys.executable, str(HERE / "launcher.py")]
        if self.trace:
            command += ["--trace-out", str(self.trace_file(role)), "--role", role]
        command += ["--", *args, "--port", "0", "--port-file", str(port_file)]
        log = open(self.workdir / f"{role}.log", "wb")
        self.processes[role] = subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL
        )
        log.close()

    def trace_file(self, role: str) -> Path:
        return self.workdir / f"{role}.trace.json"

    def _await_port(self, role: str) -> str:
        port_file = self.workdir / f"{role}.port"
        deadline = time.monotonic() + START_TIMEOUT_SECONDS
        while time.monotonic() < deadline:
            if self.processes[role].poll() is not None:
                log = (self.workdir / f"{role}.log").read_text(errors="replace")
                raise RuntimeError(f"{role} exited during start-up:\n{log[-2000:]}")
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                self.urls[role] = f"http://127.0.0.1:{int(text)}"
                return self.urls[role]
            time.sleep(0.02)
        raise RuntimeError(f"{role} did not announce a port within {START_TIMEOUT_SECONDS}s")

    def _await_healthy(self, role: str) -> None:
        client = ServiceClient(self.urls[role], timeout=10.0, retries=0)
        deadline = time.monotonic() + START_TIMEOUT_SECONDS
        try:
            while True:
                try:
                    client.healthz()
                    return
                except Exception:  # noqa: BLE001 - not listening yet
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.02)
        finally:
            client.close()

    def start(self) -> str:
        """Start keyspace, runners and coordinator; returns the coordinator URL."""
        self._spawn("keyspace", ["store", "serve", "--store",
                                 f"sqlite:{self.workdir / 'verdicts.sqlite'}"])
        keyspace = self._await_port("keyspace")
        for role in ("runner-1", "runner-2"):
            self._spawn(role, ["serve", "--role", "runner", "--workers", "1",
                               "--store", keyspace])
        runners = [self._await_port(role) for role in ("runner-1", "runner-2")]
        self._spawn("coordinator", ["serve", "--role", "coordinator", "--store", keyspace,
                                    "--runner", runners[0], "--runner", runners[1]])
        coordinator = self._await_port("coordinator")
        for role in ("runner-1", "runner-2", "coordinator"):
            self._await_healthy(role)
        return coordinator

    # -- observe -------------------------------------------------------------------------

    def pids(self) -> List[int]:
        return [process.pid for process in self.processes.values()]

    def signal_all(self, signum: int) -> None:
        for process in self.processes.values():
            if process.poll() is None:
                process.send_signal(signum)

    def cpu_seconds(self) -> float:
        """User + system CPU of every fleet process so far (from /proc)."""
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in self.pids():
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        return total / ticks

    # -- stop ----------------------------------------------------------------------------

    def stop(self) -> None:
        """SIGTERM every process and wait for each to end."""
        if self not in LIVE:
            return
        self.signal_all(signal.SIGTERM)
        for process in self.processes.values():
            try:
                process.wait(timeout=STOP_TIMEOUT_SECONDS)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        LIVE.remove(self)


def stop_all() -> None:
    for fleet in list(LIVE):
        fleet.stop()
