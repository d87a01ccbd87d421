"""The deployment under test: one INI topology, one process per daemon.

Every daemon is a separate ``samforge catalogd/stored/stationd/projectd``
process started through launch.py on free loopback ports, the way the
README deploys the system.  The topology is the demo's, less the
read-only store: a catalog, one tape store, a router station feeding it,
two analysis stations and a project server.
"""

from __future__ import annotations

import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent

CATALOG = "catalog"
PROJECT = "project"
STORE = "stken-sim"
ROUTER = "fcdf-router"
STATION_A = "cdfa-1"
STATION_B = "cdfa-2"
STATIONS = (ROUTER, STATION_A, STATION_B)
SEEDER = "seeder"

READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0


def free_ports(n: int) -> list[int]:
    socks = []
    try:
        for _ in range(n):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class Daemon:
    def __init__(self, label: str, argv: list[str]):
        self.label = label
        self.argv = argv
        self.proc: subprocess.Popen | None = None
        self.addr: str | None = None

    def spawn(self, cwd: Path, trace_dir: Path | None) -> None:
        launcher = [sys.executable, str(BENCH / "launch.py")]
        if trace_dir is not None:
            launcher += ["--trace", str(trace_dir)]
        with open(cwd / f"{self.label}.log", "ab") as log:
            self.proc = subprocess.Popen(launcher + self.argv, cwd=cwd,
                                         stdout=subprocess.PIPE, stderr=log,
                                         stdin=subprocess.DEVNULL)

    def wait_ready(self, deadline: float) -> None:
        fd = self.proc.stdout
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"{self.label} did not report READY")
            readable, _, _ = select.select([fd], [], [], left)
            if readable:
                line = fd.readline().decode(errors="replace")
                if not line.startswith("READY "):
                    raise RuntimeError(f"{self.label} printed {line!r} instead of READY")
                self.addr = line.split()[1]
                return

    def vmhwm_kib(self) -> int:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError(f"no VmHWM for {self.label}")

    def signal_dump(self, trace_dir: Path, timeout: float = STOP_TIMEOUT_S) -> None:
        """Ask a traced daemon for its spans so far and wait until written."""
        out = trace_dir / f"{self.label}-{self.proc.pid}.json"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not out.exists():
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.label} wrote no spans")
            time.sleep(0.01)

    def kill(self) -> None:
        """SIGKILL and reap: no shutdown handler runs."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        if self.proc is not None:
            self.proc.wait()
            self.proc.stdout.close()


class Deployment:
    """All daemons of one round; ``stop`` must run whatever happened."""

    def __init__(self, run_dir: Path, *, mount_latency_ms: int,
                 volume_capacity_bytes: int, cache_capacity_bytes: dict[str, int],
                 trace_dir: Path | None = None):
        self.dir = run_dir
        self.state = run_dir / "state"
        self.trace_dir = trace_dir
        self.config = run_dir / "deploy.ini"
        ports = iter(free_ports(10))
        self.listen = {label: f"127.0.0.1:{next(ports)}"
                       for label in (CATALOG, PROJECT, STORE) + STATIONS}
        self.data_listen = {label: f"127.0.0.1:{next(ports)}"
                            for label in (STORE,) + STATIONS}
        self.config.write_text(_topology_ini(self, mount_latency_ms, volume_capacity_bytes,
                                             cache_capacity_bytes))
        config = ["--config", str(self.config)]
        self.daemons = {
            CATALOG: Daemon(CATALOG, ["catalogd"] + config),
            STORE: Daemon(STORE, ["stored", STORE] + config),
            **{name: Daemon(name, ["stationd", name] + config) for name in STATIONS},
            PROJECT: Daemon(PROJECT, ["projectd"] + config),
        }

    def start(self) -> None:
        self.state.mkdir(parents=True, exist_ok=True)
        for daemon in self.daemons.values():
            daemon.spawn(self.dir, self.trace_dir)
        deadline = time.monotonic() + READY_TIMEOUT_S
        for daemon in self.daemons.values():
            daemon.wait_ready(deadline)

    def addr(self, label: str) -> str:
        return self.daemons[label].addr

    def peak_rss_kib(self) -> dict[str, int]:
        return {label: d.vmhwm_kib() for label, d in self.daemons.items()}

    def restart_catalog(self, answers) -> float:
        """kill -9 the catalog, start it again; seconds until ``answers()`` succeeds."""
        catalog = self.daemons[CATALOG]
        if self.trace_dir is not None:
            catalog.signal_dump(self.trace_dir)
        catalog.kill()
        started = time.monotonic()
        catalog.spawn(self.dir, self.trace_dir)
        catalog.wait_ready(started + READY_TIMEOUT_S)
        answers()
        return time.monotonic() - started

    def stop(self) -> None:
        for daemon in self.daemons.values():
            daemon.stop()


def _topology_ini(dep: Deployment, mount_latency_ms: int, volume_capacity_bytes: int,
                  cache_capacity_bytes: dict[str, int]) -> str:
    def station(name: str, role: str, route: str, endpoints: list[str]) -> str:
        lines = "\n".join(f"    {e}" for e in endpoints)
        return (f"[station {name}]\nrole = {role}\nlisten = {dep.listen[name]}\n"
                f"data_listen = {dep.data_listen[name]}\ncache_dir = state/{name}\n"
                f"cache_capacity_bytes = {cache_capacity_bytes[name]}\n"
                f"route_target = {route}\nendpoints =\n{lines}\n\n")

    return (
        f"[catalog]\nlisten = {dep.listen[CATALOG]}\njournal = state/catalog.journal\n\n"
        f"[project]\nlisten = {dep.listen[PROJECT]}\njournal = state/project.journal\n\n"
        f"[store {STORE}]\nlisten = {dep.listen[STORE]}\n"
        f"data_listen = {dep.data_listen[STORE]}\nroot_dir = state/{STORE}\n"
        f"capacity_bytes = {10**12}\nvolume_capacity_bytes = {volume_capacity_bytes}\n"
        f"mount_latency_ms = {mount_latency_ms}\naccess =\n"
        f"    {ROUTER} read_write\n    {STATION_A} read_only\n"
        f"    {STATION_B} read_only\n    {SEEDER} read_write\n\n"
        + station(ROUTER, "router", STORE, [f"{STORE} read_write 4"])
        + station(STATION_A, "analysis", ROUTER,
                  [f"{STORE} read_only 4", f"{ROUTER} read_write 4", f"{STATION_B} read_only 4"])
        + station(STATION_B, "analysis", ROUTER,
                  [f"{STORE} read_only 4", f"{ROUTER} read_write 4", f"{STATION_A} read_only 4"])
    )


def write_bytes(pid: int) -> int:
    """Bytes the process has caused to be sent to the storage layer."""
    with open(f"/proc/{pid}/io") as fh:
        for line in fh:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    raise RuntimeError(f"no write_bytes for process {pid}")
