"""Processes under test: the `meterwatch` CLI and server, each in its own process."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 170.0  # a hung `analyze` is killed inside the run's 180 s
SERVER_START_TIMEOUT_S = 120.0


class Launcher:
    """Builds `meterwatch` command lines, plain or with span wrappers."""

    def __init__(self, src: Path, spans_file: Path | None):
        self.spans_file = spans_file
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"

    def argv(self, args: list[str]) -> list[str]:
        if self.spans_file is None:
            return [sys.executable, "-m", "meterwatch.cli"] + args
        return [sys.executable, str(BENCH_DIR / "traced_main.py")] + args

    def env_for(self, op: str) -> dict:
        env = dict(self.env)
        if self.spans_file is not None:
            env["PERFBENCH_SPANS"] = str(self.spans_file)
            env["PERFBENCH_OP"] = op
        return env

    def run_cli(self, args: list[str], op: str, log: Path) -> tuple[int, float, float, float]:
        """Run one CLI process; returns (exit code, wall s, peak RSS MB, launch epoch).

        Peak RSS comes from the child's own rusage, collected by wait4.
        """
        with open(log, "wb") as err:
            launched = time.time()
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.argv(args), env=self.env_for(op), stdout=subprocess.DEVNULL, stderr=err)
        # A timer kills a hung child, so the blocking wait4 always returns.
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, launched


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """A `meterwatch serve` process on a free loopback port."""

    def __init__(self, launcher: Launcher, store_dir: Path):
        self.port = free_port()
        self.proc = subprocess.Popen(
            launcher.argv(["serve", "--store", str(store_dir), "--port", str(self.port)]),
            env=launcher.env_for("server"),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def wait_ready(self) -> None:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited with code {}".format(self.proc.returncode))
            try:
                with socket.create_connection(("127.0.0.1", self.port), timeout=1.0):
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise TimeoutError("server did not start listening")
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """High-water resident set size, read from /proc (Linux)."""
        with open("/proc/{}/status".format(self.proc.pid), "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
