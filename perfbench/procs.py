"""Running the program: ``pld`` CLI children and a ``pld serve`` daemon.

Every child runs from the benchmark's work directory with the
checkout's ``src`` on ``PYTHONPATH`` and ``TMPDIR`` pointed inside the
work directory, so nothing is read or written outside the checkout.
In a traced run each child starts through ``bootstrap.py`` instead of
``python -m repro.cli`` and leaves a spans file behind.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

from perfbench.spans import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BOOTSTRAP = os.path.join(HERE, "bootstrap.py")

#: Seconds a daemon may take to print its listening line.
DAEMON_START_TIMEOUT = 60.0
_LISTENING = re.compile(r"listening on ([\w.:-]+):(\d+) ")


@dataclass
class Finished:
    """One finished CLI child."""

    code: int
    stdout: str
    stderr: str
    spawn: float          # monotonic clock at spawn
    end: float            # monotonic clock once reaped
    maxrss_mb: float
    spans: Optional[str] = None

    @property
    def wall(self) -> float:
        return self.end - self.spawn


class Program:
    """How to start the program from one work directory."""

    def __init__(self, work: str, traced: bool):
        self.work = work
        self.traced = traced
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
        self.env["TMPDIR"] = work
        # The daemon's listening line must reach its log file at once.
        self.env["PYTHONUNBUFFERED"] = "1"
        self._count = 0

    def _next(self, stem: str) -> str:
        self._count += 1
        return os.path.join(self.work, f"{stem}-{self._count}")

    def argv(self, pld_args: List[str], spans: Optional[str]) -> List[str]:
        if spans is not None:
            return [sys.executable, BOOTSTRAP, spans] + pld_args
        return [sys.executable, "-m", "repro.cli"] + pld_args

    def cli(self, pld_args: List[str], timeout: float = 170.0) -> Finished:
        """Run one ``pld`` command to completion and reap it with its
        own resource usage (``ru_maxrss`` of this child alone)."""
        stem = self._next("cli")
        spans = stem + ".spans.json" if self.traced else None
        return self.python(self.argv(pld_args, spans), stem, timeout, spans)

    def python(self, argv: List[str], stem: str, timeout: float,
               spans: Optional[str] = None) -> Finished:
        out_path, err_path = stem + ".out", stem + ".err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            spawn = clock()
            child = subprocess.Popen(argv, stdout=out, stderr=err,
                                     cwd=self.work, env=self.env)
            try:
                status, usage = _reap(child, timeout)
            finally:
                if child.returncode is None:
                    child.kill()
                    _reap(child, 10.0)
            end = clock()
        with open(out_path) as out, open(err_path) as err:
            stdout, stderr = out.read(), err.read()
        return Finished(status, stdout, stderr, spawn, end,
                        usage.ru_maxrss / 1024.0, spans)

    def daemon(self, state: str, extra: List[str]) -> "Daemon":
        stem = self._next("serve")
        spans = stem + ".spans.json" if self.traced else None
        argv = self.argv(["serve", state, "--port", "0"] + extra, spans)
        return Daemon(argv, stem, self, spans)


def _reap(child: subprocess.Popen, timeout: float):
    """``wait4`` the child (polling, so a hung child cannot block us
    past ``timeout``); returns ``(exit code, rusage)``."""
    deadline = clock() + timeout
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid == child.pid:
            child.returncode = os.waitstatus_to_exitcode(status)
            return child.returncode, usage
        if clock() > deadline:
            raise TimeoutError(f"{child.args[-4:]} still running after "
                               f"{timeout:.0f}s")
        time.sleep(0.005)


class Daemon:
    """One ``pld serve`` child, reached through ``ServiceClient``."""

    def __init__(self, argv: List[str], stem: str, program: Program,
                 spans: Optional[str]):
        self.spans = spans
        self.out_path = stem + ".out"
        self._out = open(self.out_path, "w")
        self._err = open(stem + ".err", "w")
        self.spawn = clock()
        self.child = subprocess.Popen(argv, stdout=self._out,
                                      stderr=self._err, cwd=program.work,
                                      env=program.env)
        self.host, self.port = "127.0.0.1", 0

    def wait_ready(self) -> float:
        """Block until the daemon answers ``ping``; returns seconds from
        spawn to the first answer."""
        from repro.service.client import ServiceClient

        deadline = self.spawn + DAEMON_START_TIMEOUT
        while True:
            if self.child.poll() is not None:
                raise RuntimeError(f"pld serve exited with "
                                   f"{self.child.returncode} at start")
            with open(self.out_path) as out:
                match = _LISTENING.search(out.read())
            if match:
                break
            if clock() > deadline:
                raise RuntimeError("pld serve did not start listening")
            time.sleep(0.002)
        self.host, self.port = match.group(1), int(match.group(2))
        with ServiceClient(self.host, self.port) as client:
            client.ping()
        return clock() - self.spawn

    def client(self, timeout: float = 120.0):
        from repro.service.client import ServiceClient
        return ServiceClient(self.host, self.port, timeout=timeout)

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.child.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """Ask for a graceful stop, then make sure the child is gone."""
        try:
            if self.child.poll() is None:
                with self.client(timeout=30.0) as client:
                    client.shutdown()
            return self.child.wait(timeout=60)
        except Exception:
            self.child.kill()
            self.child.wait(timeout=10)
            raise
        finally:
            self._out.close()
            self._err.close()

    def kill(self) -> None:
        if self.child.poll() is None:
            self.child.kill()
            self.child.wait(timeout=10)
        self._out.close()
        self._err.close()

