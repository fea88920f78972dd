"""The storage server as a separate process, measured from outside.

:class:`ServerProcess` starts ``python -m repro serve`` with its default
flags (apart from the preset, an ephemeral port and a private store
root), reads the bound port from its first line of output, and stops it
with SIGINT so it shuts down cleanly. CPU time and resident memory come
from ``/proc/<pid>``, never from the server's own ``STATS`` call, which
decodes every stored record and would measure itself.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def serve_argv(preset: str, root: Path) -> list:
    """The ``repro serve`` arguments: default flags except these four."""
    return ["serve", "--preset", preset, "--port", "0", "--root", str(root)]


class ServerProcess:
    """One ``repro serve`` process over a fresh store root.

    ``launcher`` (optional) is a script that takes a spans-output path
    followed by ``repro`` CLI arguments; the traced run uses it to wrap
    the server's layer functions before the CLI builds the service.
    """

    def __init__(self, repo_root: Path, preset: str, store_root: Path, *,
                 launcher: Path = None, spans_out: Path = None):
        self.repo_root = repo_root
        self.store_root = store_root
        args = serve_argv(preset, store_root)
        if launcher is None:
            self.argv = [sys.executable, "-m", "repro"] + args
        else:
            self.argv = [sys.executable, str(launcher), str(spans_out)] + args
        self.proc = None
        self.host = None
        self.port = None

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        env = dict(os.environ)
        src = str(self.repo_root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            self.argv, cwd=self.repo_root, env=env,
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + timeout
        line = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop()
                raise RuntimeError("server did not report its port in time")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        remaining)
            if not ready:
                continue
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                self.stop()
                raise RuntimeError("server exited before listening")
            line += chunk
            match = _LISTENING.search(line.decode("utf-8", "replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return self

    @property
    def pid(self) -> int:
        return self.proc.pid

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.pid}/stat", "rb") as handle:
            stat = handle.read()
        # Fields after the parenthesised command name; utime and stime
        # are fields 14 and 15 of the whole line.
        fields = stat[stat.rindex(b")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmRSS line in /proc status")

    def stop(self, timeout: float = 20.0) -> int:
        """SIGINT (clean shutdown), then SIGKILL; waits for the exit."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        code = self.proc.returncode
        self.proc = None
        return code


def tree_bytes(root: Path) -> int:
    """Bytes of every regular file under ``root`` (the store on disk)."""
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(directory, name)).st_size
            except FileNotFoundError:
                pass  # a tmp file renamed away mid-walk
    return total
