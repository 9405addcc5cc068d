"""Load generation: daemon processes, closed-loop clients, CLI processes.

All load comes from the benchmark process: at most two client
connections, or one child process at a time, because the reference
machine has two CPUs.
"""

from __future__ import annotations

import os
import re
import resource
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional

from repro.serve import ServeClient, ServeError

from .inputs import Request

ROOT = Path(__file__).resolve().parent.parent
#: How long a daemon may take to print its banner and answer ``ping``.
START_TIMEOUT = 60.0
#: Ids of client ``k`` start at ``k * ID_STRIDE`` so ids are unique per run.
ID_STRIDE = 1_000_000


def child_env() -> dict:
    """The children's environment: ``src`` importable, and no ``REPRO_*``
    settings (a fault plan or cache directory) leaking in."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def reaped_children_peak_rss_mb() -> float:
    """Peak RSS of the largest child reaped so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Daemon:
    """One ``repro-served`` process on an ephemeral port."""

    def __init__(self, argv: List[str], log_path: Path):
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL)
        try:
            self.port = self._await_banner()
            self._await_ping()
        except BaseException:
            self.kill()
            raise

    @classmethod
    def start(cls, work: Path, spans: Optional[Path] = None) -> "Daemon":
        args = ["--host", "127.0.0.1", "--port", "0"]
        if spans is None:
            argv = [sys.executable, "-m", "repro.tools.repro_served", *args]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" /
                                        "traced_entry.py"),
                    str(spans), "repro_served", *args]
        return cls(argv, work / "daemon.log")

    def _await_banner(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            line = stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            match = re.search(r"listening on [^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise RuntimeError(f"repro-served did not start (see "
                           f"{self.log_path})")

    def _await_ping(self) -> None:
        with ServeClient(host="127.0.0.1", port=self.port,
                         timeout=START_TIMEOUT) as client:
            client.ping()

    def client(self, index: int = 0) -> ServeClient:
        client = ServeClient(host="127.0.0.1", port=self.port, timeout=60.0)
        client._next_id = index * ID_STRIDE
        return client

    def stop(self) -> None:
        """Ask the daemon to shut down and reap it."""
        try:
            with self.client(9) as client:
                client.shutdown()
            self.process.wait(timeout=30)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self._close()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._close()

    def _close(self) -> None:
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


@dataclass
class Sample:
    """One request as the client saw it."""

    client: int
    request_id: int
    request: Request
    start: float
    end: float
    ok: bool
    retries: int = 0
    error: Optional[str] = None
    #: What the oracle needs from the response (text or a verdict).
    result: object = None


def closed_loop(daemon: Daemon, stream: Iterator[Request], seconds: float,
                consume: Callable[[Request, dict], object],
                clients: int = 2) -> List[Sample]:
    """Each of ``clients`` connections sends its next request only when
    the previous one is answered, until ``seconds`` have passed.
    ``consume(request, response)`` keeps what the oracle needs."""
    lock = threading.Lock()
    samples: List[Sample] = []
    failures: List[BaseException] = []
    deadline = time.perf_counter() + seconds

    def worker(index: int) -> None:
        try:
            with daemon.client(index) as client:
                while time.perf_counter() < deadline:
                    with lock:
                        request = next(stream)
                    first_id = client._next_id + 1
                    start = time.perf_counter()
                    try:
                        response = client.request(**request.fields)
                        error = None
                    except ServeError as failure:
                        response, error = None, str(failure)[:200]
                    end = time.perf_counter()
                    # The client numbers every attempt; the last id is
                    # the one the daemon answered.
                    sample = Sample(index, client._next_id, request, start,
                                    end, ok=error is None,
                                    retries=client._next_id - first_id,
                                    error=error)
                    if response is not None:
                        sample.result = consume(request, response)
                    with lock:
                        samples.append(sample)
        except Exception as error:  # noqa: BLE001 - re-raised below
            failures.append(error)

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return samples


@dataclass
class ProcessResult:
    start: float
    end: float
    code: int
    stdout: str
    stderr: str


def run_process(argv: List[str], timeout: float = 60.0) -> ProcessResult:
    """Spawn one tool process and wait for it to exit."""
    start = time.perf_counter()
    completed = subprocess.run(argv, cwd=ROOT, env=child_env(),
                               capture_output=True, timeout=timeout,
                               stdin=subprocess.DEVNULL)
    end = time.perf_counter()
    return ProcessResult(start, end, completed.returncode,
                         completed.stdout.decode("utf-8", "replace"),
                         completed.stderr.decode("utf-8", "replace"))
