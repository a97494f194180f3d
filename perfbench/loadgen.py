"""Open-loop HTTP load generator over a few keep-alive connections.

Requests are due on a fixed schedule whatever the server does (an open
loop: independent users).  Each connection thread takes the next due
request, sleeps until it is due if the connection is idle, sends it and
waits for the reply; when every connection is busy the request waits
in the generator, and because latency is timed from the due time that
backlog counts against the server.  Generator lag is measured only on
sends whose connection was idle at the due time, so it reports how late
the generator itself woke up, not the server's backlog.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass

__all__ = ["Outcome", "poisson_offsets", "run_open_loop"]

_HEADERS = {"Content-Type": "application/json"}


@dataclass
class Outcome:
    """What happened to one scheduled request (times are monotonic s)."""

    due: float
    sent: float
    done: float
    idle: bool
    status: int
    payload: bytes | None
    error: str | None

    @property
    def latency_ms(self) -> float:
        """Milliseconds from the due time to the end of the reply."""
        return (self.done - self.due) * 1e3


def poisson_offsets(rng, rate: float, count: int) -> list[float]:
    """Arrival offsets (seconds) of ``count`` Poisson arrivals."""
    return [float(offset) for offset in
            rng.exponential(1.0 / rate, size=count).cumsum()]


def run_open_loop(host: str, port: int, offsets: list[float],
                  bodies: list[bytes], connections: int,
                  timeout: float = 30.0) -> tuple[list[Outcome], float]:
    """Send ``bodies[i]`` to ``POST /impute`` at ``offsets[i]`` seconds.

    Returns one :class:`Outcome` per request, in schedule order, and the
    generator's own CPU seconds over the run.
    """
    outcomes: list[Outcome | None] = [None] * len(offsets)
    lock = threading.Lock()
    cursor = [0]
    start = time.monotonic() + 0.05

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(offsets):
                    return
                due = start + offsets[index]
                wait = due - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                sent = time.monotonic()
                status, payload, error = 0, None, None
                try:
                    conn.request("POST", "/impute", bodies[index], _HEADERS)
                    response = conn.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(host, port,
                                                      timeout=timeout)
                outcomes[index] = Outcome(due, sent, time.monotonic(),
                                          wait > 0, status, payload, error)
        finally:
            conn.close()

    cpu_before = time.process_time()
    threads = [threading.Thread(target=worker, name=f"loadgen-{slot}")
               for slot in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, time.process_time() - cpu_before
