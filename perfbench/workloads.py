"""Workload definitions shared by run.py and the worker process.

The inputs of every workload, and the closed loop that runs its requests.
Standard library only: run.py imports this module and must not load
numpy, whose import starts a thread.
"""

from __future__ import annotations

import time

WORKLOADS = ("verify", "pointer_mc")

# verify: every request runs the same argv; the criteria use fixed seeds.
VERIFY_ARGV = ("verify",)

# pointer_mc, per round: part (a) on the eight Hardy observables, part (b)
# on random small ensembles, plus two-pointer grid couplings.
HARDY_NAMES = ("N_minus_O", "N_plus_O", "N_minus_NO", "N_plus_NO",
               "N_pair_O_O", "N_pair_O_NO", "N_pair_NO_O", "N_pair_NO_NO")
READINGS = 1_000_000
CDF_STRIDE = 10
CHAINS = 400
JOINT_CALLS = 2
MIN_OVERLAP = 0.2


class Clock:
    """Sums the time spent inside ``with clock(label):`` blocks."""

    def __init__(self):
        self.parts: dict[str, float] = {}
        self._label = ""

    def __call__(self, label: str = "") -> "Clock":
        self._label = label
        return self

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        self.parts[self._label] = self.parts.get(self._label, 0.0) + elapsed

    @property
    def total(self) -> float:
        return sum(self.parts.values())


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def closed_loop(requests, workload: str, seconds: float, tracer=None) -> dict:
    """One client: the next request starts when the previous one has finished.

    At least one request runs.  Another starts only if it would end nearer
    to ``seconds`` than stopping now, judged by the last request's time, so a
    run measures close to ``seconds``.  A request that raises or whose
    checks find problems counts as failed.
    """
    times, parts, problems, doc_bytes = [], [], [], []
    failed = 0
    start = last_start = time.perf_counter()
    for request in requests:
        if times:
            now = time.perf_counter()
            if now - start + (now - last_start) / 2 > seconds:
                break
            last_start = now
        clock = Clock()
        root = tracer.request(workload) if tracer else None
        try:
            found, size = request(clock)
        except Exception as exc:  # a failed operation is counted, not fatal
            found, size = [f"{type(exc).__name__}: {exc}"], 0
        finally:
            if root is not None:
                tracer.close(root)
        times.append(clock.total)
        parts.append(clock.parts)
        doc_bytes.append(size)
        if found:
            failed += 1
            problems += found[:3]
    return {"request_s": times, "parts": parts, "attempted": len(times), "failed": failed,
            "problems": problems[:10], "doc_bytes": doc_bytes}
