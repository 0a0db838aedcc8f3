"""Benchmark for weakmeas: two workloads, checked outputs, one JSON result.

Run from the root of a weakmeas checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Workloads: verify and pointer_mc (see perfbench/README.md for why each
exists and which metrics it moves).  With ``--trace 0`` the result carries
the end-to-end metrics setup_s, request_s and peak_rss_mb; with
``--trace 1`` the per-layer metrics of a traced run.

This process generates all load itself.  It runs one child process at a time
(a fresh ``weakmeas verify`` process per verify request, one worker process
for pointer_mc and for every traced run) and starts no threads.
The line before the last records the environment, the floor timings and the
workload's own named metrics; the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from tracing import LAYER_UNITS

ROOT = Path.cwd()
OUT = ROOT / "perfbench-out"
WORKER = Path(__file__).resolve().with_name("worker.py")

# Each run must end within 180 s: a child still running this long after the
# start is killed, its request counts as failed, and no request starts later.
DEADLINE_S = 170.0
SETUP_REPEATS = 5
FLOOR_REPEATS = 3

# The console script `weakmeas` runs exactly this.
CLI_ENTRY = "from weakmeas.cli import main; main()"
IMPORT_CLI = "import weakmeas.cli"
IMPORT_AND_BUILD = "import weakmeas; from weakmeas import hardy; hardy.build()"


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded("a child process was still running at the run deadline")


def _on_term(signum, frame):
    sys.exit(128 + signum)


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float


class Children:
    """Runs one child process at a time; records its wall time and peak RSS."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        old = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.signal(signal.SIGTERM, _on_term)

    def run(self, *args: str) -> Child:
        err_path = OUT / "child.stderr"
        with open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=ROOT)
            signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.monotonic(), 0.01))
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # the deadline, SIGTERM or Ctrl-C: end the child before leaving
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                proc.stdout.close()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return Child(proc.returncode, out.decode(errors="replace"), stderr, wall,
                     usage.ru_maxrss / 1024.0)

    def median_wall(self, repeats: int, *args: str) -> float:
        walls = []
        for _ in range(repeats):
            child = self.run(*args)
            if child.returncode != 0:
                raise RuntimeError(f"{' '.join(args)} failed: {child.stderr.strip()[-300:]}")
            walls.append(child.wall_s)
        return statistics.median(walls)


def environment(children: Children) -> tuple[dict, dict]:
    """Compile bytecode, import everything once, and record the host."""
    compiled = children.run("-m", "compileall", "-q", str(ROOT / "src"))
    probe = children.run(str(WORKER), "probe")
    if compiled.returncode != 0 or probe.returncode != 0:
        raise RuntimeError(f"warm-up failed: {(compiled.stderr + probe.stderr).strip()[-500:]}")
    env = json.loads(probe.stdout)
    schema = env.pop("schema")
    if not Path(env["weakmeas_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported weakmeas from {env['weakmeas_file']}, not this checkout")
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    env.update(nproc=len(os.sched_getaffinity(0)), cpu_model=model)
    return env, schema


def verify_requests(children: Children, validator, rss: list):
    """Each request is a fresh `weakmeas verify`; none starts after the deadline."""
    while time.monotonic() < children.deadline:

        def request(clock):
            with clock():
                child = children.run("-c", CLI_ENTRY, *workloads.VERIFY_ARGV)
            rss.append(child.peak_rss_mb)
            problems = checks.check_verify(child.returncode, child.stdout, child.stderr,
                                           validator)
            return problems, len(child.stdout)

        yield request


def worker_loop(children: Children, workload: str, seed: int, seconds: float,
                trace: bool) -> dict:
    args = [str(WORKER), "run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        args += ["--trace-path", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
    try:
        child = children.run(*args)
    except DeadlineExceeded as exc:
        problem = str(exc)
    else:
        if child.returncode == 0:
            result = json.loads(child.stdout.splitlines()[-1])
            result["peak_rss_mb"] = child.peak_rss_mb
            return result
        problem = f"worker exit {child.returncode}: {child.stderr.strip()[-500:]}"
    return {"request_s": [], "attempted": 1, "failed": 1, "parts": [], "peak_rss_mb": 0.0,
            "problems": [problem]}


def named_metrics(workload: str, result: dict) -> dict:
    """The workload's own metric names (README), next to the generic request_s."""
    if workload == "verify":
        return {"verify_s": statistics.median(result["request_s"]) if result["request_s"] else None}
    a = [p["a"] for p in result["parts"] if "a" in p]
    b = [p["b"] for p in result["parts"] if "b" in p]
    return {
        "mc_readings_per_s": (len(workloads.HARDY_NAMES) * workloads.READINGS / statistics.median(a)
                              if a else None),
        "closed_form_calls_per_s": workloads.CHAINS / statistics.median(b) if b else None,
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "weakmeas" / "__init__.py").is_file():
        print(f"error: no weakmeas source under {ROOT / 'src'}; run from the root of a "
              "weakmeas checkout", file=sys.stderr)
        return 2
    import jsonschema

    OUT.mkdir(exist_ok=True)
    children = Children(time.monotonic() + DEADLINE_S)
    env, schema = environment(children)
    validator = jsonschema.Draft7Validator(schema)

    floor = {"floor.python_s": children.median_wall(FLOOR_REPEATS, "-c", "pass"),
             "floor.numpy_import_s": children.median_wall(FLOOR_REPEATS, "-c", "import numpy")}
    cold = workload == "verify"
    setup_s = children.median_wall(SETUP_REPEATS, "-c", IMPORT_CLI if cold else IMPORT_AND_BUILD)

    if trace:
        result = worker_loop(children, workload, seed, seconds, trace=True)
        cli_import_s = setup_s if cold else children.median_wall(SETUP_REPEATS, "-c", IMPORT_CLI)
        metrics = {name: {"value": result.get("layer", {}).get(name, 0.0), "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        metrics["cli.import_s"]["value"] = cli_import_s
        for name, value in floor.items():
            metrics[name]["value"] = value
    else:
        if cold:
            rss = []
            requests = verify_requests(children, validator, rss)
            result = workloads.closed_loop(requests, workload, seconds)
            result["peak_rss_mb"] = max(rss, default=0.0)
        else:
            result = worker_loop(children, workload, seed, seconds, trace=False)
        times = result["request_s"]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "request_s": {"value": statistics.median(times) if times else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }

    attempted, failed = max(result["attempted"], 1), result["failed"]
    times = result["request_s"]
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, **floor,
        "requests": len(times),
        "request_s_min": min(times, default=None), "request_s_max": max(times, default=None),
        "fail_ratio": failed / attempted,
        "named": named_metrics(workload, result) if not trace else {},
        "problems": result["problems"],
    }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="weakmeas benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that deliberately wrong outputs are counted as failed")
    args = parser.parse_args()
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, DeadlineExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
