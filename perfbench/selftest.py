"""Self-test of the benchmark: deliberately wrong outputs are counted as failed.

    python3 perfbench/run.py --self-test

Each case wraps one weakmeas function so that it returns a corrupted result,
runs one real request of the workload through the same closed loop and
checks that the benchmark uses, and requires the request to be counted as
failed.  The same request with the function left alone must pass.  Takes
about a minute; exits 0 when every case behaves.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import sys
from pathlib import Path

import worker
import workloads

ROOT = Path.cwd()


@contextlib.contextmanager
def patched(target: str, make):
    """Replace ``module.attr`` by ``make(original)`` for the duration."""
    module_name, attr = target.rsplit(".", 1)
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def corrupting(transform):
    """A replacement returning ``transform(result, *args, **kwargs)``."""

    def make(original):
        @functools.wraps(original)
        def wrong(*args, **kwargs):
            return transform(original(*args, **kwargs), *args, **kwargs)

        return wrong

    return make


def _doc_edit(edit):
    """A render_json transform that edits the document before rendering."""

    def transform(text, document):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    return transform


def _set(path, value):
    def edit(doc):
        obj = doc
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value(obj[path[-1]]) if callable(value) else value

    return edit


def _fake_check(result, criterion):
    return dataclasses.replace(result, passed=criterion != 10)


def _instant_check(criterion):
    from weakmeas.verify import CHECKS, CheckResult

    name = next(n for k, n, _ in CHECKS if k == criterion)
    return CheckResult(criterion, name, True, "stub", 0.0)


def _drop_first(results):
    return dict(list(results.items())[1:])


# (workload, function to corrupt, transform)
CASES = [
    ("verify", "weakmeas.verify.run_check", _fake_check),
    ("verify", "weakmeas.cli.render_json",
     _doc_edit(_set(["results", "hardy_weak_value_table", "passed"], False))),
    ("verify", "weakmeas.cli.render_json",
     _doc_edit(_set(["results", "hardy_weak_value_table", "criterion"], float("nan")))),
    ("verify", "weakmeas.cli.render_json", _doc_edit(_set(["unexpected_key"], 1))),
    ("verify", "weakmeas.cli.render_json", _doc_edit(_set(["results"], _drop_first))),
    ("verify", "weakmeas.cli.run", lambda code, argv: 3),
    ("pointer_mc", "weakmeas.pointer.sample",
     lambda r, m, trials, seed: dataclasses.replace(r, readings=r.readings + 0.01)),
    ("pointer_mc", "weakmeas.pointer.position_cdf", lambda c, m, x: c * (1 - 1e-4)),
    ("pointer_mc", "weakmeas.pointer.position_mean", lambda v, m: v + 1e-6),
    ("pointer_mc", "weakmeas.prepost.weak_value",
     lambda wv, a, ens: dataclasses.replace(wv, value=wv.value * (1 + 1e-6))),
    ("pointer_mc", "weakmeas.pointer.window_mass", lambda v, m, lo, hi: v + 1e-4),
    ("pointer_mc", "weakmeas.pointer.simultaneous",
     lambda means, ens, specs: [v + 1e-6 for v in means]),
]


def _one_request(workload: str, ctx: dict):
    """The first request of the workload, seed 7."""
    return next(worker.make_requests(workload, 7, ctx))


def _count(workload: str, request) -> dict:
    return workloads.closed_loop(iter([request]), workload, 0.0)


def _cold_loop_counts_failures(validator) -> bool:
    """run.py's fresh-process loop counts a bad exit as a failed request."""
    import run

    class Stub:
        deadline = float("inf")

        def run(self, *args):
            return run.Child(3, "", "error: computation: injected", 0.01, 1.0)

    requests = run.verify_requests(Stub(), validator, [])
    result = workloads.closed_loop(requests, "verify", 0.0)
    return result["attempted"] == 1 and result["failed"] == 1


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import jsonschema
    import weakmeas.cli
    from weakmeas import hardy

    ctx = {"scenario": hardy.build(),
           "validator": jsonschema.Draft7Validator(weakmeas.cli.result_schema())}
    ok = True
    for workload, target, transform in CASES:
        with contextlib.ExitStack() as stack:
            if workload == "verify":
                # the real criteria take ~25 s; stubs that pass them all stand in
                stack.enter_context(patched("weakmeas.verify.run_check",
                                            lambda original: _instant_check))
            clean = _count(workload, _one_request(workload, ctx))
            stack.enter_context(patched(target, corrupting(transform)))
            bad = _count(workload, _one_request(workload, ctx))
        behaves = clean["failed"] == 0 and bad["failed"] == bad["attempted"] == 1
        ok &= behaves
        print(f"{'ok  ' if behaves else 'FAIL'} {workload:10s} {target}: "
              f"clean failed={clean['failed']}, corrupted failed={bad['failed']} "
              f"({(bad['problems'] or ['no problem reported'])[0][:100]})")
    passed = _cold_loop_counts_failures(ctx["validator"])
    ok &= passed
    print(f"{'ok  ' if passed else 'FAIL'} fresh-process loop counts a bad exit")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1
