"""Check of the `weakmeas verify` document.

Each check returns a list of problems; an empty list means the output is
correct.  None of them calls the code under test.  Standard library only, so
the parent process in run.py can use them without loading numpy and its
thread pool; the checks that need numpy are in oracles.py.
"""

from __future__ import annotations

import json

VERIFY_CRITERIA = 11

# Monte Carlo estimates must lie within this many standard errors of the
# exact answer; a false alarm has probability ~2e-9 per estimate.
PULL_LIMIT = 6.0


def parse_strict(text: str):
    """RFC 8259 JSON: NaN, Infinity and -Infinity are rejected."""

    def reject(token):
        raise ValueError(f"non-finite number {token}")

    return json.loads(text, parse_constant=reject)


def check_verify(returncode: int, stdout: str, stderr: str, validator) -> list[str]:
    """Exit code 0, strict JSON, the result schema and 11 of 11 criteria passed."""
    if returncode != 0:
        return [f"verify: exit code {returncode}: {stderr.strip()[-300:]}"]
    try:
        doc = parse_strict(stdout)
    except ValueError as exc:
        return [f"verify: not strict JSON: {exc}"]
    problems = [f"verify: schema: {err.message}" for err in validator.iter_errors(doc)]
    if problems:
        return problems
    if doc["command"] != "verify":
        return [f"verify: document names command {doc['command']!r}"]
    results = doc["results"]
    passed = sum(1 for r in results.values() if r.get("passed") is True)
    if len(results) != VERIFY_CRITERIA or passed != VERIFY_CRITERIA:
        problems.append(f"verify: {passed} of {len(results)} criteria passed, "
                        f"expected {VERIFY_CRITERIA} of {VERIFY_CRITERIA}")
    if stderr.count("[PASS]") != VERIFY_CRITERIA or "[FAIL]" in stderr:
        problems.append(f"verify: stderr reports {stderr.count('[PASS]')} PASS lines")
    return problems
