"""Command-line interface: scenario runs with machine-readable output.

Every command emits one JSON document (or CSV table with ``--format csv``)
to ``--output-path`` or standard output.  Documents are deterministic for a
given command line: the ``timing_ms`` field stays ``null`` (and ``verify``
criteria carry no ``elapsed_ms``) unless ``--timing`` is passed, and all
Monte Carlo commands require an explicit seed.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 computation error.  Errors print a single machine-parsable line
``error: <kind>: <reason>`` on stderr.

Parameters may also come from a flat key-value config file (``--config``):
UTF-8 text, one ``key = value`` per line, ``#`` comments and blank lines
ignored, keys matching the long option names; command-line flags override
file values.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import collective, hardy, pointer, prepost, verify
from .errors import WeakMeasError
from .prepost import PrePostEnsemble

SCHEMA_VERSION = "1"

POSTSELECT_CHOICES = {
    "dd": "D_plus_D_minus",
    "cc": "C_plus_C_minus",
    "cd": "C_plus_D_minus",
    "dc": "D_plus_C_minus",
    "oo": "O_O",
}

_DEFAULTS = {
    "g": 0.05,
    "delta": 1.0,
    "trials": 100_000,
    "n_pairs": 100,
    "c": 5.0,
    "observable": None,
    "postselect": "dd",
    "format": "json",
    "output_path": None,
    "seed": None,
    "pdf_points": None,
    "interaction": True,
    "timing": False,
}

_OPTION_TYPES = {
    "g": float,
    "delta": float,
    "c": float,
    "trials": int,
    "seed": int,
    "n_pairs": int,
    "pdf_points": int,
    "observable": str,
    "postselect": str,
    "format": str,
    "output_path": str,
    "interaction": bool,
    "timing": bool,
}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with single-line errors and exit code 2."""

    def error(self, message):
        print(f"error: config: {message}", file=sys.stderr)
        raise SystemExit(2)


def result_schema() -> dict:
    with resources.files("weakmeas.schemas").joinpath("result.schema.json").open("rb") as fh:
        return json.load(fh)


def _parse_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _OPTION_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        typ = _OPTION_TYPES[key]
        try:
            if typ is bool:
                lowered = value.lower()
                if lowered in ("true", "yes", "1"):
                    values[key] = True
                elif lowered in ("false", "no", "0"):
                    values[key] = False
                else:
                    raise ValueError(value)
            else:
                values[key] = typ(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad {typ.__name__} value {value!r} "
                              f"for {key}") from exc
    return values


def _merge_params(args: argparse.Namespace) -> tuple[dict, set[str]]:
    """config-file values under command-line flags under built-in defaults.

    Also reports which keys were explicitly provided (by either source).
    """
    params = dict(_DEFAULTS)
    provided: set[str] = set()
    if getattr(args, "config", None):
        from_file = _parse_config_file(args.config)
        params.update(from_file)
        provided |= set(from_file)
    for key in _OPTION_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
            provided.add(key)
    return params, provided


def _require_positive(params: dict, *names: str) -> None:
    for name in names:
        value = params[name]
        if value is None or value <= 0 or not math.isfinite(float(value)):
            raise ConfigError(f"{name} must be positive, got {value!r}")


def _resolve_observables(params: dict, scenario,
                         default: str | None = None) -> list[str]:
    name = params["observable"] or default
    if name is None or name == "all":
        return list(hardy.OBSERVABLE_ORDER)
    if name not in hardy.OBSERVABLE_ORDER:
        raise ConfigError(
            f"unknown observable {name!r}; valid names: "
            f"{', '.join(hardy.OBSERVABLE_ORDER)} (or 'all')")
    return [name]


def _resolve_ensemble(params: dict, scenario) -> PrePostEnsemble:
    key = params["postselect"]
    if key not in POSTSELECT_CHOICES:
        raise ConfigError(f"unknown postselect {key!r}; choose from "
                          f"{', '.join(sorted(POSTSELECT_CHOICES))}")
    post = hardy.postselection_variants(scenario)[POSTSELECT_CHOICES[key]]
    return PrePostEnsemble(scenario.preselected, post)


def _cx(value: complex) -> dict:
    # + 0.0 turns negative zero into plain zero for stable serialization
    return {"re": float(value.real) + 0.0, "im": float(value.imag) + 0.0}


# ---------------------------------------------------------------------------
# command handlers: each returns (results, inputs_echo, warnings, csv_table)
# ---------------------------------------------------------------------------

def _cmd_hardy_table(params: dict, provided: set[str]):
    scenario = hardy.build()
    table = hardy.weak_value_table(scenario)
    results: dict = {name: _cx(value) for name, value in table.entries.items()}
    results["p_postselect"] = prepost.postselection_probability(scenario.ensemble)
    rows = [("name", "re", "im")]
    rows += [(name, value.real + 0.0, value.imag + 0.0)
             for name, value in table.entries.items()]
    rows.append(("p_postselect", results["p_postselect"], 0.0))
    return results, {}, [], rows


def _cmd_detector_stats(params: dict, provided: set[str]):
    scenario = hardy.build()
    stats = hardy.detector_statistics(scenario, interaction=params["interaction"])
    results = dict(stats.distribution())
    results["D_plus_D_minus_given_no_annihilation"] = stats.dark_pair_given_no_annihilation
    rows = [("outcome", "probability")] + [(k, v) for k, v in results.items()]
    return results, {"interaction": params["interaction"]}, [], rows


def _cmd_abl(params: dict, provided: set[str]):
    scenario = hardy.build()
    ensemble = _resolve_ensemble(params, scenario)
    names = _resolve_observables(params, scenario)
    results = {}
    rows = [("observable", "eigenvalue", "probability")]
    for name in names:
        obs = scenario.observable(name)
        dist = prepost.abl_probabilities(obs, ensemble)
        certain = prepost.certainty_check(obs, ensemble)
        results[name] = {
            "entries": [{"eigenvalue": a, "probability": p} for a, p in dist.entries],
            "certain": certain,
        }
        rows += [(name, a, p) for a, p in dist.entries]
    inputs = {"observable": params["observable"] or "all", "postselect": params["postselect"]}
    return results, inputs, [], rows


def _cmd_weak_measure(params: dict, provided: set[str]):
    _require_positive(params, "g", "delta", "trials")
    if params["trials"] > pointer.MAX_TRIALS:
        raise ConfigError(f"trials must be at most {pointer.MAX_TRIALS}, "
                          f"got {params['trials']}")
    if params["seed"] is None:
        raise ConfigError("seed is required (no silent entropy); pass --seed")
    if params["seed"] < 0:
        raise ConfigError("seed must be non-negative")
    scenario = hardy.build()
    ensemble = _resolve_ensemble(params, scenario)
    names = _resolve_observables(params, scenario)
    if params["pdf_points"] and len(names) != 1:
        raise ConfigError("--pdf-points needs a single --observable")
    warnings = []
    results = {}
    rows = [("observable", "estimate", "stderr", "trials", "weak_value_re", "weak_value_im")]
    pdf_rows = None
    for name in names:
        spec = pointer.CouplingSpec(scenario.observable(name),
                                    g=params["g"], delta=params["delta"])
        if not spec.is_weak:
            warnings.append(
                f"{name}: g*spectral_span = {spec.g * spec.spectral_span:g} is not "
                f"below delta = {spec.delta:g}; outside the weak regime")
        m = pointer.mixture(ensemble, spec)
        reading = pointer.sample(m, params["trials"], seed=params["seed"])
        est = pointer.estimate(reading, params["g"])
        wv = prepost.weak_value(spec.observable, ensemble).value
        results[name] = {
            "estimate": est.estimate,
            "stderr": est.stderr,
            "trials": est.trials,
            "weak_value": _cx(wv),
        }
        rows.append((name, est.estimate, est.stderr, est.trials, wv.real, wv.imag))
        if params["pdf_points"] and len(names) == 1:
            grid = np.linspace(*_pdf_span(m), params["pdf_points"])
            pdf = pointer.position_pdf(m, grid)
            pdf_rows = [("q", "pdf")] + list(zip(grid.tolist(), pdf.tolist()))
    inputs = {"g": params["g"], "delta": params["delta"], "trials": params["trials"],
              "seed": params["seed"], "postselect": params["postselect"],
              "observable": params["observable"] or "all"}
    return results, inputs, warnings, (pdf_rows or rows)


def _pdf_span(m: pointer.PointerMixture) -> tuple[float, float]:
    span = float(np.max(np.abs(m.shifts))) + 8.0 * m.delta
    return -span, span


def _cmd_simultaneous(params: dict, provided: set[str]):
    _require_positive(params, "g", "delta")
    scenario = hardy.build()
    ensemble = _resolve_ensemble(params, scenario)
    specs = [pointer.CouplingSpec(scenario.observable(name),
                                  g=params["g"], delta=params["delta"])
             for name in hardy.OBSERVABLE_ORDER]
    warnings = []
    if any(not s.is_weak for s in specs):
        warnings.append("couplings are outside the weak regime; marginal means "
                        "will not track the weak values")
    means = pointer.simultaneous(ensemble, specs)
    results = {name: {"mean": mean, "mean_over_g": mean / params["g"]}
               for name, mean in zip(hardy.OBSERVABLE_ORDER, means)}
    rows = [("observable", "mean", "mean_over_g")]
    rows += [(name, v["mean"], v["mean_over_g"]) for name, v in results.items()]
    inputs = {"g": params["g"], "delta": params["delta"], "postselect": params["postselect"]}
    return results, inputs, warnings, rows


def _cmd_collective(params: dict, provided: set[str]):
    _require_positive(params, "g", "c")
    if params["n_pairs"] < 1:
        raise ConfigError(f"n_pairs must be >= 1, got {params['n_pairs']}")
    scenario = hardy.build()
    ensemble = _resolve_ensemble(params, scenario)
    names = _resolve_observables(params, scenario, default="N_pair_NO_NO")
    if len(names) != 1:
        raise ConfigError("collective needs a single observable")
    n = params["n_pairs"]
    if "delta" in provided:
        delta = params["delta"]
        if delta <= 0 or not math.isfinite(delta):
            raise ConfigError(f"delta must be positive, got {delta!r}")
    else:
        delta = params["c"] * params["g"] * math.sqrt(n)
    spec = collective.CollectiveSpec(ensemble, scenario.observable(names[0]),
                                     n_pairs=n, g=params["g"], delta=delta)
    stats = collective.collective_pointer_stats(spec)
    wv_total = collective.collective_weak_value(spec)
    p_success = collective.success_probability(spec)
    results = {
        "mean": stats.mean,
        "mean_over_g": stats.mean / params["g"],
        "mode": stats.mode,
        "mode_over_g": stats.mode / params["g"],
        "spread": stats.spread,
        "spread_over_g": stats.spread / params["g"],
        "success_probability": p_success,
        "success_probability_log10": 2.0 * n * math.log10(abs(ensemble.overlap)),
        "collective_weak_value": _cx(wv_total),
        "delta": delta,
    }
    if params["pdf_points"]:
        grid, pdf = collective.density_grid(spec, params["pdf_points"])
        rows = [("q", "pdf")] + list(zip(grid.tolist(), pdf.tolist()))
    else:
        rows = [("name", "value")] + [(k, v) for k, v in results.items()
                                      if not isinstance(v, dict)]
    inputs = {"observable": names[0], "n_pairs": n, "g": params["g"],
              "delta": delta, "c": params["c"], "postselect": params["postselect"]}
    return results, inputs, list(stats.warnings), rows


def _cmd_verify(params: dict, provided: set[str]):
    results = {}
    rows = [("criterion", "name", "passed", "detail")]
    failed = 0
    for num, name, _ in verify.CHECKS:
        outcome = verify.run_check(num)
        status = "PASS" if outcome.passed else "FAIL"
        print(f"[{status}] criterion {num:2d} {name}: {outcome.detail} "
              f"({outcome.elapsed_ms:.0f} ms)", file=sys.stderr)
        results[name] = {"criterion": num, "passed": outcome.passed,
                         "detail": outcome.detail}
        if params["timing"]:
            results[name]["elapsed_ms"] = round(outcome.elapsed_ms, 3)
        rows.append((num, name, outcome.passed, outcome.detail))
        failed += 0 if outcome.passed else 1
    return results, {}, ([] if failed == 0 else [f"{failed} criteria failed"]), rows


_HANDLERS = {
    "hardy-table": _cmd_hardy_table,
    "detector-stats": _cmd_detector_stats,
    "abl": _cmd_abl,
    "weak-measure": _cmd_weak_measure,
    "simultaneous": _cmd_simultaneous,
    "collective": _cmd_collective,
    "verify": _cmd_verify,
}


def render_json(document: dict) -> str:
    """Strict RFC 8259 JSON: a NaN or infinity raises ValueError."""
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _render_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="weakmeas",
                     description="pre/post-selected weak measurement simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value parameter file")
        p.add_argument("--output-path", dest="output_path", help="write here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--timing", action="store_const", const=True, default=None,
                       help="include wall time in the document (breaks byte determinism)")

    p = sub.add_parser("hardy-table", help="the eight weak values and p_postselect")
    add_common(p)

    p = sub.add_parser("detector-stats", help="detector coincidence probabilities")
    add_common(p)
    p.add_argument("--no-interaction", dest="interaction", action="store_const",
                   const=False, default=None,
                   help="disable the annihilation projection")

    p = sub.add_parser("abl", help="ideal intermediate measurement statistics")
    add_common(p)
    p.add_argument("--observable", default=None)
    p.add_argument("--postselect", default=None, choices=sorted(POSTSELECT_CHOICES))

    p = sub.add_parser("weak-measure", help="Monte Carlo pointer read-out")
    add_common(p)
    p.add_argument("--observable", default=None)
    p.add_argument("--postselect", default=None, choices=sorted(POSTSELECT_CHOICES))
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pdf-points", dest="pdf_points", type=int, default=None,
                   help="with --format csv and one observable: emit q,pdf columns")

    p = sub.add_parser("simultaneous", help="joint weak measurement of all eight")
    add_common(p)
    p.add_argument("--postselect", default=None, choices=sorted(POSTSELECT_CHOICES))
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)

    p = sub.add_parser("collective", help="N-pair total-occupation pointer statistics")
    add_common(p)
    p.add_argument("--observable", default=None)
    p.add_argument("--postselect", default=None, choices=sorted(POSTSELECT_CHOICES))
    p.add_argument("--n-pairs", dest="n_pairs", type=int, default=None)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--c", type=float, default=None,
                   help="pointer width as delta = c * g * sqrt(N) (default 5)")
    p.add_argument("--delta", type=float, default=None,
                   help="explicit pointer width; overrides --c")
    p.add_argument("--pdf-points", dest="pdf_points", type=int, default=None)

    p = sub.add_parser("verify", help="run the full acceptance suite")
    add_common(p)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params, provided = _merge_params(args)
        if params["format"] not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {params['format']!r}")
        if params["pdf_points"] is not None and params["pdf_points"] < 2:
            raise ConfigError("pdf_points must be at least 2")
        start = time.perf_counter()
        # numpy's overflow warnings are redundant: rendering rejects non-finite results
        with np.errstate(all="ignore"):
            results, inputs, warnings, rows = _HANDLERS[args.command](params, provided)
        elapsed_ms = (time.perf_counter() - start) * 1e3
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except WeakMeasError as exc:
        print(f"error: computation: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # Python floats raise where numpy would return inf
        print(f"error: computation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    document = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "warnings": warnings,
        "timing_ms": round(elapsed_ms, 3) if params["timing"] else None,
    }
    try:  # rendered for CSV output too, so both formats reject non-finite results
        text = render_json(document)
    except ValueError:
        print("error: computation: result is not finite (NaN or infinity)", file=sys.stderr)
        return 3
    if params["format"] == "csv":
        text = _render_csv(rows)
    _emit(text, params["output_path"])
    if args.command == "verify" and warnings:
        return 1
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
