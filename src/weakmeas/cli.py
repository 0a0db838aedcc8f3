"""Command-line interface: scenario runs with machine-readable output.

Every command emits one JSON document (or CSV table with ``--format csv``)
to ``--output-path`` or standard output.  Documents are deterministic for a
given command line: the ``timing_ms`` field stays ``null`` (and ``verify``
criteria carry no ``elapsed_ms``) unless ``--timing`` is passed, and all
Monte Carlo commands require an explicit seed.

Exit codes: 0 success, 1 verification failure, 2 configuration error (any
``ValueError``: the library judges each parameter's range), 3 computation
error (a ``WeakMeasError`` or float overflow).  Errors print a single
machine-parsable line ``error: <kind>: <reason>`` on stderr.

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
MAX_PDF_POINTS = 10**5  # at the cap, weak-measure --format csv peaks near 66 MB RSS

POSTSELECT_CHOICES = {
    "dd": "D_plus_D_minus",
    "cc": "C_plus_C_minus",
    "cd": "C_plus_D_minus",
    "dc": "D_plus_C_minus",
    "oo": "O_O",
}

# every option: (type, built-in default, argparse keywords).  Flags read
# --name unless a "flag" keyword names one, and the "choices" bound the value
# on the command line and in a config file alike.
_OPTIONS = {
    "config": (str, None, {"help": "flat key = value parameter file"}),
    "output_path": (str, None, {"help": "write here instead of stdout"}),
    "format": (str, "json", {"choices": ("json", "csv")}),
    "timing": (bool, False, {"action": "store_const", "const": True, "help":
                             "include wall time in the document (breaks byte determinism)"}),
    "interaction": (bool, True, {"flag": "--no-interaction", "action": "store_const",
                                 "const": False, "help": "disable the annihilation projection"}),
    "observable": (str, None, {}),
    "postselect": (str, "dd", {"choices": sorted(POSTSELECT_CHOICES)}),
    "n_pairs": (int, 100, {}),
    "g": (float, 0.05, {}),
    "c": (float, 5.0, {"help": "pointer width as delta = c * g * sqrt(N) (default 5)"}),
    "delta": (float, 1.0, {"help": "pointer width; for collective, overrides --c"}),
    "trials": (int, 100_000, {}),
    "seed": (int, None, {}),
    "pdf_points": (int, None, {"help": "with --format csv and one observable: "
                                       "emit q,pdf columns"}),
}


class _Parser(argparse.ArgumentParser):
    """argparse with single-line errors and exit code 2.

    Flags must be spelled in full: a prefix such as ``--c`` never stands for
    a longer flag (``--config``) that the command also takes.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

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
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _OPTIONS or key == "config":
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        typ, _, kw = _OPTIONS[key]
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
            raise ValueError(f"{path}:{lineno}: bad {typ.__name__} value {value!r} "
                             f"for {key}") from exc
        choices = kw.get("choices")
        if choices and values[key] not in choices:
            raise ValueError(f"{path}:{lineno}: {key} must be one of "
                             f"{', '.join(choices)}, got {value!r}")
    return values


def _merge_params(args: argparse.Namespace) -> tuple[dict, set[str]]:
    """config-file values under command-line flags under built-in defaults.

    Also reports which keys were explicitly provided (by either source).
    """
    params = {key: default for key, (_, default, _) in _OPTIONS.items()}
    provided: set[str] = set()
    if getattr(args, "config", None):
        from_file = _parse_config_file(args.config)
        params.update(from_file)
        provided |= set(from_file)
    for key in _OPTIONS:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
            provided.add(key)
    return params, provided


def _resolve_observables(params: dict, default: str | None = None) -> list[str]:
    name = params["observable"] or default
    if name is None or name == "all":
        return list(hardy.OBSERVABLE_ORDER)
    if name not in hardy.OBSERVABLE_ORDER:
        raise ValueError(
            f"unknown observable {name!r}; valid names: "
            f"{', '.join(hardy.OBSERVABLE_ORDER)} (or 'all')")
    return [name]


def _resolve_ensemble(params: dict, scenario) -> PrePostEnsemble:
    post = hardy.postselection_variants()[POSTSELECT_CHOICES[params["postselect"]]]
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
    names = _resolve_observables(params)
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
    if params["seed"] is None:
        raise ValueError("seed is required (no silent entropy); pass --seed")
    scenario = hardy.build()
    ensemble = _resolve_ensemble(params, scenario)
    names = _resolve_observables(params)
    if params["pdf_points"] and len(names) != 1:
        raise ValueError("--pdf-points needs a single --observable")
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
        if params["pdf_points"]:
            grid = pointer._sampling_grid(m, params["pdf_points"])
            pdf = pointer.position_pdf(m, grid)
            pdf_rows = [("q", "pdf")] + list(zip(grid.tolist(), pdf.tolist()))
    inputs = {"g": params["g"], "delta": params["delta"], "trials": params["trials"],
              "seed": params["seed"], "postselect": params["postselect"],
              "observable": params["observable"] or "all"}
    return results, inputs, warnings, (pdf_rows or rows)


def _cmd_simultaneous(params: dict, provided: set[str]):
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
    pointer.check_finite_positive(c=params["c"])
    if params["n_pairs"] < 1:
        raise ValueError(f"n_pairs must be >= 1, got {params['n_pairs']}")
    scenario = hardy.build()
    ensemble = _resolve_ensemble(params, scenario)
    names = _resolve_observables(params, default="N_pair_NO_NO")
    if len(names) != 1:
        raise ValueError("collective needs a single observable")
    n = params["n_pairs"]
    delta = params["delta"] if "delta" in provided else params["c"] * params["g"] * math.sqrt(n)
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


_COMMON = ("config", "output_path", "format", "timing")
# every command: (handler, help, its options after _COMMON in --help order)
_COMMANDS = {
    "hardy-table": (_cmd_hardy_table, "the eight weak values and p_postselect", ()),
    "detector-stats": (_cmd_detector_stats, "detector coincidence probabilities",
                       ("interaction",)),
    "abl": (_cmd_abl, "ideal intermediate measurement statistics",
            ("observable", "postselect")),
    "weak-measure": (_cmd_weak_measure, "Monte Carlo pointer read-out",
                     ("observable", "postselect", "g", "delta", "trials", "seed", "pdf_points")),
    "simultaneous": (_cmd_simultaneous, "joint weak measurement of all eight",
                     ("postselect", "g", "delta")),
    "collective": (_cmd_collective, "N-pair total-occupation pointer statistics",
                   ("observable", "postselect", "n_pairs", "g", "c", "delta", "pdf_points")),
    "verify": (_cmd_verify, "run the full acceptance suite", ()),
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
    for command, (_, help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in _COMMON + names:
            typ, _, kw = _OPTIONS[name]
            kw = dict(kw)
            flag = kw.pop("flag", "--" + name.replace("_", "-"))
            if typ is not bool:  # a store_const switch takes no type
                kw["type"] = typ
            # default None: _merge_params tells a given flag from an absent one
            p.add_argument(flag, dest=name, default=None, **kw)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params, provided = _merge_params(args)
        if params["pdf_points"] is not None and not 2 <= params["pdf_points"] <= MAX_PDF_POINTS:
            raise ValueError(f"pdf_points must be in [2, {MAX_PDF_POINTS}], "
                             f"got {params['pdf_points']}")
        start = time.perf_counter()
        # numpy's overflow warnings are redundant: rendering rejects non-finite results
        with np.errstate(all="ignore"):
            results, inputs, warnings, rows = _COMMANDS[args.command][0](params, provided)
        elapsed_ms = (time.perf_counter() - start) * 1e3
    except WeakMeasError as exc:
        print(f"error: computation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # an argument outside its domain
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
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
