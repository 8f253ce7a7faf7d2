"""Command-line front end: spectrum / sweep / classify / sumrule / scaling.

Configuration comes from flags, optionally layered over an INI-style
config file (``--config``); flags win.  Results are emitted as a JSON
envelope (config echo, version, wall time, payload) or, for sweeps, as
CSV.  Numbers carry 12 significant digits so residual claims can be
checked from the files alone.

Exit codes: 0 success, 1 numeric failure, 2 configuration error.
No environment variables are consulted.
"""

import argparse
import configparser
import csv
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .lattice import enumerate_sector
from .models import FAMILY_TABLE, build_model, family_spec
from .eigensolver import ConvergenceError
from .observables import (OPERATOR_TAGS, label_solution, rearranged_sum_rule,
                          sum_rule_residual)
from .analysis import (GridSpec, SolverOptions, _space_sector, classify,
                       scaling_study, solve_model, sweep)

SCHEMA_VERSION = "1"


class ConfigError(Exception):
    pass


# every family's parameters: each is a flag, a [model] key and maybe a sweep name
MODEL_PARAMS = {p.name: p for spec in FAMILY_TABLE.values() for p in spec.params}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinqpt",
        description="exact diagonalization, concurrence, and transition "
                    "classification for small spin-1/2 models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file; flags override it")
        p.add_argument("--model", choices=sorted(FAMILY_TABLE))
        p.add_argument("--sites", type=int, help="total number of spins")
        for param in MODEL_PARAMS.values():
            p.add_argument(param.cli_flag, dest=param.name, type=float)
        p.add_argument("--seed", type=lambda s: int(s, 0))
        p.add_argument("--tol", type=float)
        p.add_argument("--dense-cap", dest="dense_cap", type=int)
        p.add_argument("--dense-cutoff", dest="dense_cutoff", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out", help="output path (default: stdout)")

    def sweepish(p):
        p.add_argument("--sweep", help="name:start:stop:step, e.g. delta:0:2:0.01")
        p.add_argument("--levels", type=int)
        p.add_argument("--pairs", help="comma list: nn, rung, leg, or i-j")
        p.add_argument("--space", choices=("auto", "full", "sz0"))

    p = sub.add_parser("spectrum", help="low-lying levels with labels")
    common(p)
    p.add_argument("--levels", type=int)
    p.add_argument("--sector", help="full, sz0, or an integer 2*Sz")

    p = sub.add_parser("sweep", help="levels and concurrence over a grid")
    common(p)
    sweepish(p)

    p = sub.add_parser("classify", help="transition type from a sweep")
    common(p)
    sweepish(p)
    p.add_argument("--pair", help="pair used for the concurrence series")
    p.add_argument("--jump-tol", dest="jump_tol", type=float)
    p.add_argument("--max-order", dest="max_order", type=int)
    p.add_argument("--preset", choices=("table1",),
                   help="run the canonical desk-scale scenarios")

    p = sub.add_parser("sumrule", help="double-commutator sum-rule residuals")
    common(p)
    p.add_argument("--operator", help="operator tag or 'all'")

    p = sub.add_parser("scaling", help="derivative-extremum drift with size")
    common(p)
    sweepish(p)
    p.add_argument("--sizes", help="comma list of site counts")
    p.add_argument("--order", type=int, help="derivative order")
    p.add_argument("--kind", choices=("min", "max"))
    p.add_argument("--raw", action="store_true",
                   help="differentiate the unclamped concurrence")
    return parser


CONFIG_KEYS = {
    "model": {"model"} | set(MODEL_PARAMS),
    "lattice": {"sites"},
    "grid": {"sweep", "levels", "pairs", "space", "sizes", "order", "kind",
             "raw", "sector"},
    "solver": {"seed", "tol", "dense_cap", "dense_cutoff", "threads"},
    "output": {"format", "out"},
    "classify": {"pair", "jump_tol", "max_order", "preset"},
}
_INT_KEYS = {"sites", "levels", "dense_cap", "dense_cutoff", "threads",
             "max_order", "order"}
_FLOAT_KEYS = set(MODEL_PARAMS) | {"tol", "jump_tol"}


def load_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} not found")
    ini = configparser.ConfigParser()
    try:
        ini.read(path)
    except configparser.Error as err:
        raise ConfigError(f"config file {path!r}: {err}")
    out = {}
    for section in ini.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"config file: unknown section [{section}]")
        for key, value in ini.items(section):
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"config file: unknown key {key!r} in [{section}]")
            if key == "seed":
                out[key] = int(value, 0)
            elif key in _INT_KEYS:
                out[key] = int(value)
            elif key in _FLOAT_KEYS:
                out[key] = float(value)
            elif key == "raw":
                out[key] = ini.getboolean(section, key)
            else:
                out[key] = value
    return out


def merge_settings(args: argparse.Namespace) -> dict:
    """CLI flags layered over config-file values."""
    settings = {}
    if getattr(args, "config", None):
        settings.update(load_config_file(args.config))
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None or value is False:
            continue
        settings[key] = value
    return settings


def _require(settings, key, what=None):
    if settings.get(key) is None:
        raise ConfigError(f"missing required setting {what or ('--' + key.replace('_', '-'))}")
    return settings[key]


def _model_params(settings, fam, exclude=()):
    """The family's parameters in the settings; a required one unless swept."""
    for name in sorted(MODEL_PARAMS):
        if settings.get(name) is not None and MODEL_PARAMS[name] not in fam.params:
            raise ConfigError(f"{MODEL_PARAMS[name].cli_flag} does not apply to {fam.name}")
    params = {}
    for p in fam.params:
        if p.name in exclude:
            continue
        if p.default is None:
            params[p.name] = _require(settings, p.name, p.cli_flag)
        elif settings.get(p.name) is not None:
            params[p.name] = settings[p.name]
    return params


def _parse_sweep(settings, fam) -> GridSpec:
    parts = str(_require(settings, "sweep")).split(":")
    if len(parts) != 4:
        raise ConfigError("--sweep must look like name:start:stop:step")
    name = parts[0].strip()
    sweepable = {p.alias or p.name: p.name for p in MODEL_PARAMS.values() if p.sweepable}
    if name not in sweepable:
        raise ConfigError(f"cannot sweep {name!r}; choose from {sorted(sweepable)}")
    try:
        start, stop, step = (float(p) for p in parts[1:])
        grid = GridSpec(sweepable[name], start, stop, step)
    except ValueError as err:
        raise ConfigError(f"bad sweep grid: {err}")
    if MODEL_PARAMS[grid.name] not in fam.params:
        raise ConfigError(f"swept parameter {grid.name!r} belongs to another family")
    return grid


def _solver_options(settings) -> SolverOptions:
    kw = {}
    for key in ("tol", "seed", "dense_cutoff"):
        if settings.get(key) is not None:
            kw[key] = settings[key]
    return SolverOptions(**kw)


def _parse_pairs(settings, fam):
    text = settings.get("pairs")
    if text is None:
        return fam.pairs
    return tuple(tok.strip() for tok in str(text).split(",") if tok.strip())


# ---------------------------------------------------------------------------
# serialization

def fmt(x) -> float:
    """Round-trip a float through 12 significant digits."""
    return float(f"{float(x):.12g}")


def _labels_dict(lab):
    return {"sz_twice": lab.sz_twice,
            "total_spin": None if lab.total_spin is None else fmt(lab.total_spin),
            "parity": lab.parity,
            "s_squared": fmt(lab.s_squared)}


def _sweep_payload(result) -> dict:
    points = []
    for p in result.points:
        entry = {"g": fmt(p.g)}
        if p.flag is not None:
            entry["flag"] = p.flag
            points.append(entry)
            continue
        entry["energies"] = [fmt(e) for e in p.energies]
        entry["labels"] = [_labels_dict(l) for l in p.labels]
        entry["pairs"] = {
            name: {"sites": list(rec.sites), "cxx": fmt(rec.cxx),
                   "cyy": fmt(rec.cyy), "czz": fmt(rec.czz),
                   "concurrence_raw": fmt(rec.concurrence_raw),
                   "concurrence": fmt(rec.concurrence)}
            for name, rec in p.pairs.items()}
        points.append(entry)
    grid = result.grid_spec
    return {"swept": {"name": grid.name, "start": fmt(grid.start),
                      "stop": fmt(grid.stop), "step": fmt(grid.step)},
            "k_levels": result.k_levels,
            "space": result.config.space,
            "pair_names": result.pair_names,
            "points": points}


def _event_dict(e):
    return {"level_pair": list(e.level_pair), "location": fmt(e.location),
            "bracket": [fmt(e.bracket[0]), fmt(e.bracket[1])],
            "kind": e.kind, "min_gap": fmt(e.min_gap)}


def _classify_payload(report) -> dict:
    ev = report.evidence
    return {"type": report.type,
            "gs_lc": report.gs_lc,
            "es_lc": report.es_lc,
            "concurrence_behavior": report.concurrence_behavior,
            "evidence": {
                "gs_events": [_event_dict(e) for e in ev.gs_events],
                "es_events": [_event_dict(e) for e in ev.es_events],
                "jump": None if ev.jump is None else fmt(ev.jump),
                "jump_location": None if ev.jump_location is None else fmt(ev.jump_location),
                "jump_tol": None if ev.jump_tol is None else fmt(ev.jump_tol),
                "argmax_location": None if ev.argmax_location is None else fmt(ev.argmax_location),
                "argmax_value": None if ev.argmax_value is None else fmt(ev.argmax_value),
                "derivative_order": ev.derivative_order,
                "derivative_extrema": [
                    {"location": fmt(x.location), "value": fmt(x.value),
                     "kind": x.kind} for x in ev.derivative_extrema],
            }}


def emit_csv(result) -> str:
    """CSV for a sweep: one row per grid point, constant column count."""
    from .analysis import SweepResult
    if not isinstance(result, SweepResult):
        raise ValueError("CSV output is defined for sweep payloads only")
    k = result.k_levels
    names = result.pair_names
    header = (["g"] + [f"E{i}" for i in range(k)]
              + [f"S_{i}" for i in range(k)] + [f"parity_{i}" for i in range(k)])
    for name in names:
        header += [f"{name}_cxx", f"{name}_cyy", f"{name}_czz",
                   f"{name}_C_raw", f"{name}_C"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)

    def cell(x):
        return f"{x:.12g}"

    for p in result.points:
        if p.flag is not None:
            row = [cell(p.g)] + ["nan"] * (len(header) - 1)
            writer.writerow(row)
            continue
        row = [cell(p.g)] + [cell(e) for e in p.energies]
        row += ["" if l.total_spin is None else cell(l.total_spin) for l in p.labels]
        row += ["" if l.parity is None else str(l.parity) for l in p.labels]
        for name in names:
            rec = p.pairs[name]
            row += [cell(rec.cxx), cell(rec.cyy), cell(rec.czz),
                    cell(rec.concurrence_raw), cell(rec.concurrence)]
        writer.writerow(row)
    return buf.getvalue()


def emit_json(envelope: dict) -> str:
    return json.dumps(envelope, indent=2) + "\n"


def make_envelope(command: str, settings: dict, payload) -> dict:
    echo = {}
    for key in sorted(settings):
        val = settings[key]
        echo[key] = fmt(val) if isinstance(val, float) else val
    return {"schema_version": SCHEMA_VERSION,
            "toolkit_version": __version__,
            "command": command,
            "config": echo,
            "wall_time_s": None,  # filled just before writing
            "payload": payload}


# ---------------------------------------------------------------------------
# commands

def cmd_spectrum(settings) -> dict:
    fam = family_spec(_require(settings, "model"))
    lattice = fam.lattice(_require(settings, "sites"))
    model = build_model(fam.name, _model_params(settings, fam))
    sector = str(settings.get("sector", "auto"))
    space = "full" if sector == "auto" else sector
    if space not in ("full", "sz0"):
        try:
            space = f"sz:{int(space)}"
        except ValueError:
            raise ConfigError("--sector must be full, sz0, auto, or an integer 2*Sz")
    basis = enumerate_sector(lattice, _space_sector(space))
    sol = solve_model(model, basis, settings.get("levels", 4), _solver_options(settings))
    label_solution(basis, sol)
    return {"model": model.describe(), "n_sites": lattice.n_sites,
            "space": space, "dimension": basis.dimension,
            "energies": [fmt(e) for e in sol.energies],
            "residuals": [fmt(r) for r in sol.residuals],
            "labels": [_labels_dict(l) for l in sol.labels]}


def _run_sweep(settings):
    fam = family_spec(_require(settings, "model"))
    lattice = fam.lattice(_require(settings, "sites"))
    grid = _parse_sweep(settings, fam)
    fixed = _model_params(settings, fam, exclude=(grid.name,))
    pairs = _parse_pairs(settings, fam)
    return sweep(fam.name, fixed, grid, lattice,
                 k_levels=settings.get("levels", 3),
                 pairs=pairs, space=settings.get("space", "auto"),
                 options=_solver_options(settings),
                 threads=settings.get("threads", 1))


def cmd_sweep(settings):
    result = _run_sweep(settings)
    flagged = len(result.flagged)
    if flagged:
        print(f"warning: {flagged} grid points failed to solve", file=sys.stderr)
    return result


def cmd_classify(settings) -> dict:
    if settings.get("preset") == "table1":
        return _preset_table1(settings)
    result = _run_sweep(settings)
    report = classify(result, jump_tol=settings.get("jump_tol"),
                      max_derivative_order=settings.get("max_order", 4),
                      pair=settings.get("pair"))
    return _classify_payload(report)


TABLE1_ROWS = (
    {"row": "xxz chain (Delta = -1)", "family": "xxz", "sweep": "delta:-2:0:0.01",
     "sites": 8, "expected": "I"},
    {"row": "j1j2 chain (J2 = 0.5)", "family": "j1j2", "sweep": "j2:0.3:0.7:0.005",
     "sites": 8, "expected": "I"},
    {"row": "xxz chain (Delta = 1)", "family": "xxz", "sweep": "delta:0:2:0.01",
     "sites": 8, "expected": "II"},
    {"row": "spin ladder (J = 0)", "family": "ladder", "sweep": "j_rung:-1:1:0.01",
     "sites": 8, "expected": "II", "pair": "leg"},
    {"row": "xxz 2D & 3D (Delta = 1)", "skip": "out of scope (quantum Monte Carlo sizes)"},
    {"row": "j1j2 chain (J2 ~ 0.241)", "family": "j1j2", "sweep": "j2:0:0.45:0.005",
     "sites": 8, "expected": "III",
     "note": "desk-scale N=8 resolves the excited-state crossing but not the "
             "derivative structure of the continuous transition"},
    {"row": "ising chain (lambda = 1)", "family": "ising", "sweep": "lambda:0.2:2:0.01",
     "sites": 8, "expected": "III"},
)


def _preset_table1(settings) -> dict:
    rows = []
    for spec_row in TABLE1_ROWS:
        if "skip" in spec_row:
            rows.append({"row": spec_row["row"], "status": spec_row["skip"]})
            continue
        sub = dict(settings)
        sub.pop("preset", None)
        sub.pop("pair", None)
        sub.update(model=spec_row["family"], sweep=spec_row["sweep"],
                   sites=spec_row["sites"], levels=max(settings.get("levels") or 0, 6))
        for name in MODEL_PARAMS:
            sub.pop(name, None)
        result = _run_sweep(sub)
        report = classify(result, pair=spec_row.get("pair"))
        entry = {"row": spec_row["row"], "expected_type": spec_row["expected"],
                 "report": _classify_payload(report)}
        if "note" in spec_row:
            entry["note"] = spec_row["note"]
        rows.append(entry)
    return {"preset": "table1", "rows": rows}


def cmd_sumrule(settings) -> dict:
    fam = family_spec(_require(settings, "model"))
    lattice = fam.lattice(_require(settings, "sites"))
    model = build_model(fam.name, _model_params(settings, fam))
    choice = settings.get("operator", "all")
    if choice == "all":
        tags = fam.operators
    elif choice in OPERATOR_TAGS:
        tags = [choice]
    else:
        raise ConfigError(f"--operator must be one of {OPERATOR_TAGS} or 'all'")
    cap = settings.get("dense_cap", 4096)
    reports = []
    sol = None  # one full spectrum serves every operator and the rearrangement
    for tag in tags:
        rep = sum_rule_residual(model, lattice, tag, dense_cap=cap, solution=sol)
        sol = rep.solution
        reports.append({"operator": tag, "lhs": fmt(rep.lhs), "rhs": fmt(rep.rhs),
                        "residual": fmt(rep.residual)})
    payload = {"model": model.describe(), "n_sites": lattice.n_sites,
               "reports": reports}
    if fam.rearranged is not None:
        re_rep = rearranged_sum_rule(model, lattice, dense_cap=cap, solution=sol)
        payload["rearranged"] = {"j_value": fmt(re_rep.j_value),
                                 "correlator_side": fmt(re_rep.correlator_side),
                                 "spectrum_side": fmt(re_rep.spectrum_side),
                                 "residual": fmt(re_rep.residual)}
    return payload


def cmd_scaling(settings) -> dict:
    fam = family_spec(_require(settings, "model"))
    grid = _parse_sweep(settings, fam)
    sizes_text = _require(settings, "sizes")
    try:
        sizes = [int(tok) for tok in str(sizes_text).split(",")]
    except ValueError:
        raise ConfigError("--sizes must be a comma list of integers")
    order = _require(settings, "order")
    fixed = _model_params(settings, fam, exclude=(grid.name,))
    pairs = _parse_pairs(settings, fam)
    result = scaling_study(
        fam.name, fixed, grid, sizes, order,
        pairs=pairs, k_levels=settings.get("levels", 2),
        space=settings.get("space", "auto"),
        extremum_kind=settings.get("kind", "min"),
        use_raw=bool(settings.get("raw", False)),
        options=_solver_options(settings),
        threads=settings.get("threads", 1))
    payload = {"model": fam.name, "swept": grid.name, "derivative_order": order,
               "extremum_kind": result.extremum_kind,
               "entries": [{"n_sites": e.n_sites, "location": fmt(e.location),
                            "value": fmt(e.value)} for e in result.entries],
               "skipped": [{"n_sites": n, "reason": r} for n, r in result.skipped]}
    if result.intercept is not None:
        payload["fit"] = {"intercept": fmt(result.intercept),
                          "slope": fmt(result.slope),
                          "residual_norm": fmt(result.residual_norm)}
    return payload


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        settings = merge_settings(args)
        fmt_choice = settings.get("format", "json")
        command = args.command
        if command == "spectrum":
            payload = cmd_spectrum(settings)
        elif command == "sweep":
            payload = cmd_sweep(settings)
        elif command == "classify":
            payload = cmd_classify(settings)
        elif command == "sumrule":
            payload = cmd_sumrule(settings)
        elif command == "scaling":
            payload = cmd_scaling(settings)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {command!r}")

        if fmt_choice == "csv":
            from .analysis import SweepResult
            if not isinstance(payload, SweepResult):
                raise ConfigError("csv output is only available for sweep results")
            text = emit_csv(payload)
        else:
            if not isinstance(payload, dict):
                payload = _sweep_payload(payload)
            envelope = make_envelope(command, settings, payload)
            envelope["wall_time_s"] = fmt(time.perf_counter() - started)
            text = emit_json(envelope)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ConvergenceError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 1

    out_path = settings.get("out")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
