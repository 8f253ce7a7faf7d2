"""Command-line front end: spectrum / sweep / classify / sumrule / scaling.

Configuration comes from flags, optionally layered over an INI-style
config file (``--config``); flags win.  A config value is read by its
flag's own argparse action, so it is converted and checked like the
flag.  Results are emitted as a JSON envelope (config echo, version,
wall time, payload) or, for sweeps, as CSV.  Numbers carry 12
significant digits so residual claims can be checked from the files
alone; the envelope rounds every float in one pass.

Exit codes: 0 success, 1 numeric failure, 2 configuration error (bad
settings, or a sum rule over a space above the dense cap).
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
from dataclasses import asdict

from . import __version__
from .lattice import enumerate_sector
from .models import FAMILY_TABLE, ResourceLimitError, build_model, family_spec
from .eigensolver import ConvergenceError
from .observables import (OPERATOR_TAGS, label_state, rearranged_sum_rule,
                          sum_rule_residual)
from .analysis import (GridSpec, SolverOptions, SweepResult, _space_sector, classify,
                       scaling_study, solve_model, sweep)

SCHEMA_VERSION = "1"


class ConfigError(Exception):
    pass


# every family's parameters: each is a flag, a [model] key and maybe a sweep name
MODEL_PARAMS = {p.name: p for spec in FAMILY_TABLE.values() for p in spec.params}


def positive_int(text: str) -> int:
    """An integer of at least 1, as an argparse type."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The flags of every subcommand; ``parser.setting_actions[command]``
    maps each setting of that subcommand to the action that reads it, for
    config-file values."""
    parser = argparse.ArgumentParser(
        prog="spinqpt",
        description="exact diagonalization, concurrence, and transition "
                    "classification for small spin-1/2 models")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.setting_actions = {}

    def add(p, *flags, **kw):
        action = p.add_argument(*flags, **kw)
        p.setting_actions[action.dest] = action

    def command(name, help):
        """A subcommand with the flags every subcommand has."""
        p = sub.add_parser(name, help=help)
        p.setting_actions = parser.setting_actions[name] = {}
        add(p, "--config", help="INI config file; flags override it")
        add(p, "--model", choices=sorted(FAMILY_TABLE))
        add(p, "--sites", type=int, help="total number of spins")
        for param in MODEL_PARAMS.values():
            add(p, param.cli_flag, dest=param.name, type=float)
        add(p, "--seed", type=lambda s: int(s, 0))
        add(p, "--tol", type=float)
        add(p, "--dense-cutoff", dest="dense_cutoff", type=int)
        add(p, "--threads", type=positive_int)
        add(p, "--format", choices=("csv", "json"))
        add(p, "--out", help="output path (default: stdout)")
        return p

    def sweepish(p):
        add(p, "--sweep", help="name:start:stop:step, e.g. delta:0:2:0.01")
        add(p, "--levels", type=int)
        add(p, "--pairs", help="comma list: nn, rung, leg, or i-j")
        add(p, "--space", choices=("auto", "full", "sz0"))

    p = command("spectrum", "low-lying levels with labels")
    add(p, "--levels", type=int)
    add(p, "--sector", help="full, sz0, or an integer 2*Sz")

    p = command("sweep", "levels and concurrence over a grid")
    sweepish(p)

    p = command("classify", "transition type from a sweep")
    sweepish(p)
    add(p, "--pair", help="pair used for the concurrence series")
    add(p, "--jump-tol", dest="jump_tol", type=float)
    add(p, "--max-order", dest="max_order", type=int)
    add(p, "--preset", choices=("table1",),
        help="run the canonical desk-scale scenarios")

    p = command("sumrule", "double-commutator sum-rule residuals")
    add(p, "--operator", help="operator tag or 'all'")

    p = command("scaling", "derivative-extremum drift with size")
    sweepish(p)
    add(p, "--sizes", help="comma list of site counts")
    add(p, "--order", type=int, help="derivative order")
    add(p, "--kind", choices=("min", "max"))
    add(p, "--raw", action="store_true",
        help="differentiate the unclamped concurrence")
    return parser


CONFIG_KEYS = {
    "model": {"model"} | set(MODEL_PARAMS),
    "lattice": {"sites"},
    "grid": {"sweep", "levels", "pairs", "space", "sizes", "order", "kind",
             "raw", "sector"},
    "solver": {"seed", "tol", "dense_cutoff", "threads"},
    "output": {"format", "out"},
    "classify": {"pair", "jump_tol", "max_order", "preset"},
}


def load_config_file(path: str, command: str, actions: dict) -> dict:
    """Settings of ``command`` from an INI file, each read by the flag
    ``actions[key]``: converted by its type (a switch by ``getboolean``),
    checked against its choices.  A key ``command`` has no flag for is an
    error, as the flag would be."""
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
        for key, text in ini.items(section):
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"config file: unknown key {key!r} in [{section}]")
            if key not in actions:
                raise ConfigError(f"config file: {key!r} in [{section}] is not a "
                                  f"setting of {command}")
            action = actions[key]
            try:
                if action.nargs == 0:
                    value = ini.getboolean(section, key)
                else:
                    value = text if action.type is None else action.type(text)
            except (ValueError, argparse.ArgumentTypeError):
                raise ConfigError(f"config file: bad value {text!r} for {key!r} in [{section}]")
            if action.choices is not None and value not in action.choices:
                raise ConfigError(f"config file: {key!r} in [{section}] must be one of "
                                  f"{', '.join(action.choices)}, not {text!r}")
            out[key] = value
    return out


def merge_settings(args: argparse.Namespace, actions: dict) -> dict:
    """CLI flags layered over config-file values; ``actions`` are the
    subcommand's own."""
    settings = {}
    if getattr(args, "config", None):
        settings.update(load_config_file(args.config, args.command, actions))
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


def _rounded(value):
    """``value`` for JSON: every float through ``fmt``, tuples as lists."""
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def _sweep_payload(result) -> dict:
    points = []
    for p in result.points:
        entry = {"g": p.g}
        if p.flag is not None:
            entry["flag"] = p.flag
            points.append(entry)
            continue
        entry["energies"] = list(p.energies)
        entry["labels"] = [asdict(l) for l in p.labels]
        entry["pairs"] = {
            name: {"sites": rec.sites, "cxx": rec.cxx, "cyy": rec.cyy, "czz": rec.czz,
                   "concurrence_raw": rec.concurrence_raw,
                   "concurrence": rec.concurrence}
            for name, rec in p.pairs.items()}
        points.append(entry)
    return {"swept": asdict(result.grid_spec),
            "k_levels": result.k_levels,
            "space": result.config.space,
            "pair_names": result.pair_names,
            "points": points}


def _event_dict(e):
    return {"level_pair": e.level_pair, "location": e.location,
            "bracket": e.bracket, "kind": e.kind, "min_gap": e.min_gap}


def _classify_payload(report) -> dict:
    ev = report.evidence
    return {"type": report.type,
            "gs_lc": report.gs_lc,
            "es_lc": report.es_lc,
            "concurrence_behavior": report.concurrence_behavior,
            "evidence": {**asdict(ev),
                         "gs_events": [_event_dict(e) for e in ev.gs_events],
                         "es_events": [_event_dict(e) for e in ev.es_events]}}


def emit_csv(result) -> str:
    """CSV for a sweep: one row per grid point, constant column count."""
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
    return _rounded({"schema_version": SCHEMA_VERSION,
                     "toolkit_version": __version__,
                     "command": command,
                     "config": dict(sorted(settings.items())),
                     "wall_time_s": None,  # filled just before writing
                     "payload": payload})


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
    labels = [label_state(basis, sol.vectors[:, c]) for c in range(sol.k)]
    return {"model": model.describe(), "n_sites": lattice.n_sites,
            "space": space, "dimension": basis.dimension,
            "energies": list(sol.energies),
            "residuals": list(sol.residuals),
            "labels": [asdict(l) for l in labels]}


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
    reports = []
    sol = None  # one full spectrum serves every operator and the rearrangement
    for tag in tags:
        rep = sum_rule_residual(model, lattice, tag, solution=sol)
        sol = rep.solution
        reports.append({"operator": tag, "lhs": rep.lhs, "rhs": rep.rhs,
                        "residual": rep.residual})
    payload = {"model": model.describe(), "n_sites": lattice.n_sites,
               "reports": reports}
    if fam.rearranged is not None:
        re_rep = rearranged_sum_rule(model, lattice, solution=sol)
        payload["rearranged"] = {"j_value": re_rep.j_value,
                                 "correlator_side": re_rep.correlator_side,
                                 "spectrum_side": re_rep.spectrum_side,
                                 "residual": re_rep.residual}
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
               "entries": [asdict(e) for e in result.entries],
               "skipped": [{"n_sites": n, "reason": r} for n, r in result.skipped]}
    if result.intercept is not None:
        payload["fit"] = {"intercept": result.intercept, "slope": result.slope,
                          "residual_norm": result.residual_norm}
    return payload


COMMANDS = {"spectrum": cmd_spectrum, "sweep": cmd_sweep, "classify": cmd_classify,
            "sumrule": cmd_sumrule, "scaling": cmd_scaling}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        settings = merge_settings(args, parser.setting_actions[args.command])
        payload = COMMANDS[args.command](settings)
        if settings.get("format", "json") == "csv":
            if not isinstance(payload, SweepResult):
                raise ConfigError("csv output is only available for sweep results")
            text = emit_csv(payload)
        else:
            if isinstance(payload, SweepResult):
                payload = _sweep_payload(payload)
            envelope = make_envelope(args.command, settings, payload)
            envelope["wall_time_s"] = fmt(time.perf_counter() - started)
            text = emit_json(envelope)
    except (ConfigError, ValueError, ResourceLimitError) as err:
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
