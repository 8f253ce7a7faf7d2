"""Command-line front end: spectrum / sweep / classify / sumrule / scaling.

Configuration comes from flags.  ``--config PATH`` names a file of more
flags, split like a shell line with ``#`` starting a comment; argparse
reads them before the command line's, so the command line wins and a
flag in the file is checked as it is on the command line.  Results are
emitted as a JSON envelope (config echo, version, wall time, payload)
or, for sweeps, as CSV.  Numbers carry 12 significant digits so
residual claims can be checked from the files alone; the envelope
rounds every float in one pass.

Exit codes: 0 success, 1 numeric failure, 2 configuration error (bad
settings, an unreadable config file or unwritable output path, or a sum
rule over a space above the dense cap).
No environment variables are consulted.
"""

import argparse
import csv
import io
import json
import shlex
import sys
import time
from dataclasses import asdict

from . import __version__
from .lattice import enumerate_sector
from .models import FAMILY_TABLE, ResourceLimitError, build_model, family_spec
from .eigensolver import ConvergenceError
from .observables import (OPERATOR_TAGS, label_state, rearranged_sum_rule,
                          sum_rule_residual)
from .analysis import (GridSpec, SolverOptions, SweepResult, classify, parse_space,
                       scaling_study, solve_model, space_name, sweep)

SCHEMA_VERSION = "1"


class ConfigError(Exception):
    pass


# every family's parameters: each is a flag and maybe a sweep name
MODEL_PARAMS = {p.name: p for spec in FAMILY_TABLE.values() for p in spec.params}


def positive_int(text: str) -> int:
    """An integer of at least 1, as an argparse type."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line is a bad setting
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """The flags of every subcommand; a bad command line raises ConfigError."""
    parser = _Parser(
        prog="spinqpt",
        description="exact diagonalization, concurrence, and transition "
                    "classification for small spin-1/2 models")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *, sites=True, solver=True):
        """A subcommand with the common flags, less --sites or the solver's."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="file of flags, read before the command line's")
        p.add_argument("--model", choices=sorted(FAMILY_TABLE))
        if sites:
            p.add_argument("--sites", type=int, help="total number of spins")
        for param in MODEL_PARAMS.values():
            p.add_argument(param.cli_flag, dest=param.name, type=float)
        p.add_argument("--seed", type=lambda s: int(s, 0))
        if solver:
            p.add_argument("--tol", type=float)
            p.add_argument("--dense-cutoff", dest="dense_cutoff", type=int)
        p.add_argument("--threads", type=positive_int)
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    def sweepish(p):
        p.add_argument("--sweep", help="name:start:stop:step, e.g. delta:0:2:0.01")
        p.add_argument("--levels", type=int)
        p.add_argument("--pairs",
                       help="comma list: nn, nnn (chains), rung, leg (ladders), or i-j")
        p.add_argument("--space", choices=("auto", "full", "sz0"))

    p = command("spectrum", "low-lying levels with labels")
    p.add_argument("--levels", type=int)
    p.add_argument("--sector", help="full, sz0, sz:<m>, or an integer m = 2*Sz")

    p = command("sweep", "levels and concurrence over a grid")
    sweepish(p)

    p = command("classify", "transition type from a sweep")
    sweepish(p)
    p.add_argument("--pair", help="pair used for the concurrence series")
    p.add_argument("--jump-tol", dest="jump_tol", type=float)
    p.add_argument("--max-order", dest="max_order", type=int)
    p.add_argument("--preset", choices=("table1",),
                   help="classify the Table-1 rows, each with its own model, sweep "
                        "and pair at N = 8")

    p = command("sumrule", "double-commutator sum-rule residuals", solver=False)
    p.add_argument("--operator", help="operator tag or 'all'")

    p = command("scaling", "derivative-extremum drift with size", sites=False)
    sweepish(p)
    p.add_argument("--sizes", help="comma list of site counts")
    p.add_argument("--order", type=int, help="derivative order")
    p.add_argument("--kind", choices=("min", "max"))
    p.add_argument("--raw", action="store_true",
                   help="differentiate the unclamped concurrence")
    return parser


def read_flag_file(path: str) -> list[str]:
    """The flags of a ``--config`` file: its text split like a shell line,
    ``#`` starting a comment."""
    try:
        with open(path, encoding="utf-8") as fh:
            return shlex.split(fh.read(), comments=True)
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} not found")
    except OSError as err:
        raise ConfigError(f"config file {path!r} cannot be read: {err.strerror}")
    except ValueError as err:  # not UTF-8, or an unclosed quote
        raise ConfigError(f"config file {path!r} cannot be read: {err}")


def parse_settings(parser: argparse.ArgumentParser, argv: list) -> tuple[str, dict]:
    """The subcommand and its settings.  The flags of a ``--config`` file
    are parsed before the command line's, so the command line wins."""
    args = parser.parse_args(argv)
    if args.config is not None:
        args = parser.parse_args(argv[:1] + read_flag_file(args.config) + argv[1:])
    return args.command, {key: value for key, value in vars(args).items()
                          if key not in ("config", "command")
                          and value is not None and value is not False}


def _flag(key):
    """How the command line spells the setting ``key``."""
    return MODEL_PARAMS[key].cli_flag if key in MODEL_PARAMS else "--" + key.replace("_", "-")


def _require(settings, key):
    if settings.get(key) is None:
        raise ConfigError(f"missing required setting {_flag(key)}")
    return settings[key]


def _model_params(settings, fam, exclude=()):
    """The family's parameters in the settings; a required one unless swept."""
    for name in sorted(MODEL_PARAMS):
        if settings.get(name) is not None and MODEL_PARAMS[name] not in fam.params:
            raise ConfigError(f"{_flag(name)} does not apply to {fam.name}")
    params = {}
    for p in fam.params:
        if p.name in exclude:
            continue
        if p.default is None:
            params[p.name] = _require(settings, p.name)
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
    return SolverOptions(**{key: settings[key] for key in ("tol", "seed", "dense_cutoff")
                            if key in settings})


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
        entry["pairs"] = {name: asdict(rec) for name, rec in p.pairs.items()}
        points.append(entry)
    return {"swept": asdict(result.grid_spec),
            "k_levels": result.k_levels,
            "space": result.config.space,
            "pair_names": result.pair_names,
            "points": points}


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
    try:
        sz_twice = parse_space(settings.get("sector", "full"))
    except ValueError:
        raise ConfigError("--sector must be full, sz0, sz:<m>, or an integer m = 2*Sz")
    basis = enumerate_sector(lattice, sz_twice)
    sol = solve_model(model, basis, settings.get("levels", 4), _solver_options(settings))
    labels = [label_state(basis, sol.vectors[:, c]) for c in range(sol.k)]
    return {"model": model.describe(), "n_sites": lattice.n_sites,
            "space": space_name(sz_twice), "dimension": basis.dimension,
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
    return asdict(report)


TABLE1_ROWS = (
    {"row": "xxz chain (Delta = -1)", "expected": "I",
     "settings": {"model": "xxz", "sweep": "delta:-2:0:0.01"}},
    {"row": "j1j2 chain (J2 = 0.5)", "expected": "I",
     "settings": {"model": "j1j2", "sweep": "j2:0.3:0.7:0.005"}},
    {"row": "xxz chain (Delta = 1)", "expected": "II",
     "settings": {"model": "xxz", "sweep": "delta:0:2:0.01"}},
    {"row": "spin ladder (J = 0)", "expected": "II",
     "settings": {"model": "ladder", "sweep": "j_rung:-1:1:0.01", "pair": "leg"}},
    {"row": "xxz 2D & 3D (Delta = 1)", "skip": "out of scope (quantum Monte Carlo sizes)"},
    {"row": "j1j2 chain (J2 ~ 0.241)", "expected": "III",
     "settings": {"model": "j1j2", "sweep": "j2:0:0.45:0.005"},
     "note": "desk-scale N=8 resolves the excited-state crossing but not the "
             "derivative structure of the continuous transition"},
    {"row": "ising chain (lambda = 1)", "expected": "III",
     "settings": {"model": "ising", "sweep": "lambda:0.2:2:0.01"}},
)


def _preset_table1(settings) -> dict:
    """Each row is a plain ``classify`` of its settings over the run's, at N = 8."""
    for key in ("model", "sites", "sweep", "pair", "pairs", *MODEL_PARAMS):
        if key in settings:
            raise ConfigError(f"--preset table1 sets {_flag(key)} itself")
    levels = settings.get("levels", 6)
    if levels < 6:
        raise ConfigError(f"--preset table1 needs --levels of at least 6, not {levels}")
    rows = []
    for spec_row in TABLE1_ROWS:
        if "skip" in spec_row:
            rows.append({"row": spec_row["row"], "status": spec_row["skip"]})
            continue
        entry = {"row": spec_row["row"], "expected_type": spec_row["expected"],
                 "report": cmd_classify({**settings, **spec_row["settings"], "preset": None,
                                         "sites": 8, "levels": levels})}
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command, settings = parse_settings(build_parser(), argv)
        started = time.perf_counter()
        payload = COMMANDS[command](settings)
        if settings.get("format", "json") == "csv":
            if not isinstance(payload, SweepResult):
                raise ConfigError("csv output is only available for sweep results")
            text = emit_csv(payload)
        else:
            if isinstance(payload, SweepResult):
                payload = _sweep_payload(payload)
            envelope = make_envelope(command, settings, payload)
            envelope["wall_time_s"] = fmt(time.perf_counter() - started)
            text = emit_json(envelope)
        out_path = settings.get("out")
        if out_path:
            try:
                with open(out_path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as err:
                raise ConfigError(f"cannot write {out_path!r}: {err.strerror}")
        else:
            sys.stdout.write(text)
    except (ConfigError, ValueError, ResourceLimitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ConvergenceError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 1
    return 0


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
