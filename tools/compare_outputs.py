"""Compare spinqpt's outputs between two source trees, command by command.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE

Each command of ``COMMANDS`` runs ``spinqpt.cli.run`` in a fresh
interpreter with ``PYTHONPATH=<tree>/src``, BLAS and OpenMP at one
thread, and ``--threads 1`` for the subcommands that run sweeps.  The
run-dependent ``wall_time_s`` is blanked.  For each command the report
says "identical", or names each JSON field path (list indices written
``[]``) or CSV column that changed, with its largest absolute move.
The exit status is 1 when any command differs, else 0.

The list covers every subcommand, the dense and Lanczos solver paths
(Lanczos at the default and at a set seed), full, Sz = 0 and integer
sectors, CSV and JSON, and the canonical Table-1 preset, with and
without a setting it reads.
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys

RUN = "import sys; from spinqpt.cli import run; sys.exit(run(sys.argv[1:]))"
SWEEPING = ("sweep", "classify", "scaling")  # the subcommands that read --threads

COMMANDS = (
    # spectrum: dense and Lanczos, full / sz0 / integer sectors
    "spectrum --model xxz --delta 1 --sites 8 --levels 4",
    "spectrum --model xxz --delta 0.5 --sites 6 --sector 2 --levels 2",
    "spectrum --model xxz --delta 0.5 --sites 6 --sector 0 --levels 3",
    "spectrum --model xxz --delta 0.5 --sites 6 --sector sz0 --levels 3",
    "spectrum --model ising --lambda 0.7 --sites 6 --levels 4",
    "spectrum --model ising --lambda 0.7 --sites 6 --sector sz0",
    "spectrum --model xyz --jy 0.6 --hz 0.3 --sites 8 --levels 4",
    "spectrum --model j1j2 --j1 1 --j2 0.3 --sites 14 --sector sz0 --levels 4",
    "spectrum --model ladder --j-rung 0.8 --sites 12 --levels 4",
    "spectrum --model xyz --jx 0.9 --jy 1.1 --jz 0.8 --hz 0.2 --sites 12 --sector full",
    "spectrum --model xxz --delta -1 --sites 12 --sector full --levels 14",
    # Lanczos at a set seed on the degenerate Majumdar-Ghosh pair (dim 924),
    # whose certifying restarts reuse the Krylov workspace
    "spectrum --model j1j2 --j1 1 --j2 0.5 --sites 12 --sector sz0 --levels 4 --seed 7",
    # Lanczos on the 4-site ring, whose NNN bond list holds each pair twice
    "spectrum --model j1j2 --j1 1 --j2 0.5 --sites 4 --dense-cutoff 1 --levels 2",
    # parity groups of the full basis split by the reflection and spin inversion
    "spectrum --model xyz --jx 0.8 --jy 1.2 --jz 0.9 --sites 8 --levels 6",
    # every level of a dense full space, each lifted into the basis
    "spectrum --model xxz --delta 1 --sites 8 --levels 256",
    # every level of a ladder, whose translations move a rung
    "spectrum --model ladder --j-rung 0.7 --sites 8 --levels 256",
    # odd N: no momentum pi, and every other momentum pairs with its partner
    "spectrum --model j1j2 --j1 1 --j2 0.3 --sites 7 --levels 128",
    # sweep: CSV and JSON, dense full space and Lanczos Sz = 0
    "sweep --model j1j2 --j1 1 --sweep j2:0:1:0.01 --sites 8 --levels 5 --format csv",
    "sweep --model ladder --j-leg 1 --sweep j_rung:-1:1:0.05 --sites 8 --levels 6 "
    "--pairs leg,rung --format csv",
    "sweep --model xxz --sweep delta:-2:0:0.01 --sites 8 --levels 6 --format csv",
    "sweep --model xyz --jy 0.6 --sweep jz:0:2:0.1 --sites 6 --levels 3",
    "sweep --model xyz --sweep h:0:1:0.1 --sites 6 --levels 3 --pairs nn,0-2",
    "sweep --model xxz --sweep delta:0.5:1.5:0.25 --sites 8 --levels 3 --space sz0",
    # odd N: Sz sectors split by the reflection alone
    "sweep --model xxz --sweep delta:0:1:0.1 --sites 7 --levels 4",
    # dense ising sweep: parity groups, where Sz is no label of the block
    "sweep --model ising --sweep lambda:0.5:1.5:0.1 --sites 8 --levels 4",
    "sweep --model j1j2 --j1 1 --sweep j2:0.2:0.7:0.05 --sites 16 --levels 3 --format csv",
    # --dense-cutoff picks only the solver: this sweep solves Sz = 0 as without it
    "sweep --model j1j2 --j1 1 --sweep j2:0.2:0.4:0.1 --sites 10 --levels 3 --dense-cutoff 1024",
    # dense blocks of an Sz = 0 basis, across J2 = 0 where the nnn terms weigh nothing
    "sweep --model j1j2 --j1 1 --sweep j2:0:0.2:0.05 --sites 10 --levels 3 --space sz0 "
    "--dense-cutoff 300 --format csv",
    # classify: the preset, dense rows and a full-space Lanczos row
    "classify --preset table1",
    "classify --preset table1 --jump-tol 0.05",  # the preset reads --jump-tol
    "classify --model j1j2 --j1 1 --sweep j2:0:1:0.02 --sites 6 --levels 4",
    "classify --model xxz --sweep delta:0:2:0.05 --sites 8 --levels 4",
    "classify --model j1j2 --j1 1 --sweep j2:0:1:0.05 --sites 10 --levels 3",
    "classify --model ising --sweep lambda:0.05:1:0.05 --sites 10 --levels 3",
    # dense probes on both sides of h = 0, where the field term and the layout drop out
    "classify --model xyz --jy 0.6 --sweep h:-0.5:0.5:0.05 --sites 8 --levels 4",
    # sumrule
    "sumrule --model xxz --delta 0.6 --sites 8 --operator all",
    "sumrule --model ising --lambda 1 --sites 8 --operator all",
    "sumrule --model ising --lambda 0.8 --sites 10 --operator all",  # the largest dense solve
    # all 1024 levels lifted, mirrored Sz blocks included
    "sumrule --model xxz --delta 0.6 --sites 10 --operator all",
    # scaling: dense, Sz = 0 Lanczos, full-space Lanczos
    "scaling --model xxz --sweep delta:-2:0:0.05 --sizes 6,8 --kind max --order 3",
    "scaling --model ising --sweep lambda:0.2:2:0.05 --sizes 6,8,10,12 --order 1",
    "scaling --model j1j2 --j1 1 --sweep j2:0.2:0.7:0.05 --sizes 8,10 --order 2 --raw",
    "scaling --model j1j2 --j1 1 --sweep j2:0.2:0.7:0.05 --sizes 8,10,12 --order 2",
    "scaling --model j1j2 --j1 1 --sweep j2:0.2:0.7:0.05 --sizes 8,12,16 --order 2",
)


def run_command(tree, command):
    """``(exit code, stdout, stderr)`` of one command on ``tree``."""
    argv = command.split()
    if argv[0] in SWEEPING:
        argv += ["--threads", "1"]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUN, *argv], env=env,
                          capture_output=True, text=True, check=False)
    stdout = re.sub(r'"wall_time_s": [^,\n]*', '"wall_time_s": null', done.stdout)
    return done.returncode, stdout, done.stderr


def _number(x):
    """``x`` as a float when it is a JSON number or a numeric CSV cell."""
    if isinstance(x, bool) or x is None:
        return None
    try:
        return float(x)
    except ValueError:
        return None


def _record(changes, path, old, new):
    """Fold one changed value into ``changes``: path -> largest move, or a
    description when the values are not both numbers."""
    a, b = _number(old), _number(new)
    if a is not None and b is not None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        move = abs(a - b)
        if not isinstance(changes.get(path), str):
            changes[path] = max(changes.get(path, 0.0), move)
    elif old != new and not isinstance(changes.get(path), str):
        changes[path] = f"{json.dumps(old)} -> {json.dumps(new)}"


def json_changes(old, new, path="", changes=None) -> dict:
    """Changed field paths of two parsed JSON documents."""
    changes = {} if changes is None else changes
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old.keys() | new.keys():
            sub = f"{path}.{key}" if path else key
            if key not in new:
                changes[sub] = "removed"
            elif key not in old:
                changes[sub] = "added"
            else:
                json_changes(old[key], new[key], sub, changes)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            changes[path] = f"length {len(old)} -> {len(new)}"
        for a, b in zip(old, new):
            json_changes(a, b, path + "[]", changes)
    else:
        _record(changes, path, old, new)
    return changes


def csv_changes(old, new) -> dict:
    """Changed columns of two CSV texts with a header row."""
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        return {"header": "differs"}
    changes = {}
    if len(old_rows) != len(new_rows):
        changes["rows"] = f"{len(old_rows) - 1} -> {len(new_rows) - 1}"
    for a, b in zip(old_rows[1:], new_rows[1:]):
        for column, x, y in zip(old_rows[0], a, b):
            _record(changes, column, x, y)
    return changes


def changes_between(command, old, new) -> dict:
    """What changed between two ``run_command`` results of ``command``."""
    (old_code, old_out, old_err), (new_code, new_out, new_err) = old, new
    changes = {}
    if old_code != new_code:
        changes["exit code"] = f"{old_code} -> {new_code}"
    if old_err != new_err:
        changes["stderr"] = "differs"
    if old_out == new_out:
        return changes
    if "--format csv" in command:
        changes.update(csv_changes(old_out, new_out))
    else:
        try:
            changes.update(json_changes(json.loads(old_out), json.loads(new_out)))
        except ValueError:
            changes["stdout"] = "differs"
    return changes or {"stdout": "differs in layout only"}


def compare(old_tree, new_tree, commands=COMMANDS) -> int:
    """Run ``commands`` on both trees and report; 1 if any differ, else 0."""
    status = 0
    for command in commands:
        changes = changes_between(command, run_command(old_tree, command),
                                  run_command(new_tree, command))
        print(f"{command}: {'differs' if changes else 'identical'}")
        for path, what in sorted(changes.items()):
            text = f"max |change| {what:.3g}" if isinstance(what, float) else what
            print(f"    {path}: {text}")
        status |= bool(changes)
        sys.stdout.flush()
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare_outputs.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main())
