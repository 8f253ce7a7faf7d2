"""``tools/compare_outputs.py``: a tree compared with itself reports every
command identical, and a changed output is reported by field path or CSV
column with its largest move."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

FAST = ("spectrum --model xxz --delta 0.5 --sites 6 --sector 2 --levels 2",
        "sweep --model xyz --jy 0.6 --sweep jz:0:2:0.1 --sites 6 --levels 3")


def test_the_repository_matches_itself(capsys):
    assert set(FAST) <= set(compare_outputs.COMMANDS)
    assert compare_outputs.compare(ROOT, ROOT, FAST) == 0
    assert capsys.readouterr().out == "".join(f"{c}: identical\n" for c in FAST)


def test_changes_are_reported_by_path_and_largest_move():
    old = '{"payload": {"space": "sz:0", "rows": [{"x": 1.0}, {"x": 2.0}]}}'
    new = '{"payload": {"space": "sz0", "rows": [{"x": 1.5}, {"x": 2.25}], "n": 1}}'
    assert compare_outputs.changes_between("spectrum", (0, old, ""), (2, new, "")) == {
        "exit code": "0 -> 2", "payload.space": '"sz:0" -> "sz0"',
        "payload.rows[].x": 0.5, "payload.n": "added"}
    old_csv, new_csv = "g,E0,S_0\n0,1.0,0\n1,2.0,1\n", "g,E0,S_0\n0,1.0,\n1,2.125,1\n"
    assert compare_outputs.changes_between(
        "sweep --format csv", (0, old_csv, ""), (0, new_csv, "")) == {
        "E0": 0.125, "S_0": '"0" -> ""'}
