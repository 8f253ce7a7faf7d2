import csv
import io
import json

import numpy as np
import pytest

from spinqpt.analysis import GridSpec, sweep
from spinqpt.lattice import chain
from spinqpt.cli import MODEL_PARAMS, build_parser, emit_csv, run


def run_capture(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- spectrum ----------------------------------------------------------------

def test_spectrum_json_schema(capsys):
    code, out, _ = run_capture(
        ["spectrum", "--model", "xxz", "--delta", "1.0", "--sites", "8",
         "--levels", "4", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    payload = doc["payload"]
    energies = payload["energies"]
    assert len(energies) == 4
    assert energies == sorted(energies)
    assert payload["labels"][0]["total_spin"] == 0.0
    assert payload["labels"][1]["total_spin"] == 1.0
    assert doc["config"]["model"] == "xxz"


def test_spectrum_sector_flag(capsys):
    code, out, _ = run_capture(
        ["spectrum", "--model", "xxz", "--delta", "0.5", "--sites", "6",
         "--sector", "2", "--levels", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["dimension"] == 15
    assert doc["payload"]["labels"][0]["sz_twice"] == 2


def test_sector_zero_and_sz0_print_one_payload(capsys):
    payloads = []
    for sector in ("0", "sz0"):
        code, out, _ = run_capture(
            ["spectrum", "--model", "xxz", "--delta", "0.5", "--sites", "6",
             "--sector", sector, "--levels", "3"], capsys)
        assert code == 0
        payloads.append(json.loads(out)["payload"])
    assert payloads[0] == payloads[1]
    assert payloads[0]["space"] == "sz0"


def test_sector_auto_is_config_error(capsys):
    code, out, err = run_capture(
        ["spectrum", "--model", "xxz", "--delta", "0.5", "--sites", "10",
         "--sector", "auto"], capsys)
    assert code == 2 and out == ""
    assert err == "error: --sector must be full, sz0, sz:<m>, or an integer m = 2*Sz\n"


@pytest.mark.parametrize("sector", ["full", "sz0", "2", "-2"])
def test_sector_accepts_the_space_it_prints(sector, capsys):
    argv = ["spectrum", "--model", "xxz", "--delta", "1", "--sites", "6", "--levels", "2"]
    code, out, _ = run_capture(argv + ["--sector", sector], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    code, out, _ = run_capture(argv + ["--sector", payload["space"]], capsys)
    assert code == 0
    assert json.loads(out)["payload"] == payload


# --- sweep and CSV -----------------------------------------------------------

def test_sweep_csv_shape(capsys):
    code, out, _ = run_capture(
        ["sweep", "--model", "j1j2", "--sweep", "j2:0.40:0.60:0.01",
         "--sites", "8", "--pairs", "nn", "--levels", "3", "--format", "csv"],
        capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, data = rows[0], rows[1:]
    assert len(data) == 21
    assert header[0] == "g" and "nn_C" in header
    widths = {len(r) for r in rows}
    assert widths == {len(header)}


def test_csv_round_trip_12_digits():
    res = sweep("xxz", {}, GridSpec("delta", 0.9, 1.1, 0.1), chain(6),
                k_levels=2, pairs=("nn",))
    text = emit_csv(res)
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    e0_col = header.index("E0")
    c_col = header.index("nn_C")
    # 12 significant digits: faithful to half an ulp of the 12th digit
    for row, point in zip(rows[1:], res.points):
        assert abs(float(row[e0_col]) - point.energies[0]) <= 5e-12 * abs(point.energies[0])
        assert abs(float(row[c_col]) - point.pairs["nn"].concurrence) <= 5e-12


def test_emit_csv_rejects_non_sweep():
    with pytest.raises(ValueError):
        emit_csv({"type": "III"})


def test_single_point_sweep_two_lines(capsys):
    code, out, _ = run_capture(
        ["sweep", "--model", "xxz", "--sweep", "delta:1.0:1.1:0.1",
         "--sites", "4", "--levels", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip("\n").split("\n")
    assert len(lines) == 3  # header + two grid points
    assert out.endswith("\n")


# --- classify ----------------------------------------------------------------

def test_classify_payload_schema(capsys):
    code, out, _ = run_capture(
        ["classify", "--model", "xxz", "--sweep", "delta:0.0:2.0:0.05",
         "--sites", "6", "--levels", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    payload = doc["payload"]
    assert payload["type"] in ("I", "II", "III", "none")
    assert isinstance(payload["evidence"]["es_events"], list)
    assert payload["type"] == "II"


def test_record_payloads_keep_their_schema(capsys):
    # the records are printed whole, so a field added to one shows up here
    code, out, _ = run_capture(
        ["classify", "--model", "xxz", "--sweep", "delta:0.0:2.0:0.05",
         "--sites", "6", "--levels", "4"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert list(payload) == ["type", "gs_lc", "es_lc", "concurrence_behavior",
                             "space", "evidence"]
    events = payload["evidence"]["gs_events"] + payload["evidence"]["es_events"]
    assert events
    for event in events:
        assert list(event) == ["level_pair", "location", "bracket", "kind", "min_gap"]
    code, out, _ = run_capture(
        ["sweep", "--model", "ladder", "--sweep", "j_rung:0.5:1.0:0.25",
         "--sites", "8", "--levels", "2", "--pairs", "leg,rung"], capsys)
    assert code == 0
    for point in json.loads(out)["payload"]["points"]:
        assert list(point["pairs"]) == ["leg", "rung"]
        for record in point["pairs"].values():
            assert list(record) == ["sites", "cxx", "cyy", "czz",
                                    "concurrence_raw", "concurrence"]


def test_classify_and_scaling_name_the_space_they_solved(capsys):
    code, out, _ = run_capture(
        ["classify", "--model", "j1j2", "--j1", "1", "--sweep", "j2:0:1:0.05",
         "--sites", "10", "--levels", "3"], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["space"] == "sz0"
    code, out, _ = run_capture(
        ["scaling", "--model", "j1j2", "--j1", "1", "--sweep", "j2:0.2:0.7:0.05",
         "--sizes", "8,10", "--order", "2"], capsys)
    assert code == 0
    entries = json.loads(out)["payload"]["entries"]
    assert [(e["n_sites"], e["space"]) for e in entries] == [(8, "full"), (10, "sz0")]


def test_pair_outside_the_swept_pairs_is_config_error(capsys):
    code, out, err = run_capture(
        ["classify", "--model", "xxz", "--sweep", "delta:0:1:0.1", "--sites", "6",
         "--pairs", "0-2", "--pair", "nn"], capsys)
    assert code == 2 and out == ""
    assert err == "error: pair 'nn' is not among this sweep's pairs 0-2\n"


@pytest.mark.parametrize("argv, flag", [
    (["--model", "xxz"], "--model"),
    (["--sites", "10"], "--sites"),
    (["--sweep", "delta:0:1:0.1"], "--sweep"),
    (["--pair", "nn"], "--pair"),
    (["--pairs", "0-1"], "--pairs"),
    (["--delta", "1"], "--delta"),
    (["--lambda", "1"], "--lambda"),
    (["--levels", "5"], "--levels"),
])
def test_table1_preset_refuses_what_its_rows_fix(argv, flag, capsys):
    code, out, err = run_capture(["classify", "--preset", "table1"] + argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --preset table1 ") and f" {flag} " in err
    assert err.count("\n") == 1


def test_table1_preset_reads_jump_tol(capsys):
    code, out, _ = run_capture(
        ["classify", "--preset", "table1", "--jump-tol", "0.5", "--threads", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == {"preset": "table1", "jump_tol": 0.5, "threads": 1}
    reports = [row["report"] for row in doc["payload"]["rows"] if "report" in row]
    assert len(reports) == 6
    assert all(report["evidence"]["jump_tol"] == 0.5 for report in reports)


# --- sumrule -----------------------------------------------------------------

def test_sumrule_reports_residual(capsys):
    code, out, _ = run_capture(
        ["sumrule", "--model", "ising", "--lambda", "1.0", "--sites", "8",
         "--operator", "uniform_x"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["reports"][0]["residual"] <= 1e-10
    assert doc["payload"]["rearranged"]["residual"] <= 1e-10


def test_sumrule_solves_one_spectrum_per_call(capsys, monkeypatch):
    import spinqpt.observables as observables
    solves = []
    real = observables.dense_spectrum

    def counted(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(observables, "dense_spectrum", counted)
    code, out, _ = run_capture(
        ["sumrule", "--model", "xxz", "--delta", "0.6", "--sites", "6",
         "--operator", "all"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["reports"]) == 3 and len(solves) == 1
    assert max(r["residual"] for r in payload["reports"]) <= 1e-10
    assert payload["rearranged"]["residual"] <= 1e-10


# --- scaling -----------------------------------------------------------------

def test_scaling_payload(capsys):
    code, out, _ = run_capture(
        ["scaling", "--model", "ising", "--sweep", "lambda:0.5:1.5:0.05",
         "--sizes", "4,6", "--order", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    payload = doc["payload"]
    assert {e["n_sites"] for e in payload["entries"]} <= {4, 6}
    if len(payload["entries"]) >= 2:
        assert set(payload["fit"]) == {"intercept", "slope", "residual_norm"}


# --- config handling ---------------------------------------------------------

def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.flags"
    cfg.write_text("""
# an xxz sweep
--model xxz --delta 1.0
--sites 6
--sweep delta:0.9:1.1:0.1 --levels 2  # two levels
--format json
""")
    code, out, _ = run_capture(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == {"model": "xxz", "delta": 1.0, "sites": 6,
                             "sweep": "delta:0.9:1.1:0.1", "levels": 2, "format": "json"}
    # the command line overrides the file, before or after --config
    for argv in (["--config", str(cfg), "--sites", "4"],
                 ["--sites", "4", "--config", str(cfg)]):
        code, out, _ = run_capture(["sweep"] + argv, capsys)
        assert code == 0
        assert json.loads(out)["config"]["sites"] == 4


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.flags"
    cfg.write_text("--model xxz\n--frobnicate 1\n")
    code, out, err = run_capture(["sweep", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err == "error: unrecognized arguments: --frobnicate 1\n"


def test_unreadable_config_file_is_config_error(tmp_path, capsys):
    argv = ["spectrum", "--model", "xxz", "--delta", "1", "--sites", "4"]
    code, out, err = run_capture(argv + ["--config", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: config file {str(tmp_path)!r} cannot be read")
    assert len(err.splitlines()) == 1
    code, _, err = run_capture(argv + ["--config", str(tmp_path / "none.flags")], capsys)
    assert code == 2
    assert err == f"error: config file {str(tmp_path / 'none.flags')!r} not found\n"
    for name, content in (("latin1.flags", "--levels 2 # \xe9".encode("latin-1")),
                          ("quote.flags", b"--out 'x.json")):
        path = tmp_path / name
        path.write_bytes(content)
        code, out, err = run_capture(argv + ["--config", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: config file {str(path)!r} cannot be read: ")
        assert len(err.splitlines()) == 1


def test_unwritable_output_path_is_config_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.json"
    code, out, err = run_capture(["spectrum", "--model", "xxz", "--delta", "1",
                                  "--sites", "4", "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1


def test_missing_required_flag_is_config_error(capsys):
    code, _, err = run_capture(["sweep", "--model", "xxz", "--sites", "6"], capsys)
    assert code == 2
    assert "sweep" in err


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--model", "xxz", "--sites", "4"], "--delta"),
    (["sumrule", "--model", "ising", "--sites", "4"], "--lambda"),
    (["spectrum", "--model", "ladder", "--sites", "4"], "--j-rung"),
])
def test_missing_model_parameter_is_config_error(argv, flag, capsys):
    code, _, err = run_capture(argv, capsys)
    assert code == 2
    assert f"missing required setting {flag}" in err


def test_wrong_family_parameter_rejected(capsys):
    code, _, err = run_capture(
        ["sweep", "--model", "xxz", "--sweep", "delta:0:1:0.5", "--sites", "4",
         "--j2", "0.5"], capsys)
    assert code == 2
    assert "j2" in err


@pytest.mark.parametrize("flag, value", [("--lambda", "0.5"), ("--hz", "0.2")])
def test_wrong_family_parameter_error_names_the_flag(flag, value, capsys):
    code, _, err = run_capture(
        ["spectrum", "--model", "xxz", "--delta", "1", "--sites", "4", flag, value],
        capsys)
    assert code == 2
    assert f"{flag} does not apply to xxz" in err


def test_swept_name_must_match_family(capsys):
    code, _, err = run_capture(
        ["sweep", "--model", "xxz", "--sweep", "j2:0:1:0.5", "--sites", "4"],
        capsys)
    assert code == 2


def test_csv_unavailable_for_classify(capsys):
    code, _, err = run_capture(
        ["classify", "--model", "xxz", "--sweep", "delta:0.5:1.5:0.1",
         "--sites", "4", "--levels", "3", "--format", "csv"], capsys)
    assert code == 2
    assert "csv" in err.lower()


def test_bad_grid_is_config_error(capsys):
    for grid in ("delta:1:0:0.1", "delta:0:inf:0.5"):
        code, out, err = run_capture(
            ["sweep", "--model", "xxz", "--sweep", grid, "--sites", "4"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: bad sweep grid: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--model", "xxz", "--delta", "inf", "--sites", "6"],
     "xxz parameter delta must be finite, not inf"),
    (["spectrum", "--model", "ising", "--lambda", "nan", "--sites", "6"],
     "ising parameter lam must be finite, not nan"),
    # above the dense cutoff: Lanczos on Sz = 0
    (["spectrum", "--model", "j1j2", "--j1", "1", "--j2", "nan", "--sites", "12",
      "--sector", "sz0"], "j1j2 parameter j2 must be finite, not nan"),
    (["sweep", "--model", "j1j2", "--j1", "inf", "--sweep", "j2:0:1:0.5", "--sites", "4"],
     "j1j2 parameter j1 must be finite, not inf"),
])
def test_non_finite_model_parameter_is_config_error(argv, message, capsys):
    code, out, err = run_capture(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_repeated_sizes_are_config_error(capsys):
    code, out, err = run_capture(
        ["scaling", "--model", "ising", "--sweep", "lambda:0.5:1.5:0.05",
         "--sizes", "4,4", "--order", "1"], capsys)
    assert code == 2 and out == ""
    assert err == "error: each size may appear once, not [4, 4]\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--sweep", "delta:0:1:0.1", "--format", "csv"],
    ["classify", "--sweep", "delta:0:1:0.1"],
    ["spectrum", "--delta", "1"],
    ["spectrum", "--delta", "1", "--dense-cutoff", "1"],
])
def test_more_levels_than_the_space_is_config_error(argv, capsys):
    code, out, err = run_capture(argv + ["--model", "xxz", "--sites", "2", "--levels", "6"],
                                 capsys)
    assert code == 2 and out == ""
    assert "k=6 exceeds dimension" in err


@pytest.mark.parametrize("levels", ["0", "-1"])
@pytest.mark.parametrize("cutoff", [[], ["--dense-cutoff", "1"]])
def test_fewer_than_one_level_is_config_error(levels, cutoff, capsys):
    code, out, err = run_capture(
        ["spectrum", "--model", "xxz", "--delta", "1", "--sites", "4",
         "--levels", levels] + cutoff, capsys)
    assert code == 2 and out == ""
    assert "need k >= 1" in err


def test_oversized_sumrule_is_config_error_before_any_solve(capsys, monkeypatch):
    import spinqpt.observables as observables

    def never(*args, **kwargs):
        raise AssertionError("solved a space above the cap")

    monkeypatch.setattr(observables, "dense_spectrum", never)
    code, out, err = run_capture(
        ["sumrule", "--model", "xxz", "--delta", "1", "--sites", "13"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: sum rules need the full spectrum; ")


@pytest.mark.parametrize("flags, flag", [
    pytest.param("--format xml", "--format", id="output-format-xml"),
    pytest.param("--kind mid", "--kind", id="grid-kind-mid"),
    pytest.param("--order two", "--order", id="grid-order-two"),
    pytest.param("--preset table2", "--preset", id="classify-preset-table2"),
    pytest.param("--sites eight", "--sites", id="lattice-sites-eight"),
    pytest.param("--dense-cap 10", "--dense-cap", id="solver-dense_cap-10"),
])
def test_bad_config_value_is_config_error(flags, flag, tmp_path, capsys):
    cfg = tmp_path / "bad.flags"
    cfg.write_text(flags + "\n")
    code, out, err = run_capture(
        ["scaling", "--config", str(cfg), "--model", "ising", "--sweep",
         "lambda:0.5:1.5:0.05", "--sizes", "4,6", "--order", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err and err.count("\n") == 1


def test_config_values_read_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.flags"
    cfg.write_text("--seed 0x10\n")
    code, out, _ = run_capture(
        ["spectrum", "--config", str(cfg), "--model", "xxz", "--delta", "1",
         "--sites", "4", "--levels", "1"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 16
    cfg.write_text("--raw\n")
    code, out, _ = run_capture(
        ["scaling", "--config", str(cfg), "--model", "ising", "--sweep",
         "lambda:0.5:1.5:0.05", "--sizes", "4,6", "--order", "1"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["raw"] is True


def test_bad_preset_in_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.flags"
    cfg.write_text("--preset table2\n")
    code, out, err = run_capture(["classify", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: argument --preset: invalid choice: 'table2'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    pytest.param("--preset table1", id="classify-preset-table1"),
    pytest.param("--sizes 4,6", id="grid-sizes-4,6"),
    pytest.param("--raw", id="grid-raw-yes"),
])
def test_config_key_of_another_subcommand_is_config_error(flags, tmp_path, capsys):
    cfg = tmp_path / "other.flags"
    cfg.write_text(flags + "\n")
    code, out, err = run_capture(
        ["spectrum", "--model", "xxz", "--delta", "1", "--sites", "4",
         "--levels", "1", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: unrecognized arguments: {flags}\n"


@pytest.mark.parametrize("value", ["0", "-2"])
def test_threads_below_one_is_config_error(value, tmp_path, capsys):
    argv = ["sweep", "--model", "xxz", "--sweep", "delta:0:1:0.5", "--sites", "4",
            "--levels", "2", "--format", "csv"]
    message = f"error: argument --threads: must be at least 1, not {value}\n"
    code, out, err = run_capture(argv + ["--threads", value], capsys)
    assert code == 2 and out == "" and err == message
    cfg = tmp_path / "threads.flags"
    cfg.write_text(f"--threads {value}\n")
    code, out, err = run_capture(argv + ["--config", str(cfg)], capsys)
    assert code == 2 and out == "" and err == message


def _floats(node):
    if isinstance(node, float):
        yield node
    elif isinstance(node, dict):
        for item in node.values():
            yield from _floats(item)
    elif isinstance(node, list):
        for item in node:
            yield from _floats(item)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "xyz", "--jx", "0.91234567890123", "--jy", "1.1",
     "--jz", "1", "--hz", "0.3", "--sites", "6", "--levels", "8"],
    ["classify", "--model", "ising", "--sweep", "lambda:0.2:2:0.05", "--sites", "6",
     "--levels", "4", "--jump-tol", "0.0123456789012345"],
    ["sumrule", "--model", "xxz", "--delta", "0.61234567890123", "--sites", "6"],
    ["scaling", "--model", "ising", "--sweep", "lambda:0.5:1.5:0.05",
     "--sizes", "4,6,8", "--order", "1", "--tol", "1.23456789012345e-10"],
])
def test_json_floats_carry_12_digits(argv, capsys):
    code, out, _ = run_capture(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    values = list(_floats(doc["config"])) + list(_floats(doc["payload"]))
    assert len(values) > 5
    assert all(x == float(f"{x:.12g}") for x in values)


# --- reproducibility ---------------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    argv = ["sweep", "--model", "xxz", "--sweep", "delta:0.9:1.1:0.05",
            "--sites", "6", "--levels", "3", "--format", "csv",
            "--seed", "0x5EED"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_envelope_config_echo_is_faithful(capsys):
    argv = ["sweep", "--model", "xxz", "--sweep", "delta:0.9:1.1:0.1",
            "--sites", "4", "--levels", "2"]
    code, out, _ = run_capture(argv, capsys)
    doc = json.loads(out)
    cfg = doc["config"]
    assert cfg == {"model": "xxz", "sweep": "delta:0.9:1.1:0.1",
                   "sites": 4, "levels": 2}


def test_true_single_point_sweep(capsys):
    code, out, _ = run_capture(
        ["sweep", "--model", "xxz", "--sweep", "delta:1.0:1.0:0.1",
         "--sites", "4", "--levels", "2", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip("\n").split("\n")
    assert len(lines) == 2  # header plus the single grid point


def test_empty_sweep_emits_header_only():
    from spinqpt.analysis import SweepResult, PointConfig, SolverOptions
    cfg = PointConfig(family="xxz", fixed_params=(), swept_name="delta",
                      lattice=chain(4), sz_twice=None, k_levels=2,
                      pair_items=(("nn", (0, 1)),), options=SolverOptions())
    empty = SweepResult(cfg, GridSpec("delta", 1.0, 1.0, 0.1), [])
    text = emit_csv(empty)
    assert text.count("\n") == 1 and text.startswith("g,")


def test_lapack_failure_is_a_numeric_failure(capsys, monkeypatch):
    def broken(mat):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    code, out, err = run_capture(
        ["spectrum", "--model", "xxz", "--delta", "1.0", "--sites", "6"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("numeric failure:") and "did not converge" in err


# --- the settings each subcommand reads ----------------------------------------

def test_each_subcommand_has_only_the_settings_it_reads():
    common = {"config", "model", "seed", "threads", "format", "out", *MODEL_PARAMS}
    solver = {"tol", "dense_cutoff"}
    sweepish = {"sweep", "levels", "pairs", "space"}
    expected = {
        "spectrum": common | solver | {"sites", "levels", "sector"},
        "sweep": common | solver | sweepish | {"sites"},
        "classify": common | solver | sweepish | {"sites", "pair", "jump_tol",
                                                  "max_order", "preset"},
        "sumrule": common | {"sites", "operator"},
        "scaling": common | solver | sweepish | {"sizes", "order", "kind", "raw"},
    }
    parser = build_parser()
    # a subcommand's namespace holds one entry per setting, plus the command
    settings = {cmd: set(vars(parser.parse_args([cmd]))) - {"command"} for cmd in expected}
    assert settings == expected


@pytest.mark.parametrize("argv", [
    ["scaling", "--model", "ising", "--sweep", "lambda:0.5:1.5:0.05", "--sizes", "4,6",
     "--order", "1", "--sites", "4"],
    ["sumrule", "--model", "xxz", "--delta", "1", "--sites", "6", "--tol", "1e-8"],
    ["sumrule", "--model", "xxz", "--delta", "1", "--sites", "6", "--dense-cutoff", "8"],
])
def test_flag_a_subcommand_does_not_read_is_refused(argv, capsys):
    code, out, err = run_capture(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: unrecognized arguments: ") and err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["sweep", "--help"])
    assert exit_info.value.code == 0
    assert "--sweep" in capsys.readouterr().out


def test_every_subcommand_takes_seed_and_threads(capsys):
    code, out, _ = run_capture(
        ["sumrule", "--model", "xxz", "--delta", "1", "--sites", "6",
         "--seed", "3", "--threads", "1"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 3
