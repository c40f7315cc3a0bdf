"""Command-line behavior: output schema, determinism, exit codes, file IO."""

import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzydist import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# output schema

def test_discrete_json_schema(capsys):
    code, out, err = run_cli(
        ["discrete", "--n", "1", "--lambda", "1", "--n3", "0", "--no-timestamp"], capsys)
    assert code == 0
    assert '"distance": 1.0' in out  # worked example, verbatim
    doc = json.loads(out)
    assert doc["meta"]["command"] == "discrete"
    assert doc["meta"]["n"] == "1"
    assert doc["meta"]["lambda"] == 1.0
    assert doc["meta"]["seed"] is None  # only validate and continuum-check take --seed
    assert doc["meta"]["version"]
    row = doc["results"][0]
    assert row["method"] == "closed_form"
    assert row["value"] == 1.0
    assert abs(row["norm_pipeline"] - 1.0) <= 1e-10


def test_discrete_oracle_names_its_route(capsys):
    code, out, _ = run_cli(["discrete", "--n", "1", "--oracle", "--no-timestamp"], capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 2
    for row in rows:
        assert (row["optimizer_method"], row["optimizer_stop"]) == ("diagonal_exact", "exact")
        assert abs(row["optimizer"] - row["distance"]) <= 1e-12 * row["distance"]


def test_thermal_worked_example(capsys):
    code, out, _ = run_cli(
        ["thermal", "--n", "1", "--n3", "0", "--beta", "0", "--energies", "default",
         "--no-timestamp"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["distance"] == pytest.approx(0.365148, abs=1e-6)


def test_timestamp_present_by_default(capsys):
    code, out, _ = run_cli(["discrete", "--n", "1", "--n3", "0"], capsys)
    assert code == 0
    assert "timestamp" in json.loads(out)["meta"]


def test_csv_and_json_encode_identical_values(capsys):
    args = ["table", "--n-min", "1/2", "--n-max", "3/2"]
    code, jout, _ = run_cli(args + ["--no-timestamp"], capsys)
    assert code == 0
    code, cout, _ = run_cli(args + ["--format", "csv", "--no-timestamp"], capsys)
    assert code == 0
    jrows = json.loads(jout)["results"]
    lines = cout.strip().splitlines()
    header = lines[0].split(",")
    assert header == ["n", "n3", "closed_form", "norm_pipeline", "ratio"]
    assert len(lines) - 1 == len(jrows)
    for line, jrow in zip(lines[1:], jrows):
        cells = line.split(",")
        for key, cell in zip(header, cells):
            if key in ("n", "n3"):
                assert cell == jrow[key]
            else:
                assert float(cell) == pytest.approx(jrow[key], rel=1e-15)


def test_quantum_pure_oracle_columns(capsys):
    code, out, _ = run_cli(
        ["quantum-pure", "--n", "3/2", "--n3", "1/2", "--right-sector", "distinct",
         "--oracle", "--no-timestamp"], capsys)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["distance"] == pytest.approx(1.9364916731037085, rel=1e-12)
    assert row["oracle"] == pytest.approx(row["distance"], rel=1e-10)
    assert row["method"] == "lower_bound_formula"
    assert "symmetrized" in row
    code, out, _ = run_cli(
        ["quantum-pure", "--n", "3/2", "--n3", "1/2", "--right-sector", "same",
         "--oracle", "--no-timestamp"], capsys)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["method"] == "closed_form"
    assert row["oracle"] == pytest.approx(row["distance"], rel=1e-10)


def test_coherent_oracle_columns(capsys):
    code, out, _ = run_cli(
        ["coherent", "--n", "1", "--z", "0.3+0.4i", "--dz", "1e-4", "--oracle",
         "--no-timestamp"], capsys)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["metric_coefficient"] == pytest.approx(1.6, rel=1e-12)
    assert row["richardson_coefficient"] == pytest.approx(1.6, rel=1e-6)
    assert row["fd_oracle"] == pytest.approx(row["distance"], rel=1e-4)


def test_quantum_mixed_profile_file(tmp_path, capsys):
    prof = tmp_path / "prof.txt"
    prof.write_text("# delta on the top level\n1 0 0\n1 0 0\n1 0 0\n")
    code, out, _ = run_cli(
        ["quantum-mixed", "--n", "1", "--n3", "0", "--profile", str(prof),
         "--no-timestamp"], capsys)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["distance"] == pytest.approx(0.6324555320336759, rel=1e-12)


def test_thermal_energies_file(tmp_path, capsys):
    en = tmp_path / "levels.txt"
    en.write_text("1.0 0.0 -1.0\n")
    code, out, _ = run_cli(
        ["thermal", "--n", "1", "--n3", "0", "--beta", "0.5", "--energies", str(en),
         "--oracle", "--no-timestamp"], capsys)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["profile_functional"] == pytest.approx(row["distance"], rel=1e-10)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "res.json"
    code, out, _ = run_cli(
        ["discrete", "--n", "1", "--n3", "0", "--out", str(target), "--no-timestamp"],
        capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["results"]


# golden files, written by the CLI as
#   python -m fuzzydist.cli ARGS --format FORMAT --no-timestamp > tests/data/cli_golden/NAME.FORMAT
# with no ascent column, whose last digits depend on the platform
GOLDEN = Path(__file__).parent / "data" / "cli_golden"
GOLDEN_ARGS = {
    "discrete": ["discrete", "--n", "3/2"],
    "coherent": ["coherent", "--n", "1", "--z", "0.3+0.4i", "--oracle"],
    "quantum-pure-same": ["quantum-pure", "--n", "3/2", "--oracle"],
    "quantum-pure-distinct": ["quantum-pure", "--n", "3/2", "--right-sector", "distinct",
                              "--oracle"],
    "quantum-mixed": ["quantum-mixed", "--n", "1", "--oracle"],
    "thermal": ["thermal", "--n", "1", "--beta", "0.7", "--oracle"],
    "table": ["table", "--n-min", "1/2", "--n-max", "3/2"],
}
FLOAT_TEXT = re.compile(r"^-?(\d+\.\d*|\d+(\.\d*)?e[-+]\d+|nan|inf)$")


def _close(got: float, want: float) -> bool:
    """Within 1e-12 relative; a golden 0.0 (a roundoff residual) within 1e-12 of zero."""
    return got == pytest.approx(want, rel=1e-12, abs=1e-12 if want == 0.0 else 0.0)


def _assert_cells_match(got, want):
    """Same keys in the same order; floats close, everything else exact."""
    assert list(got) == list(want)
    for key in want:
        if isinstance(want[key], float):
            assert isinstance(got[key], float) and _close(got[key], want[key]), key
        else:
            assert got[key] == want[key], key


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
def test_output_matches_golden(name, capsys):
    code, out, _ = run_cli(GOLDEN_ARGS[name] + ["--format", "json", "--no-timestamp"], capsys)
    assert code == 0
    got, want = json.loads(out), json.loads((GOLDEN / (name + ".json")).read_text())
    assert list(got) == ["meta", "results"]
    assert got["meta"] == want["meta"] and list(got["meta"]) == list(want["meta"])
    assert len(got["results"]) == len(want["results"])
    for row, golden_row in zip(got["results"], want["results"]):
        _assert_cells_match(row, golden_row)

    code, out, _ = run_cli(GOLDEN_ARGS[name] + ["--format", "csv", "--no-timestamp"], capsys)
    assert code == 0
    got = out.splitlines()
    want = (GOLDEN / (name + ".csv")).read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for line, golden_line in zip(got[1:], want[1:]):
        cells, golden_cells = line.split(","), golden_line.split(",")
        assert len(cells) == len(golden_cells)
        for cell, golden_cell in zip(cells, golden_cells):
            if FLOAT_TEXT.match(golden_cell):
                assert _close(float(cell), float(golden_cell)), (cell, golden_cell)
            else:
                assert cell == golden_cell


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize("argv", [
    ["discrete", "--n", "abc"],
    ["discrete", "--n", "1", "--n3", "5"],
    ["coherent", "--n", "1", "--dz", "0"],
    ["coherent", "--n", "1", "--dz", "0.01"],
    ["quantum-mixed", "--n", "1", "--profile", "/does/not/exist"],
    ["thermal", "--n", "1", "--beta", "-1"],
    ["table", "--n-min", "3/2", "--n-max", "1/2"],
    # below each coherent route's floor: tr(drho^2) underflowed to a distance of 0.0, and
    # rounding swamped the finite-difference oracle, both with exit 0
    ["coherent", "--n", "1", "--dz", "1e-200"],
    ["coherent", "--n", "1", "--dz", "1e-12", "--oracle"],
])
def test_usage_errors_exit_2(argv, capsys):
    try:
        code = cli.main(argv + ["--no-timestamp"])
    except SystemExit as exc:  # argparse rejects before the handler runs
        code = exc.code
    out, _ = capsys.readouterr()
    assert (code, out) == (2, "")


@pytest.mark.parametrize("command", ["discrete", "quantum-pure", "quantum-mixed", "thermal"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_spin_below_one_half_exit_2(command, n, capsys):
    """Every step subcommand rejects n < 1/2 the way discrete always has."""
    code, out, err = run_cli([command, "--n=" + n, "--no-timestamp"], capsys)
    assert (code, out) == (2, "")
    assert err == "fuzzydist: error: need n >= 1/2, got n = %s\n" % n


def test_bad_profile_contents_exit_2(tmp_path, capsys):
    prof = tmp_path / "bad.txt"
    prof.write_text("0.5 0.5\n")
    code, _, err = run_cli(
        ["quantum-mixed", "--n", "1", "--n3", "0", "--profile", str(prof)], capsys)
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_profile_cell_exit_2(cell, tmp_path, capsys):
    """A nan cell used to pass the sum check and print a bare nan, which no JSON parser reads."""
    prof = tmp_path / "bad.txt"
    prof.write_text("%s 0.5 0.5\n0.2 0.3 0.5\n1 0 0\n" % cell)
    code, out, err = run_cli(["quantum-mixed", "--n", "1", "--profile", str(prof)], capsys)
    assert (code, out) == (2, "")
    assert "line 1: non-finite probability" in err


@pytest.mark.parametrize("z", ["nan", "inf", "1+nani", "-infi"])
def test_non_finite_z_exit_2(z, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coherent", "--n", "1", "--z=" + z, "--no-timestamp"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "error: argument --z: not a finite complex number" in err


def test_base_point_beyond_1e150_exit_2(capsys):
    code, out, err = run_cli(["coherent", "--n", "1", "--z", "1e155", "--oracle",
                              "--no-timestamp"], capsys)
    assert code == 2
    assert out == ""
    assert "error: |z| must be <= 1e150" in err
    code, out, _ = run_cli(["coherent", "--n", "1", "--z", "1e150", "--oracle",
                            "--no-timestamp"], capsys)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert all(0.0 < row[k] < 1e-299 for k in ("distance", "closed_form", "fd_oracle"))


def test_profile_path_with_comma_and_quote(tmp_path, capsys):
    """The --profile path is echoed in every row: CSV quotes it, JSON escapes it."""
    prof = tmp_path / 'a,b "c".txt'
    prof.write_text("1 0 0\n1 0 0\n1 0 0\n")
    argv = ["quantum-mixed", "--n", "1", "--profile", str(prof), "--no-timestamp"]
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert len(rows) == 2
    assert all(row[header.index("profile")] == str(prof) for row in rows)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["profile"] == str(prof)
    assert [row["profile"] for row in doc["results"]] == [str(prof)] * 2


def test_huge_lambda_pipeline_matches_the_closed_form(capsys):
    """lam^2 = 1e400 overflowed the sphere's su(2) check, so --lambda 1e160 exited 2."""
    code, out, _ = run_cli(["discrete", "--n", "1", "--lambda", "1e200", "--no-timestamp"],
                           capsys)
    assert code == 0
    for row in json.loads(out)["results"]:
        assert abs(row["norm_pipeline"] - row["distance"]) <= 1e-10 * row["distance"]
        assert 1e199 < row["distance"] < 1e201


@pytest.mark.parametrize("lam", ["1e-200", "1e200"])
@pytest.mark.parametrize("argv, column", [
    (["discrete", "--n", "2"], "optimizer"),
    (["quantum-mixed", "--n", "1"], "oracle"),
    (["quantum-pure", "--n", "1"], "oracle"),
], ids=["discrete", "quantum-mixed", "quantum-pure"])
def test_oracle_columns_at_extreme_lambda(argv, column, lam, capsys):
    """The oracles form their weights and blocks free of lam and apply it once: lam r and the
    blocks' lam powers underflowed to an optimizer 0.0 and a frobenius inf at 1e-200, and
    gave nan or a division by zero at 1e200. json.loads refuses the bare inf and nan the CLI
    would print for a non-finite cell."""
    code, out, _ = run_cli(argv + ["--lambda", lam, "--oracle", "--no-timestamp"], capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    assert rows
    for row in rows:
        assert abs(row[column] - row["distance"]) <= 1e-12 * row["distance"], row


def test_wrong_level_count_exit_2(tmp_path, capsys):
    en = tmp_path / "levels.txt"
    en.write_text("1.0 0.0\n")
    code, _, err = run_cli(
        ["thermal", "--n", "1", "--n3", "0", "--energies", str(en)], capsys)
    assert code == 2
    assert "levels" in err


def test_unwritable_out_exit_2(capsys):
    code, _, err = run_cli(
        ["discrete", "--n", "1", "--n3", "0", "--out", "/nonexistent-dir/x.json"], capsys)
    assert code == 2
    assert "cannot write" in err


def test_bad_threads_env_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("FUZZYDIST_THREADS", "zero")
    code, _, err = run_cli(["discrete", "--n", "1", "--n3", "0"], capsys)
    assert code == 2
    assert "FUZZYDIST_THREADS" in err


@pytest.mark.parametrize("command", ["discrete", "coherent", "quantum-pure", "quantum-mixed",
                                     "thermal", "table"])
@pytest.mark.parametrize("lam", ["-1", "0", "nan", "inf"])
def test_non_positive_or_non_finite_lambda_exit_2(command, lam, capsys):
    argv = ["--n-min", "1", "--n-max", "1"] if command == "table" else ["--n", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main([command] + argv + ["--lambda", lam, "--no-timestamp"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "error: argument --lambda: not a positive finite number" in err


@pytest.mark.parametrize("argv", [
    ["discrete", "--n", "3"],
    ["table", "--n-min", "1/2", "--n-max", "3/2"],
], ids=["discrete", "table"])
def test_oracle_rows_are_exact_and_seed_free(argv, monkeypatch, capsys):
    # every oracle row is an adjacent pair, answered by the exact Kantorovich route:
    # the ascent, the only reader of a seed, is never reached, and --seed is no option
    from fuzzydist import distance

    def boom(*args, **kwargs):
        raise AssertionError("the ascent ran")

    def recorded(*args, **kwargs):
        res = exact(*args, **kwargs)
        methods.append(res.method)
        return res

    exact, methods = distance.connes_distance_optimized, []
    monkeypatch.setattr(distance, "_ascend", boom)
    monkeypatch.setattr(distance, "connes_distance_optimized", recorded)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--oracle", "--seed", "1", "--no-timestamp"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    code, out, _ = run_cli(argv + ["--oracle", "--no-timestamp"], capsys)
    assert code == 0
    assert len(methods) == len(json.loads(out)["results"]) > 0
    assert set(methods) == {"diagonal_exact"}


# ---------------------------------------------------------------------------
# determinism (subprocess level, byte-for-byte)

def _run_subprocess(args):
    return subprocess.run(
        [sys.executable, "-m", "fuzzydist.cli"] + args,
        capture_output=True, text=True, timeout=600)


def test_repeated_runs_byte_identical():
    args = ["discrete", "--n", "2", "--oracle", "--no-timestamp"]
    a = _run_subprocess(args)
    b = _run_subprocess(args)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_continuum_check_passes():
    res = _run_subprocess(["continuum-check", "--no-timestamp", "--format", "csv"])
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "check,passed,max_deviation,note"
    assert len(lines) == 7  # six geometry checks
    assert all(",true," in line for line in lines[1:])
