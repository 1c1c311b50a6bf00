"""Tests for the command-line verification harness."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from strata.cli import (
    RunConfig,
    main,
    parse_config_text,
    run_algebra,
    run_fourier,
    run_series,
    spectrum_table,
)
from strata.spectral import epsilon_sweep


def test_config_round_trip():
    cfg = RunConfig()
    assert parse_config_text(cfg.to_text()) == cfg
    tweaked = dataclasses.replace(cfg, seed=123, r_lattice=1.75,
                                  suites="algebra,sv")
    assert parse_config_text(tweaked.to_text()) == tweaked


def test_config_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_config_text("unknown_key = 3\n")
    with pytest.raises(ValueError):
        parse_config_text("just some words\n")
    with pytest.raises(ValueError):
        parse_config_text("seed = notanumber\n")
    # comments and blank lines are fine
    cfg = parse_config_text("# comment\n\nseed = 9  # trailing\n")
    assert cfg.seed == 9


def test_config_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nsamples = 1000\n")
    code = main(["verify", "algebra", "--config", str(path), "--seed", "5"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "report_v1"
    assert report["config"]["seed"] == 5        # flag wins
    assert report["config"]["samples"] == 1000  # file survives


def test_verify_algebra_all_checks_pass(capsys):
    assert main(["verify", "algebra"]) == 0
    report = json.loads(capsys.readouterr().out)
    checks = report["suites"]["algebra"]["checks"]
    assert len(checks) == 5
    assert all(c["pass"] for c in checks)
    assert report["pass"] is True


# tracemalloc peaks at the default configuration, after a first call has
# paid the first-use imports: measured at 8.5 MiB (series) and 9.5 MiB
# (fourier), bounds 30 % above.  Runs of 2^17 lattice points, blocks of
# 2^18 samples and a one-shot coefficient grid peaked at 23.9 and 32.1 MiB.
_SUITE_PEAK_MIB = {"series": (run_series, 11.0), "fourier": (run_fourier, 12.5)}


@pytest.mark.parametrize("name", sorted(_SUITE_PEAK_MIB))
def test_suite_memory_stays_bounded(name):
    """The two suites that set ``strata all``'s peak RSS pass their checks
    within a fixed traced-memory bound at the default configuration."""
    run, bound = _SUITE_PEAK_MIB[name]
    run(RunConfig())
    tracemalloc.start()
    try:
        checks = run(RunConfig())
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert all(c["pass"] for c in checks)
    assert peak < bound


def test_algebra_suite_runs_quickly():
    import time
    start = time.time()
    checks = run_algebra(RunConfig())
    assert time.time() - start < 1.0
    assert all(c["pass"] for c in checks)


def test_sv_verify_emits_json_lines(capsys):
    code = main(["sv-verify", "--samples", "50000", "--M", "2",
                 "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 3
    for c in lines:
        assert {"claim", "predicted", "measured", "pass"} <= set(c)
        assert c["pass"] is True
    assert "stderr" in lines[0]
    # M = 2: predicted mean is 4 integral f
    assert lines[0]["predicted"] == pytest.approx(
        4.0 * np.pi * (1.0 - np.exp(-2.5 ** 2)), rel=1e-9)


def test_spectrum_csv_output(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--k", "0", "--n", "1", "--m", "1",
                 "--eps", "1,0.1", "--count", "3", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,n,m,eps,j,lam,refine_delta"
    assert len(lines) == 1 + 2 * 3
    table = epsilon_sweep(0, 1, 1, [1.0, 0.1], count=3,
                          grid=RunConfig().mode_grid().refined())
    for row, (i, j) in zip(lines[1:], [(0, 0), (0, 1), (0, 2),
                                       (1, 0), (1, 1), (1, 2)]):
        fields = row.split(",")
        assert float(fields[5]) == pytest.approx(table[i][j], rel=1e-12)
        assert float(fields[6]) < 0.005


def test_spectrum_json_rows(capsys):
    assert main(["spectrum", "--eps", "0.5", "--count", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "spectrum_v1"
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["lam"] < doc["rows"][1]["lam"]


def test_spectrum_table_matches_direct_solve():
    rows = spectrum_table(RunConfig(), 0, 1, 1, [1.0], 2)
    direct = epsilon_sweep(0, 1, 1, [1.0], count=2,
                           grid=RunConfig().mode_grid().refined())
    assert rows[0]["lam"] == pytest.approx(direct[0][0], rel=1e-12)


def test_unknown_flag_exits_2(capsys):
    assert main(["verify", "sv", "--nope"]) == 2
    capsys.readouterr()


def test_unknown_suite_exits_2(capsys):
    assert main(["verify", "nonsense"]) == 2
    capsys.readouterr()


def test_bad_eps_list_exits_2(capsys):
    assert main(["spectrum", "--eps", "1,banana"]) == 2
    capsys.readouterr()


def _config_error(argv, capsys, tmp_path, key, value, flag=True):
    """Exit code and stderr of ``argv`` with ``key = value``, once set in a
    config file and, for a key with a flag, once as a flag."""
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {value}\n")
    runs = [["--config", str(path)]]
    if flag:
        runs.append(["--" + key.replace("_", "-"), str(value)])
    out = []
    for extra in runs:
        code = main(argv + extra)
        out.append((code, capsys.readouterr().err))
    return out


@pytest.mark.parametrize("samples", [50, 99, -5])
def test_too_few_samples_exits_2(samples, capsys, tmp_path):
    """Fewer samples than the suites' 100 batches is a configuration
    error, not a traceback."""
    for code, err in _config_error(["verify", "sv"], capsys, tmp_path,
                                   "samples", samples):
        assert code == 2
        assert err.count("\n") == 1 and "samples" in err


@pytest.mark.parametrize("M", [0, -2])
def test_nonpositive_M_exits_2(M, capsys, tmp_path):
    for code, err in _config_error(["verify", "sv"], capsys, tmp_path,
                                   "M", M):
        assert code == 2
        assert err.count("\n") == 1 and "M must be" in err


@pytest.mark.parametrize("r_lattice", [-1.0, 0.0, "nan", "inf"])
def test_nonpositive_r_lattice_exits_2(r_lattice, capsys, tmp_path):
    for code, err in _config_error(["all"], capsys, tmp_path, "r_lattice",
                                   r_lattice):
        assert code == 2
        assert err.count("\n") == 1 and "r_lattice" in err


@pytest.mark.parametrize("argv, key, value, flag", [
    (["spectrum"], "grid_n", 8, False),
    (["spectrum"], "grid_ymin", 60, False),
    (["all"], "grid_ymax", "nan", False),
    (["verify", "sv"], "quad_nx", 1, False),
    (["verify", "sv"], "quad_nv", 3, False),
    (["verify", "series"], "r_coset", 0, True),
    (["all"], "suites", "algebra,nope", False),
    (["all"], "suites", "", False),
])
def test_unusable_config_value_exits_2(argv, key, value, flag, capsys,
                                       tmp_path):
    """A grid, quadrature, coset radius or suite list that the run cannot
    use is one stderr line naming its key, before any suite runs."""
    for code, err in _config_error(argv, capsys, tmp_path, key, value,
                                   flag):
        assert code == 2
        assert err.count("\n") == 1 and key in err


def test_default_report_matches_golden(capsys):
    """``strata all`` at its default configuration writes the committed
    report byte for byte.  A deliberate change to the last bits of a value
    regenerates ``tests/data/report_all_default.json``."""
    assert main(["all"]) == 0
    golden = Path(__file__).parent / "data" / "report_all_default.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_missing_config_file_exits_2(capsys):
    assert main(["verify", "algebra", "--config", "/no/such/file"]) == 2
    capsys.readouterr()


def test_failing_check_exits_1(capsys):
    # a nearly-empty support makes the mean estimator miss its precision
    # requirement honestly
    code = main(["verify", "sv", "--r-lattice", "0.05",
                 "--samples", "30000"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.err
    report = json.loads(captured.out)
    assert report["pass"] is False


def test_report_determinism(capsys):
    assert main(["verify", "series", "--samples", "30000"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "series", "--samples", "30000"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_all_with_fewer_samples(capsys):
    code = main(["all", "--samples", "20000"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(report["suites"]) == {"algebra", "operators", "series",
                                     "sv", "fourier"}
    assert report["pass"] is True


def test_csv_report_format(capsys):
    assert main(["verify", "algebra", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "suite,claim,predicted,measured,stderr,pass"
    assert len(lines) == 6
    assert all(line.startswith("algebra,") for line in lines[1:])
