"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "Wilkinson" in out and "Clement" in out
    assert out.count("\n") >= 15


@pytest.mark.parametrize("solver", ["dc", "mrrr", "qr", "bi", "lapack-dc"])
def test_solve_all_solvers(solver, capsys):
    assert main(["solve", "--type", "6", "--n", "60",
                 "--solver", solver]) == 0
    out = capsys.readouterr().out
    assert "orth" in out and "resid" in out
    # Accuracy lines report small numbers (no blow-ups).
    for line in out.splitlines():
        if line.startswith(("orth", "resid")):
            assert float(line.split(":")[1]) < 1e-8


def test_solve_simulated_backend(capsys):
    assert main(["solve", "--type", "4", "--n", "80",
                 "--backend", "simulated", "--workers", "8"]) == 0


def test_trace(capsys):
    assert main(["trace", "--type", "4", "--n", "200", "--cores", "4",
                 "--config", "full-taskflow", "--width", "60"]) == 0
    out = capsys.readouterr().out
    assert "w00 |" in out
    assert "makespan" in out


@pytest.mark.parametrize("cores", [0, 17])
def test_trace_cores_outside_the_simulated_machine(cores, capsys):
    assert main(["trace", "--n", "200", "--cores", str(cores)]) == 1
    err = capsys.readouterr().err
    assert f"InputError: n_workers={cores} is outside [1, 16]" in err


def test_trace_fig3_configs(capsys):
    for cfg in ("parallel-gemm", "parallel-merge"):
        assert main(["trace", "--type", "4", "--n", "150",
                     "--config", cfg]) == 0


def test_bad_arguments():
    with pytest.raises(SystemExit):
        main(["solve", "--type", "99"])
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_processes_backend_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["solve", "--backend", "processes"])
    assert ei.value.code == 2
    assert "invalid choice: 'processes'" in capsys.readouterr().err


def test_solve_with_subset(capsys):
    assert main(["solve", "--type", "6", "--n", "80",
                 "--subset", "0:5"]) == 0
    out = capsys.readouterr().out
    assert "orth" in out


def test_solve_mrrr_subset(capsys):
    assert main(["solve", "--type", "6", "--n", "80", "--solver", "mrrr",
                 "--subset", "10:12"]) == 0


def test_svd_command(capsys):
    assert main(["svd", "--m", "40", "--n", "25"]) == 0
    out = capsys.readouterr().out
    assert "sigma" in out
    for line in out.splitlines():
        if line.startswith("resid"):
            assert float(line.split(":")[1]) < 1e-9


def test_workspace_command(capsys):
    assert main(["workspace", "--n", "2000"]) == 0
    out = capsys.readouterr().out
    assert "D&C workspace" in out and "MRRR" in out
