"""Smoke tests: every example script must import and expose main(), and
the fast ones must run clean (keeps the examples from bit-rotting)."""

import importlib.util
import os

import pytest

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")

ALL_EXAMPLES = sorted(f for f in os.listdir(EXAMPLES) if f.endswith(".py"))


def load(name):
    path = os.path.join(EXAMPLES, name)
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_example_inventory():
    # The brief requires >= 3 runnable examples; we ship more.
    assert len(ALL_EXAMPLES) >= 5
    assert "quickstart.py" in ALL_EXAMPLES


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_examples_import_and_have_main(name):
    mod = load(name)
    assert callable(getattr(mod, "main", None)), f"{name} lacks main()"
    assert mod.__doc__ and "Run:" in mod.__doc__


def test_run_spectral_partitioning(capsys):
    load("spectral_partitioning.py").main()
    out = capsys.readouterr().out
    assert "partition recovers" in out
    assert "100%" in out


def test_run_svd_compression(capsys):
    load("svd_compression.py").main()
    out = capsys.readouterr().out
    assert "rank" in out and "relative error" in out
