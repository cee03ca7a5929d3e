"""tests/run_without_pytest.py passes as many tests as pytest collects from
test_cli.py and test_incidence.py, which use every part of its stand-in,
and its raises fails where pytest's does."""

import importlib
import subprocess
import sys
from importlib.machinery import PathFinder
from pathlib import Path

from run_without_pytest import PYTEST, collect

TESTS = Path(__file__).resolve().parent
MODULES = [str(TESTS / "test_cli.py"), str(TESTS / "test_incidence.py")]


def test_the_runner_passes_every_test_that_pytest_collects():
    runner = subprocess.Popen([sys.executable, str(TESTS / "run_without_pytest.py"), *MODULES],
                              stdout=subprocess.PIPE, text=True)
    if PathFinder.find_spec("pytest"):
        collected = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                                    *MODULES], capture_output=True, text=True, check=True).stdout
        expected = int(collected.splitlines()[-1].split()[0])
    else:   # run by the runner itself, where pytest is not installed
        expected = sum(len(collect(importlib.import_module(Path(m).stem))) for m in MODULES)
    out = runner.communicate()[0]
    assert runner.returncode == 0, out
    assert out.splitlines()[-1].startswith(f"{expected} passed, 0 failed in ")


def test_the_stand_in_raises_fails_on_another_message_and_on_no_exception():
    for error in (ValueError("a"), None):
        try:
            with PYTEST.raises(ValueError, match="^b$"):
                if error:
                    raise error
        except AssertionError:
            continue
        raise AssertionError(f"raises(match=) passed on {error!r}")
