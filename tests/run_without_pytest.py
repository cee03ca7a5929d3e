"""Run the test suite without pytest, e.g. on Python 3.10:

    python3.10 tests/run_without_pytest.py [tests/test_cli.py ...]

runs every tests/test_*.py, or the modules named, against a stand-in for
the parts of pytest they use, and exits 1 if any test fails; a module
that fails to import counts as a failure."""

import importlib
import io
import os
import re
import sys
import tempfile
import time
import traceback
from contextlib import ExitStack, contextmanager, redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path
from types import FunctionType, SimpleNamespace
from unittest import mock

TESTS = Path(__file__).resolve().parent


@contextmanager
def _raises(expected, *, match=None):
    info = SimpleNamespace()
    try:
        yield info
    except expected as exc:
        if match is not None and not re.search(match, str(exc)):
            raise AssertionError(f"{str(exc)!r} does not match {match!r}") from exc
        info.value = exc
    else:
        raise AssertionError(f"DID NOT RAISE {expected}")


def _parametrize(argnames, argvalues, ids=None):
    names = [name.strip() for name in argnames.split(",")]
    rows = [value if len(names) > 1 else (value,) for value in argvalues]

    def mark(test):
        # stacked: the decorator nearest the function comes first, as in pytest's ids
        vars(test).setdefault("parametrize", []).append((names, rows, ids))
        return test
    return mark


PYTEST = SimpleNamespace(raises=_raises, fixture=lambda function: function,
                         mark=SimpleNamespace(parametrize=_parametrize))


class _MonkeyPatch(ExitStack):
    def setattr(self, target, name, value=mock.DEFAULT):
        # setattr("package.module.name", value) names its target by a dotted path
        self.enter_context(mock.patch(target, name) if value is mock.DEFAULT
                           else mock.patch.object(target, name, value))

    def setenv(self, name, value):
        self.enter_context(mock.patch.dict(os.environ, {name: value}))

    undo = ExitStack.close


def _value_id(name, value, index, ids):
    """pytest's id of one argument value, as far as the suite's values go."""
    got = ids(value) if callable(ids) else None
    if got is None:
        got = value if isinstance(value, (str, int, float, type(None))) \
            else getattr(value, "__name__", f"{name}{index}")
    return str(got).encode("unicode_escape").decode()


def collect(module):
    """(id, test function, arguments) of each test case in module, in pytest's order."""
    tests = []
    for name, test in vars(module).items():
        if not (name.startswith("test") and isinstance(test, FunctionType)):
            continue
        marks = vars(test).get("parametrize", [])
        axes = [[(ids[i] if isinstance(ids, list)
                  else "-".join(_value_id(n, v, i, ids) for n, v in zip(names, row)),
                  dict(zip(names, row))) for i, row in enumerate(rows)]
                for names, rows, ids in marks]
        for case in product(*axes):
            label = "-".join(case_id for case_id, _ in case)
            tests.append((f"{module.__name__}.py::{name}" + (f"[{label}]" if marks else ""),
                          test, {k: v for _, args in case for k, v in args.items()}))
    return tests


def _run(module, test, args):
    """None if test passes with its arguments and fixtures, else the
    traceback and all it printed."""
    out, err, patch = io.StringIO(), io.StringIO(), _MonkeyPatch()

    def readouterr():
        text = SimpleNamespace(out=out.getvalue(), err=err.getvalue())
        for stream in (out, err):
            stream.truncate(stream.seek(0))
        return text

    fixtures = {"capsys": SimpleNamespace(readouterr=readouterr), "monkeypatch": patch}

    def resolve(name):
        if name not in fixtures:
            fixtures[name] = Path(stack.enter_context(tempfile.TemporaryDirectory())) \
                if name == "tmp_path" else call(getattr(module, name))
        return fixtures[name]

    def call(function):
        code = function.__code__
        return function(**{name: args[name] if name in args else resolve(name)
                           for name in code.co_varnames[:code.co_argcount]})

    with ExitStack() as stack, patch, redirect_stdout(out), redirect_stderr(err):
        try:
            call(test)
        except (Exception, SystemExit):
            return traceback.format_exc() + out.getvalue() + err.getvalue()
    return None


def main(paths) -> int:
    sys.modules["pytest"] = PYTEST
    sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]
    start, passed, failures = time.perf_counter(), 0, []
    for path in map(Path, paths or sorted(TESTS.glob("test_*.py"))):
        print(path.name, end=" ", flush=True)
        try:
            module = importlib.import_module(path.stem)
            tests = collect(module)
        except Exception:
            failures.append(f"{path.name}\n{traceback.format_exc()}")
            tests = []
        for test_id, test, args in tests:
            failure = _run(module, test, args)
            passed += failure is None
            if failure is not None:
                failures.append(f"{test_id}\n{failure}")
            print("." if failure is None else "F", end="", flush=True)
        print()
    for failure in failures:
        print(f"\n___ {failure}")
    print(f"{passed} passed, {len(failures)} failed in {time.perf_counter() - start:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
