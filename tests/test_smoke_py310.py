"""tests/smoke_py310.py's checks under the current interpreter.

The script is meant for interpreters without pytest, e.g. Python 3.10;
running its checks here keeps it from rotting between such runs.
"""

import smoke_py310


def test_every_smoke_check_passes():
    results = list(smoke_py310.checks())
    assert results
    assert [name for name, ok in results if not ok] == []
