"""tools/linecov.py: the `sys.monitoring` engine over a tiny module, and the
guard that stops the tool on an interpreter without `sys.monitoring`."""

import importlib.util
import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

TINY = '''\
def called(x):
    y = x + 1
    return y


def uncalled():
    z = 2
    return z


def raises():
    raise ValueError("raised")
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


linecov = load("linecov", ROOT / "tools" / "linecov.py")


@pytest.fixture
def tiny(tmp_path):
    """The tiny module, imported before any engine run, so that its `def`
    lines ran at import and a run can only see them through `PY_START`;
    every test that takes it must leave the tool id free."""
    if not hasattr(sys, "monitoring"):
        pytest.skip("sys.monitoring is new in Python 3.12")
    if sys.monitoring.get_tool(sys.monitoring.COVERAGE_ID) is not None:
        pytest.skip("COVERAGE_ID is held: these tests are running under tools/linecov.py")
    path = tmp_path / "tiny.py"
    path.write_text(TINY, encoding="utf-8")
    yield load("tiny", path)
    assert sys.monitoring.get_tool(sys.monitoring.COVERAGE_ID) is None


def hit(tiny, run):
    return linecov.lines_hit(run, root=os.path.dirname(tiny.__file__))


def test_a_called_functions_def_line_runs_and_an_uncalled_body_does_not(tiny):
    result, lines = hit(tiny, lambda: tiny.called(1))
    assert result == 2
    # line 1 is `def called(x):`; the body of `uncalled`, lines 7 and 8, never ran
    assert lines == {tiny.__file__: {1, 2, 3}}
    assert {7, 8} <= linecov.executable_lines(TINY, tiny.__file__)


def test_a_second_run_in_one_process_hits_the_same_lines(tiny):
    # a location that returned DISABLE stays disabled for the next tool id
    # unless the engine restarts events
    first, second = (hit(tiny, lambda: tiny.called(1))[1] for _ in range(2))
    assert first == second == {tiny.__file__: {1, 2, 3}}


def test_a_run_that_raises_frees_the_tool_id(tiny):
    with pytest.raises(ValueError, match="raised"):
        hit(tiny, tiny.raises)
    assert sys.monitoring.get_tool(sys.monitoring.COVERAGE_ID) is None
    # and the id is free to take again
    assert hit(tiny, lambda: tiny.called(1))[1] == {tiny.__file__: {1, 2, 3}}


def test_without_sys_monitoring_main_names_python_3_12_and_returns_2(monkeypatch, capsys):
    monkeypatch.delattr(sys, "monitoring", raising=False)
    monkeypatch.setattr(linecov, "trace_run", lambda: pytest.fail("the tests ran"))
    cwd = os.getcwd()
    assert linecov.main(["--max", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "Python 3.12" in err
    assert os.getcwd() == cwd
