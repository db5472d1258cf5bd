"""tools/linecov.py reads line numbers against the text the run started
with, and refuses a report when that text changed."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _linecov(tmp_path, monkeypatch, run):
    spec = importlib.util.spec_from_file_location(
        "linecov", os.path.join(ROOT, "tools", "linecov.py"))
    linecov = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecov)
    monkeypatch.setattr(linecov, "PKG", str(tmp_path))
    monkeypatch.setattr(linecov, "run_traced", run)
    monkeypatch.chdir(tmp_path)   # main changes directory; this restores it
    return linecov


def test_a_file_edited_during_the_run_exits_2(tmp_path, monkeypatch, capsys):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1\ny = 2\n")

    def run(args):
        mod.write_text("# a line above shifts the rest\nx = 1\ny = 2\n")
        return 0, {str(mod): {0, 1, 2}}

    assert _linecov(tmp_path, monkeypatch, run).main([]) == 2
    out = capsys.readouterr()
    assert "mod.py" in out.err
    assert "never ran" not in out.out


def test_an_unchanged_file_is_reported_by_its_traced_lines(tmp_path, monkeypatch,
                                                          capsys):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1\ny = 2\n")
    hits = {str(mod): {0, 1}}   # line 0 is the module's entry
    assert _linecov(tmp_path, monkeypatch, lambda args: (0, hits)).main([]) == 1
    out = capsys.readouterr().out
    assert "mod.py: 1 of 2 executable lines never ran" in out
    assert "2 <module>: y = 2" in out


def test_line_0_is_not_an_executable_line(tmp_path, monkeypatch, capsys):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1\ny = 2\n")
    hits = {str(mod): {1, 2}}
    linecov = _linecov(tmp_path, monkeypatch, lambda args: (0, hits))
    assert set(linecov.executable_lines(str(mod), mod.read_text())) == {1, 2}
    assert linecov.main([]) == 0
    assert "mod.py: 0 of 2 executable lines never ran" in capsys.readouterr().out
