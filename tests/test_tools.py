import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring
over two lines."""

# a comment line
total = (1 +
         2)


def f():
    """A function docstring."""
    return total  # a trailing comment leaves the line code
'''


def test_code_lines_counts_statement_lines_only():
    # total = (1 +, 2), def f():, return total
    assert load("code_lines").code_lines(SOURCE) == 4


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    assert load("code_lines").main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["4", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["5", "total"],
    ]
