"""tools/src_lines.py counts total lines and code lines: not blank, not a
comment, not a docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line code

# a comment line


class Box:
    """One-line class docstring."""

    size = 2

    def area(self):
        """Function docstring
        over
        three lines."""
        text = """a multi-line string
        that is not a docstring"""
        return math.prod((self.size, self.size)), text
'''


def test_counts_a_sample():
    # code: import, class, size, def, the two string lines, return
    assert src_lines.count(SAMPLE) == (20, 7)


def test_counts_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{tmp_path}: 22 lines, 8 code lines\n"
