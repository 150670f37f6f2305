"""``perf/loc.py``: the line count that ROADMAP's code-line target is checked by."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOC = ROOT / "perf" / "loc.py"

MODULE = '''"""A module docstring
over two lines."""

# a comment line
import math  # a trailing comment keeps a code line


class Box:
    """One line."""

    def area(self):
        """Two
        lines."""
        text = """not a docstring"""
        return math.pi * text.count("t")
'''


def test_counts_lines_code_and_comments_of_a_synthetic_module(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("loc", LOC)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    # 15 lines: 4 blank, 5 in docstrings, 1 comment line, 5 code lines
    assert loc.count(MODULE) == (15, 5, 1)
    package = tmp_path / "src" / "raysym"
    package.mkdir(parents=True)
    (package / "box.py").write_text(MODULE, encoding="utf-8")
    monkeypatch.setattr(loc, "ROOT", tmp_path)
    loc.main()
    assert capsys.readouterr().out == "box.py\t15\t5\t1\ntotal\t15\t5\t1\n"
