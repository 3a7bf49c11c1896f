import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# A comment line.
def join(x):
    """Function docstring."""

    return os.path.join(
        x,
        "y")
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path, capsys):
    # `import`, `def` and the three lines of the split call.
    (tmp_path / "fixture.py").write_text(FIXTURE)
    assert load_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "5 fixture.py\n5 total\n"
