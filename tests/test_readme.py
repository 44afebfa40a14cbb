"""The README's library example runs against the current API, and its
line count of the package is current."""
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert "'converged': True" in printed
    assert "np.float64" not in printed


def test_line_count_is_current():
    # "N lines under `src/softrig`", counted as ``wc -l`` counts them
    quoted = re.search(r"([\d,]+)\s+lines\s+under\s+`src/softrig`",
                       README.read_text())
    counted = sum(path.read_bytes().count(b"\n")
                  for path in (ROOT / "src" / "softrig").glob("*.py"))
    assert int(quoted.group(1).replace(",", "")) == counted
