"""The README's library example runs against the current API."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert "'converged': True" in printed
    assert "np.float64" not in printed
