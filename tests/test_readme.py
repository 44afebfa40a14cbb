"""The README's library example runs against the current API, its list of
run artifacts is what the quick-start run writes, and its line count of the
package is current."""
import json
import os
import pathlib
import re

from softrig.cli import EXIT_OK, main

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


def quick_start() -> tuple[list[str], dict, list[str]]:
    """The quick-start command, its scenario and the artifacts it lists."""
    section = README.read_text().split("## Quick start", 1)[1]
    command = re.search(r"```\n(softrig run .*?)\n```", section).group(1)
    scenario = json.loads(
        re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    listed = section.split("Each run writes to `--out`:", 1)[1]
    listed = listed.split("\n\n", 2)[1]
    names = re.findall(r"^- `([^`]+)`", listed, re.MULTILINE)
    return command.split()[1:], scenario, names


def test_artifact_list_names_what_the_example_writes(tmp_path, capsys):
    # the documented "run scenario.json --out DIR --keyframes 50", with the
    # scenario file and DIR moved under tmp_path
    args, scenario, names = quick_start()
    assert args[0] == "run" and "--keyframes" in args
    scenario_path = tmp_path / args[1]
    scenario_path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    args[1] = str(scenario_path)
    args[args.index("--out") + 1] = str(out)
    assert main(args) == EXIT_OK
    assert sorted(os.listdir(out)) == sorted(names)


def test_line_count_is_current():
    # "N lines under `src/softrig`", counted as ``wc -l`` counts them
    quoted = re.search(r"([\d,]+)\s+lines\s+under\s+`src/softrig`",
                       README.read_text())
    counted = sum(path.read_bytes().count(b"\n")
                  for path in (ROOT / "src" / "softrig").glob("*.py"))
    assert int(quoted.group(1).replace(",", "")) == counted
