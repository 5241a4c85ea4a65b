"""The README documents only config keys and CLI flags that exist, and its
Python quick start runs."""

import json
import re
from pathlib import Path

from privpredict.cli import build_parser
from privpredict.harness import ExperimentConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _fenced(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_readme_config_example_and_cli_synopsis_parse():
    [example] = _fenced("json")
    ExperimentConfig.from_dict(json.loads(example))

    listed = re.search(r"The keys are (.*?);", README, flags=re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(ExperimentConfig.__dataclass_fields__)

    synopsis = [line for block in _fenced("bash") for line in block.splitlines()
                if line.startswith("predict ")]
    assert {line.split()[1] for line in synopsis} == {"run", "plan", "audit"}
    for line in synopsis:
        # every optional part is given, the first of each {a|b} choice is taken,
        # and an upper-case placeholder stands for the value 1
        line = re.sub(r"\{(\w+)\|[^}]*\}", r"\1", line.replace("[", "").replace("]", ""))
        argv = ["1" if re.fullmatch(r"[A-Z]+", tok) else tok for tok in line.split()[1:]]
        build_parser().parse_args(argv)


def test_readme_python_quick_start_runs():
    [quick_start] = _fenced("python")
    exec(compile(quick_start, "README.md", "exec"), {})
