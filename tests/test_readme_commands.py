"""Every fenced ``python -m repro.cli ...`` command in README.md parses with
the real CLI parser, and every scenario it names is registered — so the
README cannot keep advertising a verb, flag or name that is gone."""

import shlex
from pathlib import Path

from repro.cli import build_parser
from repro.engine import UnknownScenarioError, get_scenario

README = Path(__file__).resolve().parents[1] / "README.md"
COMMAND = "python -m repro.cli "


def readme_commands():
    """The argv of each CLI command in README.md's fenced blocks:
    ``\\`` continuations joined, ``#`` comments dropped."""
    commands, fenced, line = [], False, ""
    for raw in README.read_text(encoding="utf-8").splitlines():
        if raw.lstrip().startswith("```"):
            fenced, line = not fenced, ""
            continue
        if not fenced:
            continue
        line += raw.strip()
        if line.endswith("\\"):
            line = line[:-1] + " "
            continue
        if COMMAND in line:
            argv = shlex.split(line[line.index(COMMAND):], comments=True)
            commands.append(argv[3:])
        line = ""
    return commands


def test_readme_commands_parse_and_name_registered_scenarios(capsys):
    commands = readme_commands()
    assert len(commands) >= 20
    assert any(len(argv) > 6 for argv in commands if argv[0] == "run")
    problems = []
    for argv in commands:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            problems.append(f"{' '.join(argv)}: {capsys.readouterr().err}")
            continue
        for name in getattr(args, "names", None) or ():
            try:
                get_scenario(name)
            except UnknownScenarioError as exc:
                problems.append(f"{' '.join(argv)}: {exc}")
    assert problems == []
