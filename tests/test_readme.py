"""The README's library example runs and prints what its comments say, its
command-line synopsis names each command's options, and its command-line
examples parse."""

import argparse
import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

from loopkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The fenced python block under "## Library use"."""
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_values():
    source = library_example()
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            checked.append((repr(value), comments[stmt.end_lineno]))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert len(checked) == 4
    for value, comment in checked:
        assert value == comment
    x, y, s0, pre = namespace["w"]
    assert namespace["loopkit"].bk.standard_inner(namespace["params"], "LL", x, y, pre) == s0


def command_examples():
    """The ``loopkit`` lines of the fenced blocks after "Examples:" under
    "## Command line"."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = section.split("Examples:", 1)[1]
    blocks = examples.split("```")[1::2]
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("loopkit ")]


def test_command_examples_parse():
    lines = command_examples()
    assert len(lines) == 10
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])


def synopsis_options():
    """{command: the ``--options`` its synopsis names} for each ``loopkit
    <command>`` line of the first fenced block under "## Command line",
    with the indented lines that continue it."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    text = {}
    command = None
    for line in block.splitlines():
        if line.startswith("loopkit "):
            command = line.split()[1]
            text[command] = line
        elif line.startswith(" ") and command:
            text[command] += line
    return {command: set(re.findall(r"--[a-z][a-z-]*", line))
            for command, line in text.items() if not command.startswith("-")}


def test_synopsis_names_every_option_of_each_command():
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    parsed = {
        command: {opt for a in parser._actions for opt in a.option_strings
                  if opt.startswith("--") and opt != "--help"}
        for command, parser in action.choices.items()
    }
    assert synopsis_options() == parsed
