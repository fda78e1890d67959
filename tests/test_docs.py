"""The README stays true to the code: its Python examples run and its
command lines parse."""

import pathlib
import re
import shlex

from invring import cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_python_blocks_run():
    namespace: dict = {}
    exec("from invring import *", namespace)
    for block in re.findall(r"```python\n(.*?)```", README, re.S):
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_command_lines_parse():
    section = README.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("invring ")]
    assert len(lines) == 9
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
