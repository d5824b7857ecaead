"""The README against the code: its Library section run as written, its CLI
table against the commands the CLI declares, its file-format examples read
back."""

import ast
import json
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs_and_prints_what_its_comments_say():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):  # no comment, or prose
            continue
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked == 4


def test_cli_table_lists_each_command_with_its_flags():
    from offrado.cli import COMMANDS

    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `offrado (\S+)([^`]*)` \|", section, re.M)
    table = {name: sorted(re.findall(r"--[a-z][a-z-]*", usage)) for name, usage in rows}
    assert len(table) == len(rows), "a command listed twice"
    declared = {
        name: sorted(flag for flags, _ in arguments for flag in flags if flag.startswith("--"))
        for name, (_, _, arguments) in COMMANDS.items()
    }
    assert table == declared


def format_example(name):
    """The JSON block that follows the README's **name** heading."""
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1]
    after = section.split(f"**{name}**", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", after, re.S).group(1))


def test_coloring_example_is_valid_and_round_trips():
    from offrado import ProblemSpec, verify_coloring
    from offrado.intervals import coloring_as_json, coloring_from_json

    doc = format_example("Coloring")
    assert verify_coloring(coloring_from_json(doc), ProblemSpec(2, 3)).is_valid
    assert coloring_as_json(coloring_from_json(doc)) == doc


def test_certificate_example_verifies_and_is_what_certify_upper_writes():
    from offrado import ProblemSpec, certify_upper, verify_certificate

    doc = format_example("Certificate")
    assert verify_certificate(doc).ok
    assert doc == certify_upper(ProblemSpec(2, 3), grid_denominator=1)[0]
