import doctest
import re
from pathlib import Path

from pciclone.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs_as_shown():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_options_table_names_each_commands_options():
    # --out, --format and --help are common to every command and covered
    # by the prose above the table.
    text = README.read_text()
    table = text[text.index("| command | options |"):].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M))
    subs = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert sorted(rows) == sorted(subs)
    common = {"--out", "--format", "--help"}
    for name, sub in subs.items():
        flags = {o for a in sub._actions for o in a.option_strings if o.startswith("--")}
        assert set(re.findall(r"--[\w-]+", rows[name])) == flags - common, name
