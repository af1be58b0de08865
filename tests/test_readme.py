"""The README's code examples run against the library as documented."""

import argparse
import configparser
import functools
import importlib
import json
import pkgutil
import re
from pathlib import Path

import apgm
from apgm import GridConfig
from apgm.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
DEFAULT_INI = README.with_name("configs") / "default.ini"


def _python_block(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    exec(compile(_python_block("Library use"), "README.md", "exec"), {})
    cells, nbytes = map(int, capsys.readouterr().out.split())
    assert cells > 0 and nbytes == 8 * cells


def _documented_keys() -> dict[str, set[str]]:
    """{section: keys} from the README's configuration key table; text in
    parentheses (a key's values or form) is not a key."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| section | keys |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        _, sections, keys, _ = row.split("|")
        names = set(re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", keys)))
        for section in re.findall(r"`\[([^\]]+)\]`", sections):
            documented[section] = names
    return documented


def test_config_table_lists_the_default_file_keys():
    # The loader refuses a key it does not read, and configs/default.ini
    # loads, so the table matches the loader too. A mode's keys are listed
    # once, per type.
    parser = configparser.ConfigParser()
    parser.read(DEFAULT_INI, encoding="utf-8")
    types = "|".join(GridConfig().types)
    spelled = {}
    for section in parser.sections():
        keys = set(parser.options(section))
        if section.startswith("mode."):
            section = "mode.<label>"
            keys = {re.sub(rf"^({types})_", "<type>_", key) for key in keys}
        spelled.setdefault(section, set()).update(keys)
    assert _documented_keys() == spelled


def test_cli_synopsis_lists_the_run_options():
    # The `apgm run` usage runs until the next `apgm` line of the CLI block.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    usage = block.split("apgm run", 1)[1].split("\napgm ", 1)[0]
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {o for a in subparsers.choices["run"]._actions for o in a.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == options - {"-h", "--help"}


def test_fast_path_table_names_live_code():
    # A deleted fast path cannot stay listed: each row's first cell names
    # the function or class that takes it as `module.name`.
    text = README.read_text(encoding="utf-8")
    table = text.split("\n## Fast paths\n", 1)[1].split("\n## ", 1)[0]
    rows = [r for r in table.splitlines() if r.startswith("| `")]
    assert rows
    for row in rows:
        module, *attrs = re.match(r"\| `([\w.]+)`", row).group(1).split(".")
        assert attrs, row
        functools.reduce(getattr, attrs, importlib.import_module(f"apgm.{module}"))


def _fast_path_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(README.with_name("tools")))
    return importlib.import_module("time_fast_paths")


def test_fast_path_tool_matches_the_source_and_the_table(monkeypatch):
    # Each branch the pairs driver removes occurs once in the file it
    # edits, and the table's `--path` column lists exactly the tool's
    # paths, so an edit to a listed branch fails here, not in the tool.
    tool = _fast_path_tool(monkeypatch)
    for path in tool.PATHS:
        text = (README.parent / path.file).read_text(encoding="utf-8")
        assert text.count(path.old) == 1, path.name
    text = README.read_text(encoding="utf-8")
    table = text.split("\n## Fast paths\n", 1)[1].split("\n## ", 1)[0]
    listed = [
        re.fullmatch(r" `([\w-]+)` ", row.split("|")[2]).group(1)
        for row in table.splitlines()
        if row.startswith("| `")
    ]
    assert listed == [path.name for path in tool.PATHS]


def test_fast_path_statistics_reproduce_the_recorded_pairs(monkeypatch):
    # The driver's summary of a metric's runs gives every figure that
    # BENCH_25.json's rows record from the same runs, the rule's verdict
    # included.
    tool = _fast_path_tool(monkeypatch)
    bench = json.loads(README.with_name("BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    rows = json.loads(README.with_name("BENCH_25.json").read_text(encoding="utf-8"))["rows"]
    keys = (
        "parent_median",
        "parent_quartiles",
        "parent_iqr",
        "median_change_pct",
        "without_worse_pairs",
        "resolved",
    )
    checked = 0
    for row in rows.values():
        for entry in row.get("workloads", {}).values():
            for name, want in entry["metrics"].items():
                got = tool.compare(want["parent"], want["without"], better[name])
                for key in keys:
                    if key in want:
                        assert got[key] == want[key], (name, key)
                checked += 1
    assert checked == 49


def test_readme_names_live_code():
    # A deleted function or class cannot stay named: each backticked
    # `x.y...` whose first part is apgm or one of its modules resolves
    # through its first two parts. numpy, dataclasses and test names and
    # file names are not checked.
    modules = {m.name for m in pkgutil.iter_modules(apgm.__path__)}
    checked = 0
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        name = re.match(r"(\w+)\.(\w+)", span)
        if (
            name is None
            or span.startswith(("np.", "dataclasses.", "test_"))
            or re.search(r"\.(py|md|ini|json|toml|csv|pgm|apgm)$", span)
        ):
            continue
        head, attr = name.groups()
        if head == "apgm" or head in modules:
            owner = apgm if head == "apgm" else importlib.import_module(f"apgm.{head}")
            assert hasattr(owner, attr), span
            checked += 1
    assert checked > 20
