"""The root README stays true: its quick start runs as written, and every
``module.name`` its tables point to exists in ``maskprune``."""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

from maskprune.cli import main
from maskprune.config import ARCH_TABLE
from maskprune.layers import Block

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
CODE_REF = re.compile(r"`([a-z_]+)\.([A-Za-z_][\w.]*)`")


def _block(lang: str) -> str:
    """The body of the README's first fenced block in ``lang``."""
    return re.search(rf"```{lang}\n(.*?)```", README, re.S).group(1)


def _resolve(module: str, path: str):
    obj = importlib.import_module(f"maskprune.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def _table_rows():
    return [[cell.strip() for cell in line.strip("|").split(" | ")]
            for line in README.splitlines() if line.startswith("| ")]


def test_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    # the config goes where the train command reads it, as the README says
    monkeypatch.chdir(tmp_path)
    train, report = (shlex.split(c) for c in _block("sh").strip().splitlines())
    assert train[:3] == ["maskprune", "train", "--config"]
    assert report[:2] == ["maskprune", "report"]
    config = Path(train[3])
    config.parent.mkdir(parents=True)
    config.write_text(_block("json"))
    assert main(train[1:]) == 0
    capsys.readouterr()
    assert main(report[1:]) == 0
    assert capsys.readouterr().out.startswith(_block("text"))


def test_every_code_reference_in_the_tables_resolves():
    refs = [m.groups() for row in _table_rows() for cell in row
            for m in CODE_REF.finditer(cell)]
    assert len(refs) >= 20
    for module, path in refs:
        _resolve(module, path)


def test_granularity_table_names_each_gated_block_and_every_model():
    # both ways: each model listed supports its row's granularity, and each
    # model of the run grid is listed under every granularity it supports
    gated = {(g, spec.model.__name__) for spec in ARCH_TABLE.values()
             for g in spec.model.GRANULARITIES}
    rows = {row[0]: row for row in _table_rows() if row[0] in {g for g, _ in gated}}
    listed = set()
    for granularity, (_, _, block, models) in rows.items():
        assert issubclass(_resolve(*CODE_REF.fullmatch(block).groups()), Block)
        for ref in CODE_REF.finditer(models):
            assert granularity in _resolve(*ref.groups()).GRANULARITIES
            listed.add((granularity, ref.group(2)))
    assert listed == gated
