"""The README's examples run as written.

Each ``python`` block is executed, every ``curvegluing ...`` line of the
``sh`` blocks runs through ``cli.main`` and must exit 0, and the scan
configuration shown in the ``json`` block loads.  Everything runs in a
temporary directory holding a copy of ``configs/``, so an ``output`` file
a command writes lands there.
"""

import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

from curvegluing.cli import main
from curvegluing.gluing import FamilyTemplate

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$",
                    (ROOT / "README.md").read_text(), re.M | re.S)
COMMAND_LINES = [line for lang, body in BLOCKS if lang == "sh"
                 for line in body.splitlines()
                 if line.startswith("curvegluing ")]
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]
JSON_BLOCKS = [body for lang, body in BLOCKS if lang == "json"]


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_blocks_found():
    assert len(COMMAND_LINES) >= 10
    assert PYTHON_BLOCKS and len(JSON_BLOCKS) == 1


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line(line, in_tmp, capsys):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block(index, in_tmp):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index + 1}",
                 "exec"), {})


def test_scan_configuration_loads():
    cfg = json.loads(JSON_BLOCKS[0])
    tpl = FamilyTemplate.from_config(cfg)
    assert [tpl.start, tpl.stop] == cfg["range"]
