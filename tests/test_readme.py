"""README's examples, run as written."""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from netstab import expr as ex
from netstab.cli import run
from netstab.network import load_network
from netstab.stability import _bounded

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()


def _blocks(after: str, fence: str = "```") -> list[str]:
    """The code blocks opened by ``fence`` lines, in order, from the first
    one after the text ``after``."""
    text = README[README.index(after):]
    return re.findall(rf"^{re.escape(fence)}\n(.*?)^```$", text, re.M | re.S)


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    shutil.copytree(REPO / "networks", tmp_path / "networks")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_try_block(in_tmp, capsys):
    # each command exits 0 and prints what the comment lines under it say
    lines = _blocks("Sample inputs live in `networks/`.  Try:")[0].splitlines()
    commands = [k for k, line in enumerate(lines) if line.startswith("netstab ")]
    assert len(commands) == 3
    for k, end in zip(commands, commands[1:] + [len(lines)]):
        assert run(shlex.split(lines[k])[1:]) == 0, lines[k]
        want = [line.removeprefix("# ") for line in lines[k + 1:end]]
        assert capsys.readouterr().out.splitlines()[:len(want)] == want, lines[k]
    assert load_network((in_tmp / "restricted.net").read_text()).nodes == ("x2", "x4", "x6")


def test_python_blocks(in_tmp, capsys):
    entry, spelling = _blocks("## Library entry points", "```python")
    scope: dict = {}
    exec(entry, scope)
    assert scope["report"].verdict == "stable"
    assert capsys.readouterr().out == scope["report"].to_json() + "\n"
    # the spelling snippet on a report that names shared subexpressions
    assert run(["analyze", "networks/six_node.net", "-o", "report.json"]) == 0
    scope = {}
    exec(spelling, scope)
    assert scope["report"]["shared"]
    net = load_network((in_tmp / "networks" / "six_node.net").read_text())
    matrix, partials = _bounded(net)
    labels = matrix.index
    want = {(labels[j], labels[i]): ex.to_text(partial)
            for j, i, partial in zip(matrix.rows.tolist(), matrix.cols.tolist(), partials)}
    assert scope["provenance"] == want
