"""The README's documented examples run as written."""

import re
import shlex
import shutil
from pathlib import Path

from satguide.cli import main
from satguide.guidance import STRATEGY_GRAMMAR

ROOT = Path(__file__).parent.parent


def test_library_use_example_runs(tmp_path, monkeypatch):
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    shutil.copy(ROOT / "tests" / "fixtures" / "corpus" / "prob00.p", tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["record"].outcome == "proof_found"
    ((_, cef),) = namespace["guided"].entries
    assert cef.model is namespace["model"]


def test_walkthrough_prints_what_its_comments_say(tmp_path, monkeypatch,
                                                  capsys):
    section = (ROOT / "README.md").read_text().split(
        "## Command-line walkthrough", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    # the grid and the loop over the whole corpus claim no output
    block = block.split("# strategy grid", 1)[0]
    corpus = ROOT / "tests" / "fixtures" / "corpus"
    for path in [*corpus.glob("*.p"), corpus / "manifest.txt"]:
        shutil.copy(path, tmp_path)
    monkeypatch.chdir(tmp_path)
    printed, claims = [], 0
    for line in block.splitlines():
        if line.startswith("satguide "):
            assert main(shlex.split(line)[1:]) == 0, line
            printed += capsys.readouterr().out.splitlines()
        elif line.startswith("# -> "):
            # a claim holds for a line printed since the previous claim
            assert line[len("# -> "):] in printed, line
            printed, claims = [], claims + 1
    assert claims == 2


def test_strategy_grammar_block_matches_the_parser_constant():
    section = (ROOT / "README.md").read_text().split("### Strategies", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    # the grammar productions are the constant's indented lines
    grammar = [line[2:] for line in STRATEGY_GRAMMAR.splitlines()
               if line.startswith("  ")]
    assert grammar and block.splitlines() == grammar
