"""The README's documented examples run as written."""

import re
import shutil
from pathlib import Path

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


def test_strategy_grammar_block_matches_the_parser_constant():
    section = (ROOT / "README.md").read_text().split("### Strategies", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    # the grammar productions are the constant's indented lines
    grammar = [line[2:] for line in STRATEGY_GRAMMAR.splitlines()
               if line.startswith("  ")]
    assert grammar and block.splitlines() == grammar
