"""The README's examples run as written."""

from __future__ import annotations

import shlex
import shutil
from pathlib import Path

from kgdiv.cli import main
from kgdiv.config import load_run_config

ROOT = Path(__file__).parent.parent


def code_blocks(text: str) -> list[tuple[str, str]]:
    """The (info string, body) of each fenced code block in Markdown text."""
    blocks, info, body = [], None, []
    for line in text.splitlines(keepends=True):
        if not line.startswith("```"):
            body.append(line)
        elif info is None:
            info, body = line[3:].strip(), []
        else:
            blocks.append((info, "".join(body)))
            info = None
    return blocks


def test_python_blocks_run_after_the_demo_fetch(tmp_path, monkeypatch, capsys):
    """Both Python blocks run in a copy of the working directory, once the
    CLI demo's fetch step has written the snapshot the second one reads."""
    blocks = code_blocks((ROOT / "README.md").read_text(encoding="utf-8"))
    (fetch,) = [
        line
        for info, body in blocks
        if info == ""
        for line in body.splitlines()
        if line.startswith("kgdiv fetch ")
    ]
    python = [body for info, body in blocks if info == "python"]
    assert len(python) == 2

    shutil.copytree(ROOT / "tests" / "fixtures", tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(fetch)[1:]) == 0
    assert (tmp_path / "out" / "snap" / "politicians.csv").exists()
    for body in python:
        exec(compile(body, "README.md", "exec"), {})
    # the diversity example prints Δ and the variety
    assert capsys.readouterr().out.splitlines()[-1].split()[-1] == "2"


def test_yaml_block_sets_every_accepted_key(tmp_path):
    """The README's config example loads, with the two files it names,
    and sets every key a config file can set."""
    (yaml_block,) = [
        body
        for info, body in code_blocks((ROOT / "README.md").read_text(encoding="utf-8"))
        if info == "yaml"
    ]
    (tmp_path / "rules.csv").write_text("pattern\n", encoding="utf-8")
    (tmp_path / "triples.csv").write_text("subject,predicate,object\n", encoding="utf-8")
    config = tmp_path / "kgdiv.yaml"
    config.write_text(yaml_block, encoding="utf-8")
    settings = load_run_config(config)
    assert set(settings) == {"endpoints", "rules", "triples", "alpha", "beta", "nel_endpoint"}
    assert set(settings["endpoints"]) == {"en-dbpedia"}
