from __future__ import annotations

import json
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def kg_fixture_dir() -> Path:
    return FIXTURES / "kg"


def make_probe_dataset(root: Path, dialect: str, template_id: str, count: int) -> None:
    """Write a synthetic single-variable dataset into a fixture tree."""
    target = root / dialect
    target.mkdir(parents=True, exist_ok=True)
    (target / f"{template_id}.json").write_text(
        json.dumps(
            {
                "variables": ["x"],
                "synthetic": {
                    "count": count,
                    "binding": {
                        "x": {"type": "uri", "value": f"http://probe.test/{template_id}/{{n}}"}
                    },
                },
            }
        ),
        encoding="utf-8",
    )


def write_config(directory: Path, text: str) -> Path:
    """Write a kgdiv YAML config into `directory`."""
    path = directory / "kgdiv.yaml"
    path.write_text(text, encoding="utf-8")
    return path


# --- acceptance criterion reporting -------------------------------------

_acceptance_results: list[tuple[int, str, str]] = []


def record_criterion(number: int, name: str) -> None:
    """Called by an acceptance test after its assertions all held."""
    _acceptance_results.append((number, name, "PASS"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    failed_acceptance = [
        rep.nodeid
        for rep in terminalreporter.stats.get("failed", [])
        if "test_acceptance" in str(getattr(rep, "nodeid", ""))
    ]
    if not _acceptance_results and not failed_acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, name, status in sorted(_acceptance_results):
        terminalreporter.write_line(f"criterion {number:2d} {name}: {status}")
    for nodeid in failed_acceptance:
        terminalreporter.write_line(f"criterion FAIL: {nodeid}")
