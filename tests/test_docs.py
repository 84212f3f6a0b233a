"""README's configuration tables name exactly the fields of the classes they
document, so that a retired or added field cannot leave them stale."""

import dataclasses
import re
from pathlib import Path

import pytest

from arrivalsim.backtest import RunConfig
from arrivalsim.fitting import FitOptions

README = Path(__file__).resolve().parent.parent / "README.md"


def table_keys(caption: str) -> set[str]:
    """Keys of the first ``| key | default | meaning |`` table after the line
    containing ``caption``; a row such as ``| `t1`, `t2` | ...`` names both."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if caption in line)
    header = next(i for i in range(start, len(lines)) if lines[i].startswith("| key |"))
    keys = set()
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return keys


@pytest.mark.parametrize("caption, cls", [
    ("`RunConfig` (in `arrivalsim.backtest`)", RunConfig),
    ("The `fit` section (`FitOptions`)", FitOptions),
])
def test_readme_tables_name_every_field(caption, cls):
    assert table_keys(caption) == {f.name for f in dataclasses.fields(cls)}
