"""Tier-1 guard: the committed golden manifests still describe this tree.

``scripts/golden.py`` pins every registered scenario's grid (point order,
tags, cache keys without the source fingerprint) and the result digests
of a DES grid plus the model curves.  A refactor that claims byte-identity
keeps this module green; a PR that moves an entry re-pins it with
``python scripts/golden.py --update`` and says which and why.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["points", "digests"])
def test_manifest_matches_the_committed_file(golden, name):
    current = json.loads(golden.dump(golden.MANIFESTS[name]()))
    assert golden.differences(name, current) == []


def test_a_moved_entry_is_reported_by_name(golden):
    committed = json.loads((golden.GOLDEN / "points.json").read_text())
    committed["figure6"][3][-1] = "0" * 64
    del committed["table2"]
    lines = golden.differences("points", committed)
    assert lines == [
        f"points: figure6[3] {committed['figure6'][3][0]} moved",
        "points: table2 removed",
    ]
