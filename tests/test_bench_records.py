"""Every committed benchmark record states what it compares and how.

Each ``BENCH_*.json`` at the repository root holds the fields below.
``env.HAVE_NUMBA`` is always false now that the kernels have one
pure-Python path (no numba); it is kept because perfbench writes it.
"""

import json
from pathlib import Path

import pytest

RECORDS = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))
FIELDS = ("label", "parent", "change", "claim", "method")


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_states_its_fields_and_numba_mode(path):
    record = json.loads(path.read_text())
    missing = [f for f in FIELDS if f not in record]
    assert not missing, f"{path.name} lacks {missing}"
    assert isinstance(record.get("env", {}).get("HAVE_NUMBA"), bool), f"{path.name} lacks env.HAVE_NUMBA"
