"""Pinned experiment tables and unit manifest (see ``pinned_tables.py``).

The nine experiments the figure and table benchmarks run are compared
inside ``benchmarks/conftest.py::run_and_report``; the rest run here at
smoke scale. The manifest test decomposes every grid and runs no cell.
"""

import pytest

from pinned_tables import FIXTURES, assert_pinned, encode_manifest, manifest, run_pinned


@pytest.mark.parametrize("experiment_id", ["budget", "comm", "fault_storm", "traffic"])
def test_smoke_table_matches_pinned(experiment_id):
    from pinned_tables import PINNED_RUNS

    assert_pinned(run_pinned(experiment_id), **PINNED_RUNS[experiment_id])


def test_unit_manifest_matches_pinned():
    """Unit ids, seeds and config hashes at smoke and default scale, fig7
    shards included: a stored result resumes only while these hold."""
    expected = (FIXTURES / "manifest.json").read_text(encoding="utf-8")
    assert encode_manifest(manifest()) == expected
