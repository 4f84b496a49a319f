import pytest

import locsim.stats_core as stats_core


@pytest.fixture
def chunked_both_ways(monkeypatch):
    """``chunked_both_ways(run)`` returns ``run()`` with every Monte-Carlo
    chunk one row long, then ``run()`` with all draws in one chunk."""

    def both(run):
        monkeypatch.setattr(stats_core, "_CHUNK_FLOATS", 1)
        monkeypatch.setattr(stats_core, "_CHUNK_MIN_ROWS", 1)
        one_row = run()
        monkeypatch.setattr(stats_core, "_CHUNK_FLOATS", 10**12)
        return one_row, run()

    return both
