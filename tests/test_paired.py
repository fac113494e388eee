"""The statistics of scripts/paired.py on fixed numbers (no benchmark is run)."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def paired(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("paired")


PARENT = [10, 12, 11, 13, 10, 11, 12, 10, 11, 14]
CHANGE = [9, 11, 10, 12, 9, 10, 11, 9, 10, 15]  # better by 1 in nine pairs, worse in the last


def test_lower_is_better(paired):
    stats = paired.compare(PARENT, CHANGE, "lower")
    assert stats["pairs"] == 10 and stats["won"] == 9
    assert stats["median_diff"] == -1
    # inclusive quartiles of 10,10,10,11,11,11,12,12,13,14: 10.25 and 12
    assert stats["parent"] == {"median": 11, "iqr": 1.75}
    # of 9,9,9,10,10,10,11,11,12,15: 9.25 and 11
    assert stats["change"] == {"median": 10, "iqr": 1.75}
    assert not stats["clear"]  # a median gain of 1 lies inside the parent's spread of 1.75


def test_higher_is_better_counts_the_other_way(paired):
    stats = paired.compare(PARENT, CHANGE, "higher")
    assert stats["won"] == 1 and stats["median_diff"] == -1 and not stats["clear"]


def test_clear_gain_and_ties(paired):
    parent = [10, 10, 10, 10, 11, 10, 10, 10, 10, 10]
    change = [7, 7, 7, 7, 7, 7, 7, 7, 7, 10]  # the last pair ties, which is no win
    stats = paired.compare(parent, change, "lower")
    assert stats["won"] == 9 and stats["median_diff"] == -3
    assert stats["parent"] == {"median": 10, "iqr": 0}
    assert stats["clear"]


def test_eight_wins_of_ten_are_not_clear(paired):
    parent = [10] * 10
    change = [5] * 8 + [11, 11]
    stats = paired.compare(parent, change, "lower")
    assert stats["won"] == 8 and stats["median_diff"] == -5 and not stats["clear"]


@pytest.mark.parametrize("parent, change", [([1, 2], [1]), ([1], [1])])
def test_unpaired_lists_are_refused(paired, parent, change):
    with pytest.raises(ValueError):
        paired.compare(parent, change, "lower")
