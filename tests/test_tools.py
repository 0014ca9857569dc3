"""The arithmetic of tools/ab_pairs.py's nine-in-ten rule."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def test_summary_counts_pairs_won_in_the_better_direction():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    change = [b - 0.5 for b in base]
    q_base, q_change, won, gap, met = ab_pairs.summary(base, change, "lower")
    assert won == 10 and gap == pytest.approx(0.5) and met
    assert q_base[1] == pytest.approx(1.2) and q_change[1] == pytest.approx(0.7)
    # The same numbers read as a higher-is-better metric: every pair lost.
    _, _, won, gap, met = ab_pairs.summary(base, change, "higher")
    assert won == 0 and gap == pytest.approx(-0.5) and not met


def test_summary_needs_nine_wins_and_a_gap_beyond_the_iqr():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    # Nine of ten pairs won, but the median gap (0.05) is inside the IQR.
    change = [b - 0.05 for b in base[:9]] + [1.5]
    _, _, won, gap, met = ab_pairs.summary(base, change, "lower")
    assert won == 9 and gap < 0.2 and not met
    # A gap beyond the IQR with only eight pairs won.
    change = [b - 0.5 for b in base[:8]] + [2.0, 2.0]
    _, _, won, _, met = ab_pairs.summary(base, change, "lower")
    assert won == 8 and not met
