"""Calibration regression gate: the profile must hold the paper anchors."""

import pytest

from .calibrate import PAPER_ANCHORS, Anchor, AnchorResult, measure_anchors


@pytest.fixture(scope="module")
def anchor_results():
    return measure_anchors()


def test_every_anchor_within_tolerance(anchor_results):
    off = [str(r) for r in anchor_results if not r.ok]
    assert not off, "calibration drifted:\n" + "\n".join(off)


def test_anchor_set_covers_the_quick_quantities(anchor_results):
    names = {r.anchor.name for r in anchor_results}
    assert len(names) == len(PAPER_ANCHORS) == 13


def test_results_are_deterministic():
    a = {r.anchor.name: r.measured for r in measure_anchors(seed=7)}
    b = {r.anchor.name: r.measured for r in measure_anchors(seed=7)}
    assert a == b


def test_different_seed_stays_within_tolerance():
    assert all(r.ok for r in measure_anchors(seed=20260706))


def test_anchor_result_formatting():
    anchor = Anchor("demo", 10.0, "us", 0.05, "here")
    ok = AnchorResult(anchor, 10.2)
    off = AnchorResult(anchor, 12.0)
    assert ok.ok and "[ok ]" in str(ok)
    assert not off.ok and "[OFF]" in str(off)
