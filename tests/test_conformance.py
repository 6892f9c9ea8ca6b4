"""NVMe ZNS spec-conformance gate (tentpole suite, DESIGN.md §14).

Runs the :mod:`tests.conformance` table against both device
models. Every (command × zone-state) arc — including READ_ONLY/OFFLINE
— plus boundary and resource-limit cases is parametrized individually
so a regression names the exact violated arc. The conventional device
runs the same suite with zone arcs explicitly *skipped* (reported, not
dropped) and the namespace-addressing cases enforced.
"""

import pytest

from repro.conv import ConvDevice
from repro.sim import Simulator
from repro.zns import ZnsDevice

from .conformance import ConformanceDriver
from .test_conv_device import conv_profile
from .util import quiet_profile


def zns_factory():
    sim = Simulator()
    # Tight limits so the max-open/max-active cases stay cheap while
    # still needing the implicit-close eviction path.
    profile = quiet_profile(max_open_zones=3, max_active_zones=4)
    return sim, ZnsDevice(sim, profile)


def conv_factory():
    sim = Simulator()
    return sim, ConvDevice(sim, conv_profile())


_DRIVER = ConformanceDriver(zns_factory)
_CASE_NAMES = _DRIVER.case_names()


def test_suite_covers_every_command_state_arc():
    """The table must span all 7 states for each command family."""
    for op in ("open", "close", "finish", "reset", "write", "append", "read"):
        arcs = [n for n in _CASE_NAMES if n.startswith(f"{op}.from_")]
        assert len(arcs) == 7, f"{op}: incomplete state coverage: {arcs}"
    assert any("read_only" in n for n in _CASE_NAMES)
    assert any("offline" in n for n in _CASE_NAMES)
    assert any(n.startswith("limits.") for n in _CASE_NAMES)


@pytest.mark.parametrize("name", _CASE_NAMES)
def test_zns_conformance(name):
    result = ConformanceDriver(zns_factory).run_case(name)
    assert result.outcome == "pass", result.detail


def test_zns_full_report_is_clean():
    report = ConformanceDriver(zns_factory).run_all()
    assert not report.failures, report.summary()
    assert not report.skipped, report.summary()


def test_conv_runs_namespace_cases_and_skips_zone_arcs():
    report = ConformanceDriver(conv_factory).run_all()
    assert not report.failures, report.summary()
    by_name = {r.name: r for r in report.results}
    # Namespace-addressing cases apply to any device and must pass.
    for name in (
        "read.across_namespace_end[any-namespace]",
        "read.start_beyond_namespace_end[any-namespace]",
        "write.across_namespace_end[any-namespace]",
        "write.start_beyond_namespace_end[any-namespace]",
    ):
        assert by_name[name].outcome == "pass", by_name[name].detail
    # Every zone arc is an *explicit* skip: reported with a reason, so
    # a future zoned-conv hybrid cannot silently lose coverage.
    zone_cases = [r for r in report.results if r.requires_zones]
    assert zone_cases
    assert all(r.outcome == "skip" for r in zone_cases)
    assert all("zone" in r.detail for r in zone_cases)
