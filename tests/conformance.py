"""NVMe ZNS spec-conformance driver (a pynvme ``zns_check`` workalike).

A table-driven suite that walks a device model through every zone
state-machine arc and the boundary/limit rules around it, checking the
exact completion status the spec mandates. It is the standing
correctness gate behind the paper's numbers: the latency observations
only mean something if the emulated device enforces the same contract
as the hardware the paper measured.

Three case families:

* **state matrix** — every management/I/O command issued against a zone
  placed in each of the seven states (EMPTY, IMPLICIT_OPEN,
  EXPLICIT_OPEN, CLOSED, FULL, READ_ONLY, OFFLINE), with the expected
  status *and* post-state asserted;
* **boundary** — reads/writes straddling a zone edge, the writable
  capacity, and the namespace end, pinning the ``ZONE_BOUNDARY_ERROR``
  vs ``LBA_OUT_OF_RANGE`` selection, plus write-pointer rules and
  malformed management addressing;
* **limits** — max-open/max-active admission, including the
  implicit-close eviction path and the resources freed by finish.

The driver builds a **fresh device per case** from the caller's
factory, so cases are independent and order-free. After every case on a
zoned device it calls ``zones.check_invariants()`` — a conformance case
must not merely return the right status, it must leave the open/active
accounting exact. Devices without a zone manager (``ConvDevice``) run
only the namespace-addressing cases; zone cases are reported as
explicit skips, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.hostif.commands import Command, Opcode, ZoneAction
from repro.hostif.status import Status
from repro.sim import SimulationError
from repro.zns.spec import ZoneState

__all__ = ["CaseResult", "ConformanceReport", "ConformanceDriver"]


@dataclass
class CaseResult:
    name: str
    outcome: str  # "pass" | "fail" | "skip"
    detail: str = ""
    requires_zones: bool = False

    @property
    def ok(self) -> bool:
        return self.outcome != "fail"


@dataclass
class ConformanceReport:
    results: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [r for r in self.results if r.outcome == "fail"]

    @property
    def skipped(self) -> list:
        return [r for r in self.results if r.outcome == "skip"]

    def summary(self) -> str:
        passed = sum(1 for r in self.results if r.outcome == "pass")
        lines = [
            f"conformance: {passed} passed, {len(self.failures)} failed, "
            f"{len(self.skipped)} skipped"
        ]
        for result in self.results:
            if result.outcome != "pass":
                lines.append(f"  [{result.outcome}] {result.name}: {result.detail}")
        return "\n".join(lines)


class _CaseFailure(Exception):
    """Internal: aborts a case with a failure detail."""


def _state_matrix():
    """Expected (status, post-state) for command × source-state arcs.

    Spec references (NVMe ZNS Command Set, zone state machine §2.3–2.4):

    * Open/Close/Finish are idempotent in their target state and
      illegal from READ_ONLY/OFFLINE.
    * Finish is legal from every writable-lifecycle state — including
      ZSE→ZSF (pads the whole capacity) and ZSF→ZSF (no-op success).
    * Reset is legal from every writable-lifecycle state (ZSE→ZSE is a
      cheap no-op) and illegal from READ_ONLY/OFFLINE.
    * Writes/appends implicitly open ZSE/ZSC zones, fail with
      ZONE_IS_FULL / ZONE_IS_READ_ONLY / ZONE_IS_OFFLINE elsewhere.
    * Reads succeed in every state except OFFLINE (no valid data).
    """
    Z = ZoneState
    S = Status
    invalid = S.INVALID_ZONE_STATE_TRANSITION
    matrix = {}

    def arc(op, state, status, post):
        matrix[(op, state)] = (status, post)

    for state in (Z.EMPTY, Z.IMPLICIT_OPEN, Z.EXPLICIT_OPEN, Z.CLOSED):
        arc("open", state, S.SUCCESS, Z.EXPLICIT_OPEN)
        arc("finish", state, S.SUCCESS, Z.FULL)
        arc("reset", state, S.SUCCESS, Z.EMPTY)
    arc("close", Z.EMPTY, invalid, Z.EMPTY)
    for state in (Z.IMPLICIT_OPEN, Z.EXPLICIT_OPEN, Z.CLOSED):
        arc("close", state, S.SUCCESS, Z.CLOSED)
    arc("open", Z.FULL, invalid, Z.FULL)
    arc("close", Z.FULL, invalid, Z.FULL)
    arc("finish", Z.FULL, S.SUCCESS, Z.FULL)
    arc("reset", Z.FULL, S.SUCCESS, Z.EMPTY)
    for state in (Z.READ_ONLY, Z.OFFLINE):
        for op in ("open", "close", "finish", "reset"):
            arc(op, state, invalid, state)

    for op in ("write", "append"):
        arc(op, Z.EMPTY, S.SUCCESS, Z.IMPLICIT_OPEN)
        arc(op, Z.IMPLICIT_OPEN, S.SUCCESS, Z.IMPLICIT_OPEN)
        arc(op, Z.EXPLICIT_OPEN, S.SUCCESS, Z.EXPLICIT_OPEN)
        arc(op, Z.CLOSED, S.SUCCESS, Z.IMPLICIT_OPEN)
        arc(op, Z.FULL, S.ZONE_IS_FULL, Z.FULL)
        arc(op, Z.READ_ONLY, S.ZONE_IS_READ_ONLY, Z.READ_ONLY)
        arc(op, Z.OFFLINE, S.ZONE_IS_OFFLINE, Z.OFFLINE)

    for state in (Z.EMPTY, Z.IMPLICIT_OPEN, Z.EXPLICIT_OPEN, Z.CLOSED,
                  Z.FULL, Z.READ_ONLY):
        arc("read", state, S.SUCCESS, state)
    arc("read", Z.OFFLINE, S.ZONE_IS_OFFLINE, Z.OFFLINE)
    return matrix


_MGMT_ACTIONS = {
    "open": ZoneAction.OPEN,
    "close": ZoneAction.CLOSE,
    "finish": ZoneAction.FINISH,
    "reset": ZoneAction.RESET,
}


class ConformanceDriver:
    """Run the conformance table against one device model.

    ``device_factory`` returns a fresh ``(sim, device)`` pair whose
    device is a :class:`~repro.device.core.DeviceCore`. A non-``None``
    ``zones`` (the :class:`~repro.zns.statemachine.ZoneManager`) marks
    it as zoned; without one only namespace-level cases run.
    """

    def __init__(self, device_factory: Callable[[], tuple]):
        self.device_factory = device_factory

    # ---------------------------------------------------------- case table
    def cases(self) -> list:
        """``(name, requires_zones, runner)`` triples, in suite order."""
        table = []
        matrix = _state_matrix()
        for (op, state), expected in sorted(
            matrix.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        ):
            table.append((
                f"{op}.from_{state.value}", True,
                self._run_matrix_case(op, state, expected),
            ))
        for name, runner in self._scenario_cases():
            requires_zones = not name.endswith("[any-namespace]")
            table.append((name, requires_zones, runner))
        return table

    def case_names(self) -> list:
        return [name for name, _, _ in self.cases()]

    def run_case(self, name: str) -> CaseResult:
        for case_name, requires_zones, runner in self.cases():
            if case_name == name:
                return self._execute(case_name, requires_zones, runner)
        raise KeyError(f"unknown conformance case {name!r}")

    def run_all(self) -> ConformanceReport:
        report = ConformanceReport()
        for name, requires_zones, runner in self.cases():
            report.results.append(self._execute(name, requires_zones, runner))
        return report

    # ------------------------------------------------------------ plumbing
    def _execute(self, name, requires_zones, runner) -> CaseResult:
        sim, device = self.device_factory()
        if requires_zones and device.zones is None:
            return CaseResult(
                name, "skip",
                "zone arcs do not apply: device has no zone manager "
                "(conventional namespace)",
                requires_zones=True,
            )
        try:
            runner_detail = runner(sim, device) or ""
        except _CaseFailure as failure:
            return CaseResult(name, "fail", str(failure),
                              requires_zones=requires_zones)
        zones = device.zones
        if zones is not None:
            try:
                zones.check_invariants()
            except SimulationError as drift:
                return CaseResult(
                    name, "fail", f"invariant violated after case: {drift}",
                    requires_zones=requires_zones,
                )
        return CaseResult(name, "pass", runner_detail,
                          requires_zones=requires_zones)

    def _submit(self, sim, device, command: Command):
        completion = sim.run(until=device.submit(command))
        sim.run()  # drain background work (flushes) before the next step
        return completion

    def _expect(self, completion, expected: Status, context: str):
        if completion.status is not expected:
            raise _CaseFailure(
                f"{context}: expected {expected.value}, "
                f"got {completion.status.value}"
            )

    def _expect_state(self, zone, expected, context: str):
        if zone.state is not expected:
            raise _CaseFailure(
                f"{context}: expected zone state {expected.value}, "
                f"got {zone.state.value}"
            )

    def _setup(self, sim, device, zone, state) -> None:
        """Place ``zone`` into a source state via regular commands."""
        Z = ZoneState
        if state is Z.EMPTY:
            return
        if state is Z.EXPLICIT_OPEN:
            self._require_ok(sim, device,
                             Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                                     action=ZoneAction.OPEN))
        self._require_ok(sim, device,
                         Command(Opcode.WRITE, slba=zone.wp, nlb=1))
        if state is Z.CLOSED:
            self._require_ok(sim, device,
                             Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                                     action=ZoneAction.CLOSE))
        elif state is Z.FULL:
            self._require_ok(sim, device,
                             Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                                     action=ZoneAction.FINISH))
        elif state in (Z.READ_ONLY, Z.OFFLINE):
            device.inject_zone_failure(zone.index, state)
        self._expect_state(zone, state, "setup")

    def _require_ok(self, sim, device, command: Command) -> None:
        completion = self._submit(sim, device, command)
        if not completion.status.ok:
            raise _CaseFailure(
                f"setup command {command.opcode.value} failed with "
                f"{completion.status.value}"
            )

    # --------------------------------------------------------- case bodies
    def _run_matrix_case(self, op, state, expected):
        def runner(sim, device):
            expected_status, expected_post = expected
            zone = device.zones.zones[0]
            self._setup(sim, device, zone, state)
            if op in _MGMT_ACTIONS:
                command = Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                                  action=_MGMT_ACTIONS[op])
            elif op == "write":
                command = Command(Opcode.WRITE, slba=zone.wp, nlb=1)
            elif op == "append":
                command = Command(Opcode.APPEND, slba=zone.zslba, nlb=1)
            else:
                command = Command(Opcode.READ, slba=zone.zslba, nlb=1)
            completion = self._submit(sim, device, command)
            self._expect(completion, expected_status, f"{op} from {state.value}")
            self._expect_state(zone, expected_post, f"after {op}")

        return runner

    def _scenario_cases(self):
        Z = ZoneState

        def zoned(name, body):
            return name, body

        def any_namespace(name, body):
            return f"{name}[any-namespace]", body

        # -- write-pointer rules ------------------------------------------
        def write_below_wp(sim, device):
            zone = device.zones.zones[0]
            self._require_ok(sim, device,
                             Command(Opcode.WRITE, slba=zone.zslba, nlb=2))
            cpl = self._submit(sim, device,
                               Command(Opcode.WRITE, slba=zone.wp - 1, nlb=1))
            self._expect(cpl, Status.ZONE_INVALID_WRITE, "write below wp")

        def write_past_wp(sim, device):
            zone = device.zones.zones[0]
            cpl = self._submit(sim, device,
                               Command(Opcode.WRITE, slba=zone.wp + 1, nlb=1))
            self._expect(cpl, Status.ZONE_INVALID_WRITE, "write past wp")
            self._expect_state(zone, Z.EMPTY, "rejected write left state")

        def append_misaligned(sim, device):
            zone = device.zones.zones[0]
            cpl = self._submit(sim, device,
                               Command(Opcode.APPEND, slba=zone.zslba + 1, nlb=1))
            self._expect(cpl, Status.INVALID_FIELD, "append off zone start")

        # -- boundary status selection ------------------------------------
        def read_across_zone_edge(sim, device):
            zone = device.zones.zones[0]
            cpl = self._submit(sim, device,
                               Command(Opcode.READ, slba=zone.end - 1, nlb=2))
            self._expect(cpl, Status.ZONE_BOUNDARY_ERROR, "read across zone edge")

        def write_across_capacity(sim, device):
            zone = device.zones.zones[0]
            cpl = self._submit(
                sim, device,
                Command(Opcode.WRITE, slba=zone.zslba, nlb=zone.cap_lbas + 1),
            )
            self._expect(cpl, Status.ZONE_BOUNDARY_ERROR,
                         "write past writable capacity")
            self._expect_state(zone, Z.EMPTY, "rejected write left state")

        def read_in_zone_gap(sim, device):
            zone = device.zones.zones[0]
            if zone.cap_lbas == zone.size_lbas:
                return "no gap on this profile"
            cpl = self._submit(
                sim, device,
                Command(Opcode.READ, slba=zone.zslba + zone.cap_lbas, nlb=1),
            )
            self._expect(cpl, Status.SUCCESS,
                         "read in the cap..size gap (deallocated)")

        def read_across_zone_and_namespace_end(sim, device):
            zone = device.zones.zones[-1]
            cpl = self._submit(
                sim, device,
                Command(Opcode.READ, slba=zone.zslba, nlb=zone.size_lbas + 1),
            )
            self._expect(cpl, Status.LBA_OUT_OF_RANGE,
                         "namespace end takes precedence over zone edge")

        def _edge_cases(opcode, label):
            def crossing(sim, device):
                capacity = device.namespace.capacity_lbas
                cpl = self._submit(sim, device,
                                   Command(opcode, slba=capacity - 1, nlb=2))
                self._expect(cpl, Status.LBA_OUT_OF_RANGE,
                             f"{label} across namespace end")

            def beyond(sim, device):
                capacity = device.namespace.capacity_lbas
                cpl = self._submit(sim, device,
                                   Command(opcode, slba=capacity, nlb=1))
                self._expect(cpl, Status.LBA_OUT_OF_RANGE,
                             f"{label} starting past namespace end")

            return crossing, beyond

        read_crossing, read_beyond = _edge_cases(Opcode.READ, "read")
        write_crossing, write_beyond = _edge_cases(Opcode.WRITE, "write")

        # -- management addressing ----------------------------------------
        def mgmt_non_zone_start(sim, device):
            cpl = self._submit(
                sim, device,
                Command(Opcode.ZONE_MGMT, slba=1, action=ZoneAction.OPEN),
            )
            self._expect(cpl, Status.INVALID_FIELD, "mgmt off zone start")

        def mgmt_out_of_range(sim, device):
            capacity = device.namespace.capacity_lbas
            cpl = self._submit(
                sim, device,
                Command(Opcode.ZONE_MGMT, slba=capacity,
                        action=ZoneAction.RESET),
            )
            self._expect(cpl, Status.LBA_OUT_OF_RANGE, "mgmt past namespace end")

        # -- untouched-zone close/finish nuances --------------------------
        def close_untouched_explicit_open(sim, device):
            zone = device.zones.zones[0]
            self._require_ok(sim, device,
                             Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                                     action=ZoneAction.OPEN))
            cpl = self._submit(sim, device,
                               Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                                       action=ZoneAction.CLOSE))
            self._expect(cpl, Status.SUCCESS, "close untouched zone")
            self._expect_state(zone, Z.EMPTY,
                               "untouched close returns to empty")

        def finish_untouched_explicit_open(sim, device):
            zone = device.zones.zones[0]
            self._require_ok(sim, device,
                             Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                                     action=ZoneAction.OPEN))
            cpl = self._submit(sim, device,
                               Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                                       action=ZoneAction.FINISH))
            self._expect(cpl, Status.SUCCESS, "finish untouched open zone")
            self._expect_state(zone, Z.FULL, "finish pads untouched zone")
            if zone.finished_pad_lbas != zone.cap_lbas:
                raise _CaseFailure("untouched finish must pad the whole cap")

        # -- open/active resource limits ----------------------------------
        def _fill_implicit(sim, device, count):
            for index in range(count):
                zone = device.zones.zones[index]
                self._require_ok(sim, device,
                                 Command(Opcode.WRITE, slba=zone.wp, nlb=1))

        def implicit_close_on_write(sim, device):
            zones = device.zones
            self._check_zone_budget(zones, zones.max_open + 1)
            _fill_implicit(sim, device, zones.max_open)
            fresh = zones.zones[zones.max_open]
            cpl = self._submit(sim, device,
                               Command(Opcode.WRITE, slba=fresh.wp, nlb=1))
            self._expect(cpl, Status.SUCCESS, "write at max-open limit")
            self._expect_state(zones.zones[0], Z.CLOSED,
                               "lowest implicit zone evicted")
            self._expect_state(fresh, Z.IMPLICIT_OPEN, "new zone opened")
            if zones.open_count != zones.max_open:
                raise _CaseFailure("open count drifted after implicit close")

        def implicit_close_on_explicit_open(sim, device):
            zones = device.zones
            self._check_zone_budget(zones, zones.max_open + 1)
            _fill_implicit(sim, device, zones.max_open)
            fresh = zones.zones[zones.max_open]
            cpl = self._submit(sim, device,
                               Command(Opcode.ZONE_MGMT, slba=fresh.zslba,
                                       action=ZoneAction.OPEN))
            self._expect(cpl, Status.SUCCESS, "explicit open at max-open limit")
            self._expect_state(zones.zones[0], Z.CLOSED,
                               "lowest implicit zone evicted")
            self._expect_state(fresh, Z.EXPLICIT_OPEN, "target opened")

        def all_explicit_open_rejected(sim, device):
            zones = device.zones
            self._check_zone_budget(zones, zones.max_open + 1)
            for index in range(zones.max_open):
                zone = zones.zones[index]
                self._require_ok(sim, device,
                                 Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                                         action=ZoneAction.OPEN))
            fresh = zones.zones[zones.max_open]
            cpl = self._submit(sim, device,
                               Command(Opcode.ZONE_MGMT, slba=fresh.zslba,
                                       action=ZoneAction.OPEN))
            self._expect(cpl, Status.TOO_MANY_OPEN_ZONES,
                         "no implicit victim to evict")

        def _exhaust_active(sim, device):
            zones = device.zones
            for index in range(zones.max_active):
                zone = zones.zones[index]
                self._require_ok(sim, device,
                                 Command(Opcode.WRITE, slba=zone.wp, nlb=1))
                self._require_ok(sim, device,
                                 Command(Opcode.ZONE_MGMT, slba=zone.zslba,
                                         action=ZoneAction.CLOSE))

        def max_active_exhausted(sim, device):
            zones = device.zones
            self._check_zone_budget(zones, zones.max_active + 1)
            _exhaust_active(sim, device)
            fresh = zones.zones[zones.max_active]
            cpl = self._submit(sim, device,
                               Command(Opcode.WRITE, slba=fresh.wp, nlb=1))
            self._expect(cpl, Status.TOO_MANY_ACTIVE_ZONES,
                         "closed zones hold every active slot")
            self._expect_state(fresh, Z.EMPTY, "rejected write left state")

        def finish_frees_active_slot(sim, device):
            zones = device.zones
            self._check_zone_budget(zones, zones.max_active + 1)
            _exhaust_active(sim, device)
            self._require_ok(sim, device,
                             Command(Opcode.ZONE_MGMT,
                                     slba=zones.zones[0].zslba,
                                     action=ZoneAction.FINISH))
            fresh = zones.zones[zones.max_active]
            cpl = self._submit(sim, device,
                               Command(Opcode.WRITE, slba=fresh.wp, nlb=1))
            self._expect(cpl, Status.SUCCESS, "finish freed an active slot")

        return [
            zoned("write.below_wp", write_below_wp),
            zoned("write.past_wp", write_past_wp),
            zoned("append.misaligned_slba", append_misaligned),
            zoned("read.across_zone_edge", read_across_zone_edge),
            zoned("write.across_writable_capacity", write_across_capacity),
            zoned("read.in_zone_gap", read_in_zone_gap),
            zoned("read.across_zone_and_namespace_end",
                  read_across_zone_and_namespace_end),
            any_namespace("read.across_namespace_end", read_crossing),
            any_namespace("read.start_beyond_namespace_end", read_beyond),
            any_namespace("write.across_namespace_end", write_crossing),
            any_namespace("write.start_beyond_namespace_end", write_beyond),
            zoned("mgmt.non_zone_start", mgmt_non_zone_start),
            zoned("mgmt.out_of_range_slba", mgmt_out_of_range),
            zoned("close.untouched_explicit_open",
                  close_untouched_explicit_open),
            zoned("finish.untouched_explicit_open",
                  finish_untouched_explicit_open),
            zoned("limits.implicit_close_on_write", implicit_close_on_write),
            zoned("limits.implicit_close_on_explicit_open",
                  implicit_close_on_explicit_open),
            zoned("limits.all_explicit_open_rejected",
                  all_explicit_open_rejected),
            zoned("limits.max_active_exhausted", max_active_exhausted),
            zoned("limits.finish_frees_active_slot", finish_frees_active_slot),
        ]

    def _check_zone_budget(self, zones, needed: int) -> None:
        if zones.num_zones < needed:
            raise _CaseFailure(
                f"profile too small for limit case: needs {needed} zones, "
                f"device has {zones.num_zones}"
            )
