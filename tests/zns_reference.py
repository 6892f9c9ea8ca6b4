"""Reference zone-management work: one wake per firmware chunk.

This is the loop :meth:`repro.zns.device.ZnsDevice._mgmt_work` ran
before it learned to sleep through chunk boundaries nothing else can
reach (DESIGN.md §11). ``tests/test_mgmt_fastforward.py`` drives the
same commands through both devices and asserts the same completions,
debt, zone states, trace spans and telemetry segments.

The loop is kept as it was, with one addition: ``wakes``, when set to a
list, receives the simulated time of every chunk boundary the work
wakes at (the last one included). Recording reads the clock only.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.device.core import PRIO_MGMT
from repro.zns.device import ZnsDevice


class ReferenceZnsDevice(ZnsDevice):
    """A :class:`ZnsDevice` whose management work wakes at every chunk."""

    wakes: Optional[list] = None

    def _mgmt_work(self, work_ns: int, chunk_ns: int, name: str = "mgmt",
                   cid: int = 0) -> Generator:
        queued_at = self.sim.now
        req = self.firmware.request(PRIO_MGMT)
        yield req
        granted_at = self.sim.now
        try:
            done_work = 0
            debt_paid = 0
            debt_mark = self._fw_debt_ns
            while done_work < work_ns:
                step = min(chunk_ns, work_ns - done_work)
                new_debt = self._fw_debt_ns - debt_mark
                debt_mark = self._fw_debt_ns
                yield step + new_debt
                if self.wakes is not None:
                    self.wakes.append(self.sim.now)
                done_work += step
                debt_paid += new_debt
        finally:
            self.firmware.release(req)
            if self.tracer.enabled:
                if granted_at > queued_at:
                    self.tracer.span("queue", "firmware.wait", queued_at,
                                     granted_at, track="firmware", cid=cid)
                self.tracer.span("firmware", f"{name}.work", granted_at,
                                 self.sim.now, track="firmware", cid=cid,
                                 io_debt_ns=debt_paid)
