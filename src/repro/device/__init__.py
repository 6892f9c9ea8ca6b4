"""Shared device core: the controller pipeline both SSD models extend.

:class:`DeviceCore` (``core``) owns the pipeline both SSD models share —
controller front-end, completion path, counters, per-request costs,
write buffer and flush tail. The concrete models live in
:mod:`repro.zns.device` and :mod:`repro.conv.device`.
"""

from .core import PRIO_IO, PRIO_MGMT, DeviceCore, DeviceCounters, IoShape

__all__ = [
    "DeviceCore",
    "DeviceCounters",
    "IoShape",
    "PRIO_IO",
    "PRIO_MGMT",
]
