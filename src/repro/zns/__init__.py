"""The simulated ZNS SSD: zones, state machine, profiles, device model."""

from .device import ZnsDevice
from .ftl import ZoneStriping
from .profiles import DeviceProfile, sn640, zn540, zn540_small
from .spec import ACTIVE_STATES, OPEN_STATES, WRITABLE_STATES, ZoneState
from .statemachine import ZoneManager
from .zone import Zone

__all__ = [
    "ACTIVE_STATES",
    "DeviceProfile",
    "OPEN_STATES",
    "WRITABLE_STATES",
    "Zone",
    "ZoneManager",
    "ZoneState",
    "ZoneStriping",
    "ZnsDevice",
    "sn640",
    "zn540",
    "zn540_small",
]
