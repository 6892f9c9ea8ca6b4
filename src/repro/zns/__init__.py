"""The simulated ZNS SSD: zones, state machine, profiles, device model."""

from .calibrate import PAPER_ANCHORS, Anchor, AnchorResult, measure_anchors
from .device import ZnsDevice
from .ftl import ZoneStriping
from .inference import InterferenceReport, infer_zone_groups
from .profiles import DeviceProfile, sn640, zn540, zn540_small
from .spec import ACTIVE_STATES, OPEN_STATES, WRITABLE_STATES, ZoneState
from .statemachine import ZoneManager
from .zbd import ZoneInfo, ZonedBlockDevice
from .zone import Zone

__all__ = [
    "ACTIVE_STATES",
    "Anchor",
    "AnchorResult",
    "PAPER_ANCHORS",
    "ZoneInfo",
    "ZonedBlockDevice",
    "measure_anchors",
    "InterferenceReport",
    "infer_zone_groups",
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
