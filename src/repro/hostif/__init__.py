"""NVMe host interface: commands, status codes, namespaces."""

from .commands import Command, Completion, Opcode, ZoneAction
from .namespace import LBA_4K, LBA_512, LbaFormat, Namespace
from .status import Status, StatusError

__all__ = [
    "Command",
    "Completion",
    "LBA_4K",
    "LBA_512",
    "LbaFormat",
    "Namespace",
    "Opcode",
    "Status",
    "StatusError",
    "ZoneAction",
]
