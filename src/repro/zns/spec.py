"""ZNS zone states and the legal state-transition table (paper Fig. 1).

The zone state machine governs which I/O and management operations a zone
accepts. Transitions are either *explicit* (host-issued ``open``,
``close``, ``finish``, ``reset``) or *implicit* (a write/append to an
EMPTY or CLOSED zone opens it; a write reaching the zone capacity fills
it). Observation #9 of the paper compares the costs of these paths.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["ZoneState", "WRITABLE_STATES", "OPEN_STATES", "ACTIVE_STATES"]


class ZoneState(Enum):
    EMPTY = "empty"
    IMPLICIT_OPEN = "implicit_open"
    EXPLICIT_OPEN = "explicit_open"
    CLOSED = "closed"
    FULL = "full"
    READ_ONLY = "read_only"
    OFFLINE = "offline"

    # Members are singletons compared by identity, so the identity hash
    # agrees with equality; Enum's own hashes the name in Python code,
    # and the zone census keys dicts and sets by state.
    __hash__ = object.__hash__


#: States a zone may be in (or transition through) to accept writes.
WRITABLE_STATES = frozenset(
    {ZoneState.EMPTY, ZoneState.IMPLICIT_OPEN, ZoneState.EXPLICIT_OPEN, ZoneState.CLOSED}
)

#: States counted against the device's max-open-zones limit.
OPEN_STATES = frozenset({ZoneState.IMPLICIT_OPEN, ZoneState.EXPLICIT_OPEN})

#: States counted against the device's max-active-zones limit.
ACTIVE_STATES = frozenset(
    {ZoneState.IMPLICIT_OPEN, ZoneState.EXPLICIT_OPEN, ZoneState.CLOSED}
)
