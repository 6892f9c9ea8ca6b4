"""Unit tests for the NVMe host-interface layer."""

import pytest

from repro.hostif import (
    LBA_4K,
    LBA_512,
    Command,
    Completion,
    LbaFormat,
    Namespace,
    Opcode,
    Status,
    StatusError,
    ZoneAction,
)


class TestLbaFormat:
    def test_supported_formats(self):
        assert LBA_512.block_size == 512
        assert LBA_4K.block_size == 4096
        assert str(LBA_512) == "512B" and str(LBA_4K) == "4KiB"

    def test_unsupported_format_rejected(self):
        with pytest.raises(ValueError):
            LbaFormat(1024)


class TestNamespace:
    def test_capacity_conversions(self):
        ns = Namespace(1 << 20, LBA_4K)
        assert ns.capacity_lbas == 256
        assert ns.lbas(8192) == 2
        assert ns.bytes_of(2) == 8192
        assert ns.lba_of_byte(4095) == 0
        assert ns.lba_of_byte(4096) == 1

    def test_misaligned_rejected(self):
        ns = Namespace(1 << 20, LBA_4K)
        with pytest.raises(ValueError):
            ns.lbas(1000)
        with pytest.raises(ValueError):
            ns.lbas(0)
        with pytest.raises(ValueError):
            ns.bytes_of(-1)
        with pytest.raises(ValueError):
            ns.lba_of_byte(1 << 20)

    def test_capacity_must_match_block_size(self):
        with pytest.raises(ValueError):
            Namespace(4097, LBA_4K)
        with pytest.raises(ValueError):
            Namespace(0, LBA_4K)


class TestCommandValidation:
    def test_io_commands_need_positive_nlb(self):
        with pytest.raises(ValueError):
            Command(Opcode.READ, slba=0, nlb=0)
        with pytest.raises(ValueError):
            Command(Opcode.WRITE, slba=-1, nlb=1)

    def test_io_commands_reject_zone_action(self):
        with pytest.raises(ValueError):
            Command(Opcode.WRITE, slba=0, nlb=1, action=ZoneAction.RESET)

    def test_zone_mgmt_needs_action_and_no_nlb(self):
        with pytest.raises(ValueError):
            Command(Opcode.ZONE_MGMT, slba=0)
        with pytest.raises(ValueError):
            Command(Opcode.ZONE_MGMT, slba=0, nlb=1, action=ZoneAction.OPEN)
        Command(Opcode.ZONE_MGMT, slba=0, action=ZoneAction.OPEN)  # ok

    def test_trim_is_an_io_command(self):
        cmd = Command(Opcode.TRIM, slba=0, nlb=8)
        assert cmd.nlb == 8


class TestCompletion:
    def test_latency_requires_submission_stamp(self):
        cmd = Command(Opcode.READ, slba=0, nlb=1)
        cpl = Completion(command=cmd, status=Status.SUCCESS, completed_at=100)
        with pytest.raises(ValueError):
            _ = cpl.latency_ns
        cmd.submitted_at = 40
        assert cpl.latency_ns == 60

    def test_ok_mirrors_status(self):
        cmd = Command(Opcode.READ, slba=0, nlb=1, submitted_at=0)
        assert Completion(cmd, Status.SUCCESS, 1).ok
        assert not Completion(cmd, Status.ZONE_IS_FULL, 1).ok


class TestStatus:
    def test_only_success_is_ok(self):
        assert Status.SUCCESS.ok
        assert not any(s.ok for s in Status if s is not Status.SUCCESS)

    def test_status_error_carries_status(self):
        err = StatusError(Status.ZONE_IS_FULL, "zone 3")
        assert err.status is Status.ZONE_IS_FULL
        assert "zone 3" in str(err)
