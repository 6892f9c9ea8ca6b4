"""Conventional (block-interface) SSD: page-mapped FTL + greedy GC."""

from .device import ConvDevice
from .ftl import FtlFullError, PageMappedFtl
from .gc import GcPolicy

__all__ = ["ConvDevice", "FtlFullError", "GcPolicy", "PageMappedFtl"]
