"""Conventional (block-interface) SSD: page-mapped FTL + greedy GC."""

from .device import ConvDevice
from .ftl import Block, FtlFullError, PageMappedFtl
from .gc import GcPolicy

__all__ = ["Block", "ConvDevice", "FtlFullError", "GcPolicy", "PageMappedFtl"]
