"""Application substrates over the simulated ZNS device.

An LSM-tree serving workload (flush + compaction + point reads), the
ZNS consumer the paper's §II-C/§V survey, reproduced at its
performance-relevant core. It runs inside a tenant context for
multi-tenant interference experiments. The log-structured KV store
lives in ``examples/zns_log_store.py`` as a runnable walkthrough.
"""

from .lsm import LsmConfig, LsmWorkload

__all__ = ["LsmConfig", "LsmWorkload"]
