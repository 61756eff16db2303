"""Deterministic fault injection for the distributed runtime.

One seeded, JSON-serializable :class:`FaultPlan` drives faults in both
the live runtime (worker kills/stalls, dropped or truncated frames,
corrupted checkpoint dumps, host-load spikes) and the cluster
simulator, so every failure mode the paper's monitor must survive
(§4.1, §5) can be reproduced bit-for-bit from a seed.
"""

from .inject import (
    NULL_INJECTOR,
    ChannelFaultInjector,
    FiredMarkers,
    NullInjector,
    WorkerFaults,
    corrupt_dump,
)
from .plan import KINDS, MESSAGE_KINDS, SCENARIOS, Fault, FaultPlan
from .runner import ChaosOutcome, check_recovery_ledger, run_scenario

__all__ = [
    "Fault",
    "FaultPlan",
    "KINDS",
    "MESSAGE_KINDS",
    "SCENARIOS",
    "ChaosOutcome",
    "check_recovery_ledger",
    "run_scenario",
    "NULL_INJECTOR",
    "NullInjector",
    "ChannelFaultInjector",
    "FiredMarkers",
    "WorkerFaults",
    "corrupt_dump",
]
