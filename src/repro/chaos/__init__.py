"""Deterministic fault injection for the distributed runtime.

One seeded, JSON-serializable :class:`FaultPlan` drives faults in the
live runtime (worker kills/stalls, dropped or truncated frames,
corrupted checkpoint dumps, injected NaNs, host-load spikes), so every
failure mode the paper's monitor must survive (§4.1, §5) can be
reproduced bit-for-bit from a seed.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "NULL_INJECTOR": "inject",
    "ChannelFaultInjector": "inject",
    "FiredMarkers": "inject",
    "NullInjector": "inject",
    "WorkerFaults": "inject",
    "corrupt_dump": "inject",
    "KINDS": "plan",
    "MESSAGE_KINDS": "plan",
    "SCENARIOS": "plan",
    "Fault": "plan",
    "FaultPlan": "plan",
    "ChaosOutcome": "runner",
    "check_recovery_ledger": "runner",
    "run_scenario": "runner",
})

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
