"""Simulated cluster of non-dedicated workstations (substitution layer).

A discrete-event model of the paper's experimental platform — 25
HP9000/700 workstations on shared-bus 10 Mbps Ethernet — calibrated with
the paper's own measured constants, used to regenerate the parallel
efficiency and speedup figures (5-11).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "COLLISION_FACTOR": "calibration",
    "ETHERNET_BANDWIDTH": "calibration",
    "MESSAGE_OVERHEAD": "calibration",
    "MESSAGES_PER_STEP": "calibration",
    "RELATIVE_SPEED": "calibration",
    "U_REF_NODES_PER_S": "calibration",
    "VALUES_PER_NODE": "calibration",
    "bytes_per_boundary_node": "calibration",
    "node_speed": "calibration",
    "paper_ucalc_vcom_ratio": "calibration",
    "BusStats": "ethernet",
    "SharedBus": "ethernet",
    "EventQueue": "events",
    "expected_busy_events": "loadgen",
    "poisson_user_traces": "loadgen",
    "LoadTrace": "machines",
    "SimHost": "machines",
    "paper_sim_cluster": "machines",
    "NETWORK_PRESETS": "networks",
    "SwitchedNetwork": "networks",
    "make_network": "networks",
    "SavePlan": "saving",
    "simultaneous_save": "saving",
    "staggered_save": "saving",
    "ClusterSimulation": "simulator",
    "MigrationEvent": "simulator",
    "NetworkParams": "simulator",
    "SimFaultEvent": "simulator",
    "SimResult": "simulator",
    "phase_fractions": "simulator",
})

__all__ = [
    "ClusterSimulation",
    "NetworkParams",
    "SimResult",
    "MigrationEvent",
    "SimFaultEvent",
    "SharedBus",
    "BusStats",
    "SwitchedNetwork",
    "make_network",
    "NETWORK_PRESETS",
    "SavePlan",
    "simultaneous_save",
    "staggered_save",
    "poisson_user_traces",
    "expected_busy_events",
    "EventQueue",
    "SimHost",
    "LoadTrace",
    "paper_sim_cluster",
    "U_REF_NODES_PER_S",
    "RELATIVE_SPEED",
    "VALUES_PER_NODE",
    "MESSAGES_PER_STEP",
    "ETHERNET_BANDWIDTH",
    "MESSAGE_OVERHEAD",
    "COLLISION_FACTOR",
    "node_speed",
    "bytes_per_boundary_node",
    "paper_ucalc_vcom_ratio",
    "phase_fractions",
]
