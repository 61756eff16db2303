"""The paper's contribution: a local-interaction parallel runtime.

Decomposition geometry (§§2-3), padded subregions and ghost exchange
(§4.2), the compute/communicate cycle (§3) and the theoretical model of
parallel efficiency (§8).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "Block": "decomposition",
    "Decomposition": "decomposition",
    "paper_m_table": "decomposition",
    "EfficiencyModel": "efficiency",
    "OverheadEfficiencyModel": "efficiency",
    "efficiency_eq17": "efficiency",
    "efficiency_eq18": "efficiency",
    "efficiency_eq20": "efficiency",
    "efficiency_eq21": "efficiency",
    "surface_nodes": "efficiency",
    "t_calc": "efficiency",
    "t_com_point_to_point": "efficiency",
    "t_com_shared_bus": "efficiency",
    "utilization": "efficiency",
    "EdgeOp": "exchange",
    "ExchangePlan": "exchange",
    "LocalExchanger": "exchange",
    "build_plan": "exchange",
    "ExplicitMethod": "runner",
    "Simulation": "runner",
    "Stencil": "stencil",
    "full_stencil": "stencil",
    "max_unsync_steps": "stencil",
    "star_stencil": "stencil",
    "ThreadedSimulation": "threaded",
    "SubregionState": "subregion",
    "assemble_global": "subregion",
    "make_subregions": "subregion",
})

__all__ = [
    "Block",
    "Decomposition",
    "paper_m_table",
    "EfficiencyModel",
    "OverheadEfficiencyModel",
    "efficiency_eq17",
    "efficiency_eq18",
    "efficiency_eq20",
    "efficiency_eq21",
    "surface_nodes",
    "t_calc",
    "t_com_point_to_point",
    "t_com_shared_bus",
    "utilization",
    "EdgeOp",
    "ExchangePlan",
    "LocalExchanger",
    "build_plan",
    "ExplicitMethod",
    "Simulation",
    "ThreadedSimulation",
    "Stencil",
    "full_stencil",
    "star_stencil",
    "max_unsync_steps",
    "SubregionState",
    "assemble_global",
    "make_subregions",
]
