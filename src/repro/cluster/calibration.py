"""Calibration constants taken from the paper itself (§6-§7).

Absolute 1994 wall-clock numbers are reproduced from the paper's own
measurements, so the simulator's efficiency curves are directly
comparable to figs. 5-11:

* the 715/50 workstation integrates **39132 fluid nodes per second**
  running lattice Boltzmann in 2D (relative speed 1.0 in the §7 table);
* the relative-speed table for the three machine models and the four
  (method x dimensionality) combinations;
* the per-node communication payloads of §6 — both methods move 3
  doubles per boundary node in 2D, FD moves 4 and LB 5 in 3D;
* FD sends two messages per step per neighbour, LB one;
* the shared-bus Ethernet is 10 Mbps peak; the per-message overhead is
  fitted so the efficiency rolloff of small subregions lands where
  fig. 5 measures it (the paper notes its eq. 20 model *omits* this
  overhead and therefore over-predicts below N = 100^2).
"""

from __future__ import annotations

__all__ = [
    "U_REF_NODES_PER_S",
    "RELATIVE_SPEED",
    "VALUES_PER_NODE",
    "MESSAGES_PER_STEP",
    "ETHERNET_BANDWIDTH",
    "MESSAGE_OVERHEAD",
    "BYTES_PER_VALUE",
    "node_speed",
    "bytes_per_boundary_node",
    "paper_ucalc_vcom_ratio",
    "host_node_speed",
]

#: §7: "The relative speed of 1.0 corresponds to 39132 fluid nodes
#: integrated per second" (LB, 2D, HP 715/50).
U_REF_NODES_PER_S = 39132.0

#: §7 table of workstation speeds, normalized to the 715/50 LB-2D entry.
RELATIVE_SPEED: dict[tuple[str, int], dict[str, float]] = {
    ("lb", 2): {"715/50": 1.00, "710": 0.84, "720": 0.86},
    ("lb", 3): {"715/50": 0.51, "710": 0.40, "720": 0.42},
    ("fd", 2): {"715/50": 1.24, "710": 1.08, "720": 1.17},
    ("fd", 3): {"715/50": 1.00, "710": 0.85, "720": 0.94},
}

#: §6: double-precision values communicated per boundary fluid node.
VALUES_PER_NODE: dict[tuple[str, int], int] = {
    ("fd", 2): 3,  # rho, Vx, Vy
    ("lb", 2): 3,  # the 3 D2Q9 populations crossing a face
    ("fd", 3): 4,  # rho, Vx, Vy, Vz
    ("lb", 3): 5,  # the 5 D3Q15 populations crossing a face
}

#: §6: FD communicates velocity and density separately; LB sends all
#: boundary data in one message.
MESSAGES_PER_STEP: dict[str, int] = {"fd": 2, "lb": 1}

BYTES_PER_VALUE = 8  # double precision

#: 10 Mbps shared-bus Ethernet (§9) expressed in payload bytes/second.
ETHERNET_BANDWIDTH = 1.25e6

#: Fitted per-message latency (TCP/IP + interrupt + protocol overhead on
#: a 1994 LAN).  "each message in a local area network incurs an
#: overhead" (§7) — this is what makes FD's two messages per step hurt
#: at small subregions and what eq. 20 leaves out.
MESSAGE_OVERHEAD = 1.0e-3

#: CSMA/CD degradation: each queued message ahead of a transmission
#: inflates its effective wire time by this fraction (collisions and
#: exponential backoff under bursty offered load).  Fitted so the
#: 3D efficiency collapse of fig. 9 lands on the measured curve.
COLLISION_FACTOR = 0.02


def node_speed(method: str, ndim: int, model: str = "715/50") -> float:
    """Fluid nodes integrated per second on a machine model."""
    return U_REF_NODES_PER_S * RELATIVE_SPEED[(method, ndim)][model]


def bytes_per_boundary_node(method: str, ndim: int) -> int:
    """Wire bytes per communicating fluid node (§6 payload counts)."""
    return VALUES_PER_NODE[(method, ndim)] * BYTES_PER_VALUE


def host_node_speed(
    method: str = "lb",
    ndim: int = 2,
    side: int = 48,
    steps: int = 5,
    repeats: int = 2,
) -> float:
    """Measured fluid nodes/s of ``(method, ndim)`` on *this* host.

    The paper calibrates its model with measured per-workstation speeds
    (§7's relative-speed table); this is the same measurement for the
    machine running it: a periodic, solid-free ``side**ndim`` problem is
    integrated per the §7 timing protocol and the unpadded nodes/s
    returned — the host's counterpart of :func:`node_speed`.
    """
    from ..distrib.spec import ProblemSpec
    from ..harness.timing import measure_node_speed

    spec = ProblemSpec(
        method=method,
        grid_shape=(side,) * ndim,
        blocks=(1,) * ndim,
        periodic=(True,) * ndim,
        params={"nu": 0.05, "gravity": (1e-5,) + (0.0,) * (ndim - 1)},
    )
    return measure_node_speed(
        spec.build_simulation(), n_nodes=side**ndim, steps=steps,
        repeats=repeats,
    )


def paper_ucalc_vcom_ratio() -> float:
    """The paper's fitted ``U_calc / V_com = 2/3`` (§8).

    Consistency check with the physical constants: LB-2D moves 24 bytes
    per boundary node, so ``V_com = 1.25 MB/s / 24 B = 52083`` node
    transfers/s and ``U_calc / V_com = 39132 / 52083 = 0.75`` — the same
    2/3-ish ratio the paper fits, with the difference absorbed by
    per-message overhead and TCP efficiency.
    """
    return 2.0 / 3.0
