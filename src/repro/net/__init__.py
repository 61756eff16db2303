"""UNIX/TCP-IP communication substrate (paper §4.2, App. C-D).

Length-prefixed socket frames, the shared-file port registry with flock
(the paper's handshake), channel management with first-come-first-served
``select`` receives, the socket-backed ghost exchanger, and the one
collective — the small tree allreduce behind the in-flight diagnostics —
that runs identically over TCP, UDP and the in-process fabric.
"""

from .channels import ChannelError, ChannelSet
from .collectives import (
    COLLECTIVE_PHASE,
    REDUCE_OPS,
    Communicator,
    collective_pattern,
    drive_all,
)
from .local import LocalChannelSet, LocalFabric
from .portfile import PortRegistry
from .protocol import (
    MSG_DATA,
    MSG_HELLO,
    Header,
    ProtocolError,
    pack_frame,
    recv_frame,
)
from .transport import SocketExchanger
from .udp import UdpChannelSet

__all__ = [
    "ChannelSet",
    "ChannelError",
    "UdpChannelSet",
    "LocalFabric",
    "LocalChannelSet",
    "Communicator",
    "drive_all",
    "collective_pattern",
    "COLLECTIVE_PHASE",
    "REDUCE_OPS",
    "PortRegistry",
    "SocketExchanger",
    "Header",
    "ProtocolError",
    "pack_frame",
    "recv_frame",
    "MSG_DATA",
    "MSG_HELLO",
]
