"""UNIX/TCP-IP communication substrate (paper §4.2, App. C-D).

Length-prefixed socket frames, the shared-file port registry with flock
(the paper's handshake), channel management with first-come-first-served
``select`` receives, the socket-backed ghost exchanger, and the one
collective — the small tree allreduce behind the in-flight diagnostics —
that runs identically over TCP, UDP and the in-process fabric.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "ChannelError": "channels",
    "ChannelSet": "channels",
    "COLLECTIVE_PHASE": "collectives",
    "REDUCE_OPS": "collectives",
    "Communicator": "collectives",
    "collective_pattern": "collectives",
    "drive_all": "collectives",
    "LocalChannelSet": "local",
    "LocalFabric": "local",
    "PortRegistry": "portfile",
    "MSG_DATA": "protocol",
    "MSG_HELLO": "protocol",
    "Header": "protocol",
    "ProtocolError": "protocol",
    "pack_frame": "protocol",
    "recv_frame": "protocol",
    "SocketExchanger": "transport",
    "UdpChannelSet": "udp",
})

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
