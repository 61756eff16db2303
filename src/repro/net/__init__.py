"""UNIX/TCP-IP communication substrate (paper §4.2, App. C-D).

Length-prefixed socket frames, the shared-file port registry with flock
(the paper's handshake), channel management with first-come-first-served
``select`` receives over TCP or UDP, an in-process fabric with the same
interface, and the socket-backed ghost exchanger.  A process only ever
talks to its grid neighbours (§4.2).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "ChannelError": "channels",
    "ChannelSet": "channels",
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
    "PortRegistry",
    "SocketExchanger",
    "Header",
    "ProtocolError",
    "pack_frame",
    "recv_frame",
    "MSG_DATA",
    "MSG_HELLO",
]
