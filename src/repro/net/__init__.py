"""Networking substrate: wire framing, flow-controlled channels, transports.

NEPTUNE's communication module (built on Java NIO/Netty in the paper) is
realized here as:

- :mod:`repro.net.framing` — length-prefixed, checksummed frames that
  carry one *buffer flush* (a batch of serialized stream packets).
- :mod:`repro.net.flowcontrol` — credit/watermark bounded channels: the
  in-process analogue of TCP receive-window flow control, the mechanism
  NEPTUNE's backpressure rides on.
- :mod:`repro.net.transport` — TCP (or Unix-domain) socket endpoints
  between resources/machines; operators of the same resource hand
  batches over through a channel, with no transport in between.
"""

from repro.net.framing import (
    Frame,
    FrameEncoder,
    FrameDecoder,
    FrameHeader,
    SequenceTracker,
)
from repro.net.flowcontrol import WatermarkChannel, ChannelClosed
from repro.net.transport import (
    RetryPolicy,
    TcpTransport,
    TcpListener,
    is_unix_endpoint,
)

__all__ = [
    "Frame",
    "FrameHeader",
    "FrameEncoder",
    "FrameDecoder",
    "SequenceTracker",
    "WatermarkChannel",
    "ChannelClosed",
    "RetryPolicy",
    "TcpTransport",
    "TcpListener",
    "is_unix_endpoint",
]
