"""Networking substrate: wire framing, flow-controlled channels, transports.

NEPTUNE's communication module (built on Java NIO/Netty in the paper) is
realized here as:

- :mod:`repro.net.framing` — length-prefixed, checksummed frames that
  carry one *buffer flush* (a batch of serialized stream packets).
- :mod:`repro.net.flowcontrol` — credit/watermark bounded channels: the
  in-process analogue of TCP receive-window flow control, the mechanism
  NEPTUNE's backpressure rides on.
- :mod:`repro.net.protocol` — the link protocol (sequence, ack, replay,
  backoff) as a sender and a receiver state machine, with no IO.
- :mod:`repro.net.transport` — TCP (or Unix-domain) socket endpoints
  between resources/machines that drive it; operators of the same
  resource hand batches over through a channel, with no transport.
"""

from typing import Any

from repro.util.lazy import lazy_export

# Imported on first use: an in-process job never loads the transport.
_EXPORTS = {
    "Frame": "repro.net.framing",
    "FrameHeader": "repro.net.framing",
    "FrameEncoder": "repro.net.framing",
    "FrameDecoder": "repro.net.framing",
    "WatermarkChannel": "repro.net.flowcontrol",
    "ChannelClosed": "repro.net.flowcontrol",
    "RetryPolicy": "repro.net.protocol",
    "Sender": "repro.net.protocol",
    "Receiver": "repro.net.protocol",
    "TcpTransport": "repro.net.transport",
    "TcpListener": "repro.net.transport",
    "is_unix_endpoint": "repro.net.transport",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)
