package wire

import "repro/internal/addr"

// Message is an application payload. Size must return the encoded body
// length in bytes; a carrier adds its own framing on top for traffic
// accounting.
type Message interface {
	Size() int
}

// Packet is what a protocol's HandlePacket receives. From is the source
// endpoint as observed by the receiver (post-NAT translation), so
// replying to From always traverses the reverse path.
type Packet struct {
	From addr.Endpoint
	To   addr.Endpoint
	Msg  Message
}

// Releasable is implemented by pooled messages (internal/exchange).
// Send transfers ownership of the message to the transport, which calls
// Release exactly once: after the receive handler returns (simnet),
// once the message is serialised (deploy), or when the packet is
// dropped. Handlers must copy anything they keep and must not re-send a
// received pooled message — to forward a nested payload, nil the
// wrapper's field so the wrapper's Release leaves it alone.
type Releasable interface {
	Release()
}
