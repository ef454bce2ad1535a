// Package deploy runs the Croupier protocol over real UDP sockets — the
// deployment path the paper leaves as future work ("evaluate on the
// open Internet"). It provides a binary wire codec for the protocol
// messages, a UDP bootstrap directory, and a single-goroutine node
// runtime that drives the same protocol core the simulator uses.
package deploy

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/addr"
	"repro/internal/croupier"
	"repro/internal/exchange"
	"repro/internal/view"
	"repro/internal/wire"
)

// Message kinds on the deployment wire.
const (
	kindShuffleReq uint8 = iota + 1
	kindShuffleRes
	kindBootRegister
	kindBootList
	kindBootListRes
	kindKeepalive
)

// Encoded element sizes on the deployment wire (richer than the
// paper-accounting sizes in package wire: full 64-bit identities).
const (
	// wireDescSize is id(8) + endpoint(6) + nat(1) + age(2).
	wireDescSize = 17
	// wireEstSize is node(8) + value(4, float32 bits) + age(2).
	wireEstSize = 14
)

// BootRegister announces a public node to the bootstrap directory; also
// used as a periodic liveness refresh.
type BootRegister struct {
	Desc view.Descriptor
}

// BootList asks the directory for up to Max public descriptors.
type BootList struct {
	Max uint8
}

// BootListRes answers a BootList.
type BootListRes struct {
	Descs []view.Descriptor
}

// Keepalive is a tiny no-op datagram a NATed node sends towards its
// known peers between gossip rounds, refreshing the NAT's port mapping
// so inbound shuffle requests keep landing. Receivers count and drop
// it.
type Keepalive struct {
	From addr.NodeID
}

// Shuffle-section presence flags: empty optional sections are elided
// from the wire entirely, matching the simulator's traffic accounting
// (exchange.Req.Size) byte-for-byte at the payload level.
const (
	flagHasPri       uint8 = 1 << 0
	flagHasEstimates uint8 = 1 << 1
)

// EncodeShuffleReq serialises a shuffle request into a new buffer.
func EncodeShuffleReq(m *croupier.ShuffleReq) []byte {
	return encodeShuffle(nil, kindShuffleReq, m.From, m.Pub, m.Pri, m.Estimates)
}

// EncodeShuffleRes serialises a shuffle response into a new buffer.
func EncodeShuffleRes(m *croupier.ShuffleRes) []byte {
	return encodeShuffle(nil, kindShuffleRes, m.From, m.Pub, m.Pri, m.Estimates)
}

// encodeShuffle appends the encoding of one shuffle message to b; with
// a reused b of sufficient capacity it allocates nothing.
func encodeShuffle(b []byte, kind uint8, from view.Descriptor, pub, pri []view.Descriptor, ests []croupier.Estimate) []byte {
	var flags uint8
	if len(pri) > 0 {
		flags |= flagHasPri
	}
	if len(ests) > 0 {
		flags |= flagHasEstimates
	}
	b = append(b, kind, flags)
	b = putDescriptor(b, from)
	b = putDescriptors(b, pub)
	if flags&flagHasPri != 0 {
		b = putDescriptors(b, pri)
	}
	if flags&flagHasEstimates != 0 {
		b = putEstimates(b, ests)
	}
	return b
}

// EncodeBootRegister serialises a directory registration.
func EncodeBootRegister(m BootRegister) []byte {
	return putDescriptor([]byte{kindBootRegister}, m.Desc)
}

// EncodeBootList serialises a directory query.
func EncodeBootList(m BootList) []byte { return []byte{kindBootList, m.Max} }

// EncodeBootListRes serialises a directory answer.
func EncodeBootListRes(m BootListRes) []byte {
	return putDescriptors([]byte{kindBootListRes}, m.Descs)
}

// EncodeKeepalive serialises a NAT-mapping keepalive.
func EncodeKeepalive(m Keepalive) []byte {
	return binary.BigEndian.AppendUint64([]byte{kindKeepalive}, uint64(m.From))
}

// Decoder decodes deployment datagrams with pooled shuffle messages:
// decoded requests and responses (and their payload slices) come from
// an exchange pool and return to it on Release, so a node's receive
// path allocates nothing once warm — the mirror image of the
// simulator's zero-alloc exchange path. A Decoder is single-goroutine,
// like the pool it wraps: decode and release must happen on the same
// goroutine (the deployment runtime's driver loop).
type Decoder struct {
	pool exchange.Pool
}

// Decode parses a datagram, drawing shuffle messages from the
// decoder's pool. Callers must Release them (or hand them to a
// transport that does) to keep the path allocation-free; the other
// message kinds are small control traffic and are decoded by value.
func (d *Decoder) Decode(b []byte) (any, error) {
	r := wire.NewReader(b)
	kind := r.U8()
	var out any
	switch kind {
	case kindShuffleReq:
		m := d.pool.NewReq()
		decodeShuffleInto(r, &m.From, &m.Pub, &m.Pri, &m.Estimates)
		if err := r.Err(); err != nil {
			m.Release()
			return nil, fmt.Errorf("deploy: decode kind %d: %w", kind, err)
		}
		return m, nil
	case kindShuffleRes:
		m := d.pool.NewRes()
		decodeShuffleInto(r, &m.From, &m.Pub, &m.Pri, &m.Estimates)
		if err := r.Err(); err != nil {
			m.Release()
			return nil, fmt.Errorf("deploy: decode kind %d: %w", kind, err)
		}
		return m, nil
	case kindBootRegister:
		out = BootRegister{Desc: getDescriptor(r)}
	case kindBootList:
		out = BootList{Max: r.U8()}
	case kindBootListRes:
		out = BootListRes{Descs: appendDescriptors(r, nil)}
	case kindKeepalive:
		out = Keepalive{From: addr.NodeID(r.U64())}
	default:
		return nil, fmt.Errorf("deploy: unknown message kind %d", kind)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("deploy: decode kind %d: %w", kind, err)
	}
	return out, nil
}

// decodeShuffleInto parses a shuffle body appending into the (pooled,
// length-reset) destination slices, so their backing arrays are reused
// across datagrams.
func decodeShuffleInto(r *wire.Reader, from *view.Descriptor, pub, pri *[]view.Descriptor, ests *[]exchange.Estimate) {
	flags := r.U8()
	*from = getDescriptor(r)
	*pub = appendDescriptors(r, *pub)
	if flags&flagHasPri != 0 {
		*pri = appendDescriptors(r, *pri)
	}
	if flags&flagHasEstimates != 0 {
		*ests = appendEstimates(r, *ests)
	}
}

// appendDescriptors decodes a descriptor list into dst. The claimed
// element count is validated against the actual payload before the
// loop: a truncated or hostile datagram fails the reader up front
// instead of appending partial garbage into the pooled slices.
func appendDescriptors(r *wire.Reader, dst []view.Descriptor) []view.Descriptor {
	n := int(r.U8())
	if !r.Need(n * wireDescSize) {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, getDescriptor(r))
	}
	return dst
}

// appendEstimates decodes an estimate list into dst, validating the
// count like appendDescriptors.
func appendEstimates(r *wire.Reader, dst []exchange.Estimate) []exchange.Estimate {
	n := int(r.U8())
	if !r.Need(n * wireEstSize) {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, croupier.Estimate{
			Node:  addr.NodeID(r.U64()),
			Value: float64(math.Float32frombits(r.U32())),
			Age:   int(r.U16()),
		})
	}
	return dst
}

// Decode parses any deployment datagram into one of the message types
// (*croupier.ShuffleReq, *croupier.ShuffleRes, BootRegister, BootList,
// BootListRes, Keepalive) through a throwaway Decoder: nothing is
// reused across calls, so callers need not Release what they get. The
// deployment runtime's receive path keeps one Decoder instead.
func Decode(b []byte) (any, error) {
	var d Decoder
	return d.Decode(b)
}

// putDescriptor appends id(8) + endpoint(6) + nat(1) + age(2).
func putDescriptor(b []byte, d view.Descriptor) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(d.ID))
	b = binary.BigEndian.AppendUint32(b, uint32(d.Endpoint.IP))
	b = binary.BigEndian.AppendUint16(b, d.Endpoint.Port)
	b = append(b, uint8(d.Nat))
	return binary.BigEndian.AppendUint16(b, clampU16(int(d.Age)))
}

// clampU16 saturates an age into its 16-bit wire field.
func clampU16(v int) uint16 {
	return uint16(max(0, min(v, math.MaxUint16)))
}

func getDescriptor(r *wire.Reader) view.Descriptor {
	return view.Descriptor{
		ID:       addr.NodeID(r.U64()),
		Endpoint: r.Endpoint(),
		Nat:      addr.NatType(r.U8()),
		Age:      int32(r.U16()),
	}
}

func putDescriptors(b []byte, ds []view.Descriptor) []byte {
	if len(ds) > math.MaxUint8 {
		ds = ds[:math.MaxUint8]
	}
	b = append(b, uint8(len(ds)))
	for _, d := range ds {
		b = putDescriptor(b, d)
	}
	return b
}

// putEstimates appends node(8) + value(4, float32 bits) + age(2) each.
func putEstimates(b []byte, es []croupier.Estimate) []byte {
	if len(es) > math.MaxUint8 {
		es = es[:math.MaxUint8]
	}
	b = append(b, uint8(len(es)))
	for _, e := range es {
		b = binary.BigEndian.AppendUint64(b, uint64(e.Node))
		b = binary.BigEndian.AppendUint32(b, math.Float32bits(float32(e.Value)))
		b = binary.BigEndian.AppendUint16(b, clampU16(e.Age))
	}
	return b
}
