// Package addr defines the basic identity and addressing types shared by
// every layer of the simulator: node identifiers, IPv4-style addresses,
// UDP-style endpoints and NAT types.
//
// The simulated internet uses 32-bit IPs and 16-bit ports, like IPv4/UDP,
// so that wire encodings have realistic sizes and the NAT emulator can
// translate between private and public endpoints exactly the way a real
// NAT gateway does.
package addr

import (
	"fmt"
	"net"
	"net/netip"
	"strconv"
)

// NodeID uniquely identifies a node for the lifetime of a simulation.
// A node that leaves and rejoins receives a fresh NodeID.
type NodeID uint64

// String returns the decimal form of the identifier, e.g. "n42".
func (n NodeID) String() string {
	return "n" + strconv.FormatUint(uint64(n), 10)
}

// IP is an IPv4 address in host byte order.
type IP uint32

// String formats the address in dotted-quad notation.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d",
		byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// IsZero reports whether the address is the zero address 0.0.0.0.
func (ip IP) IsZero() bool { return ip == 0 }

// Private reports whether the address falls in the simulated private
// range 10.0.0.0/8, mirroring RFC 1918.
func (ip IP) Private() bool { return byte(ip>>24) == 10 }

// MakeIP builds an IP from four dotted-quad components.
func MakeIP(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Endpoint is a transport address: an IP plus a UDP port.
type Endpoint struct {
	IP   IP
	Port uint16
}

// String formats the endpoint as "ip:port".
func (e Endpoint) String() string {
	return e.IP.String() + ":" + strconv.Itoa(int(e.Port))
}

// IsZero reports whether the endpoint is entirely unset.
func (e Endpoint) IsZero() bool { return e.IP == 0 && e.Port == 0 }

// FromAddrPort converts a real socket address — what the net package's
// allocation-free ReadFromUDPAddrPort and (*net.UDPAddr).AddrPort
// return — to an Endpoint. Anything but IPv4 (plain or IPv4-mapped)
// yields the zero Endpoint.
func FromAddrPort(a netip.AddrPort) Endpoint {
	ip := a.Addr().Unmap()
	if !ip.Is4() {
		return Endpoint{}
	}
	v4 := ip.As4()
	return Endpoint{IP: MakeIP(v4[0], v4[1], v4[2], v4[3]), Port: a.Port()}
}

// AddrPort is the inverse of FromAddrPort, for WriteToUDPAddrPort
// (which allocates nothing, unlike a *net.UDPAddr destination).
func (e Endpoint) AddrPort() netip.AddrPort {
	ip := e.IP
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}), e.Port)
}

// ParseEndpoint resolves a "host:port" string to an IPv4 endpoint.
func ParseEndpoint(s string) (Endpoint, error) {
	udp, err := net.ResolveUDPAddr("udp4", s)
	if err != nil {
		return Endpoint{}, fmt.Errorf("bad endpoint %q: %w", s, err)
	}
	if udp.IP.To4() == nil {
		return Endpoint{}, fmt.Errorf("endpoint %q is not IPv4", s)
	}
	return FromAddrPort(udp.AddrPort()), nil
}

// NatType classifies a node's connectivity as discovered by the NAT-type
// identification protocol (paper §V): a public node is globally reachable
// (open IP or UPnP-mapped), a private node sits behind at least one NAT
// or firewall and can only be reached over mappings it opened itself.
type NatType uint8

const (
	// NatUnknown is the zero value: the node has not yet identified
	// its NAT type.
	NatUnknown NatType = iota
	// Public nodes accept unsolicited traffic on a global address.
	Public
	// Private nodes are only reachable through NAT mappings that they
	// themselves created by sending outbound traffic.
	Private
)

// String returns a human-readable NAT type name.
func (t NatType) String() string {
	switch t {
	case Public:
		return "public"
	case Private:
		return "private"
	default:
		return "unknown"
	}
}
