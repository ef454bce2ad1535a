package addr

import (
	"net"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestIPString(t *testing.T) {
	tests := []struct {
		ip   IP
		want string
	}{
		{MakeIP(10, 0, 0, 2), "10.0.0.2"},
		{MakeIP(255, 255, 255, 255), "255.255.255.255"},
		{MakeIP(0, 0, 0, 0), "0.0.0.0"},
		{MakeIP(192, 168, 1, 10), "192.168.1.10"},
	}
	for _, tt := range tests {
		if got := tt.ip.String(); got != tt.want {
			t.Fatalf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestIPPredicates(t *testing.T) {
	if !IP(0).IsZero() {
		t.Fatal("zero IP not IsZero")
	}
	if MakeIP(1, 2, 3, 4).IsZero() {
		t.Fatal("non-zero IP IsZero")
	}
	if !MakeIP(10, 9, 8, 7).Private() {
		t.Fatal("10/8 address not Private")
	}
	if MakeIP(11, 0, 0, 1).Private() {
		t.Fatal("11.0.0.1 reported Private")
	}
}

func TestEndpointString(t *testing.T) {
	e := Endpoint{IP: MakeIP(2, 0, 0, 1), Port: 1000}
	if got := e.String(); got != "2.0.0.1:1000" {
		t.Fatalf("String() = %q", got)
	}
	if !(Endpoint{}).IsZero() {
		t.Fatal("zero endpoint not IsZero")
	}
	if e.IsZero() {
		t.Fatal("non-zero endpoint IsZero")
	}
	// An endpoint with only a port set is still not zero.
	if (Endpoint{Port: 1}).IsZero() {
		t.Fatal("port-only endpoint IsZero")
	}
}

func TestNodeIDString(t *testing.T) {
	if got := NodeID(42).String(); got != "n42" {
		t.Fatalf("String() = %q, want n42", got)
	}
}

func TestNatTypeString(t *testing.T) {
	tests := []struct {
		nat  NatType
		want string
	}{
		{Public, "public"},
		{Private, "private"},
		{NatUnknown, "unknown"},
		{NatType(9), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.nat.String(); got != tt.want {
			t.Fatalf("String(%d) = %q, want %q", tt.nat, got, tt.want)
		}
	}
}

// Property: MakeIP round-trips through the four octets.
func TestMakeIPRoundTrip(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		ip := MakeIP(a, b, c, d)
		return byte(ip>>24) == a && byte(ip>>16) == b && byte(ip>>8) == c && byte(ip) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: an Endpoint survives the trip through a socket address, in
// the plain and in the IPv4-mapped form *net.UDPAddr yields, and the
// send-side conversion allocates nothing.
func TestAddrPortRoundTrip(t *testing.T) {
	f := func(ip uint32, port uint16) bool {
		e := Endpoint{IP: IP(ip), Port: port}
		mapped := (&net.UDPAddr{IP: net.IPv4(byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip)), Port: int(port)}).AddrPort()
		return FromAddrPort(e.AddrPort()) == e && FromAddrPort(mapped) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := FromAddrPort(netip.MustParseAddrPort("[2001:db8::1]:53")); !got.IsZero() {
		t.Errorf("IPv6 source mapped to %v, want the zero endpoint", got)
	}
	e := Endpoint{IP: MakeIP(192, 0, 2, 1), Port: 7000}
	if n := testing.AllocsPerRun(100, func() { _ = FromAddrPort(e.AddrPort()) }); n != 0 {
		t.Errorf("conversion allocates %.0f objects per round trip", n)
	}
}

func TestParseEndpoint(t *testing.T) {
	got, err := ParseEndpoint("192.0.2.7:7000")
	if want := (Endpoint{IP: MakeIP(192, 0, 2, 7), Port: 7000}); err != nil || got != want {
		t.Fatalf("ParseEndpoint = %v, %v; want %v", got, err, want)
	}
	for _, bad := range []string{"", "192.0.2.7", ":7000", "[::1]:7000", "192.0.2.7:99999"} {
		if _, err := ParseEndpoint(bad); err == nil {
			t.Errorf("ParseEndpoint(%q) accepted", bad)
		}
	}
}
