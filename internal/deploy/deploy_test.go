package deploy

import (
	"bytes"
	"math"
	"net"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/addr"
	"repro/internal/croupier"
	"repro/internal/pss"
	"repro/internal/view"
)

func sampleDesc(id int) view.Descriptor {
	return view.Descriptor{
		ID:       addr.NodeID(id),
		Endpoint: addr.Endpoint{IP: addr.MakeIP(127, 0, 0, 1), Port: uint16(40000 + id)},
		Nat:      addr.Public,
		Age:      int32(id % 20),
	}
}

// descEq compares the fields the deployment codec carries (Croupier
// descriptors have no relay/via extensions).
func descEq(a, b view.Descriptor) bool {
	return a.ID == b.ID && a.Endpoint == b.Endpoint && a.Nat == b.Nat && a.Age == b.Age
}

func TestShuffleReqRoundTrip(t *testing.T) {
	m := &croupier.ShuffleReq{
		From: sampleDesc(1),
		Pub:  []view.Descriptor{sampleDesc(2), sampleDesc(3)},
		Pri:  []view.Descriptor{sampleDesc(4)},
		Estimates: []croupier.Estimate{
			{Node: 7, Value: 0.25, Age: 3},
			{Node: 9, Value: 0.5, Age: 0},
		},
	}
	got, err := Decode(EncodeShuffleReq(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	back, ok := got.(*croupier.ShuffleReq)
	if !ok {
		t.Fatalf("decoded %T", got)
	}
	if !descEq(back.From, m.From) {
		t.Fatalf("From = %v, want %v", back.From, m.From)
	}
	if len(back.Pub) != 2 || !descEq(back.Pub[1], m.Pub[1]) {
		t.Fatalf("Pub = %v", back.Pub)
	}
	if len(back.Pri) != 1 || !descEq(back.Pri[0], m.Pri[0]) {
		t.Fatalf("Pri = %v", back.Pri)
	}
	if len(back.Estimates) != 2 || back.Estimates[0].Node != 7 {
		t.Fatalf("Estimates = %v", back.Estimates)
	}
	if math.Abs(back.Estimates[1].Value-0.5) > 1e-6 {
		t.Fatalf("estimate value = %v, want 0.5 within float32", back.Estimates[1].Value)
	}
}

func TestShuffleResRoundTrip(t *testing.T) {
	m := &croupier.ShuffleRes{From: sampleDesc(5), Pub: []view.Descriptor{sampleDesc(6)}}
	got, err := Decode(EncodeShuffleRes(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	back, ok := got.(*croupier.ShuffleRes)
	if !ok || !descEq(back.From, m.From) || len(back.Pub) != 1 {
		t.Fatalf("decoded %#v", got)
	}
}

func TestBootstrapMessagesRoundTrip(t *testing.T) {
	reg, err := Decode(EncodeBootRegister(BootRegister{Desc: sampleDesc(1)}))
	if err != nil {
		t.Fatalf("Decode register: %v", err)
	}
	if r, ok := reg.(BootRegister); !ok || !descEq(r.Desc, sampleDesc(1)) {
		t.Fatalf("register = %#v", reg)
	}
	lst, err := Decode(EncodeBootList(BootList{Max: 7}))
	if err != nil {
		t.Fatalf("Decode list: %v", err)
	}
	if l, ok := lst.(BootList); !ok || l.Max != 7 {
		t.Fatalf("list = %#v", lst)
	}
	res, err := Decode(EncodeBootListRes(BootListRes{Descs: []view.Descriptor{sampleDesc(2)}}))
	if err != nil {
		t.Fatalf("Decode list res: %v", err)
	}
	if r, ok := res.(BootListRes); !ok || len(r.Descs) != 1 {
		t.Fatalf("list res = %#v", res)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode accepted empty datagram")
	}
	if _, err := Decode([]byte{200}); err == nil {
		t.Fatal("Decode accepted unknown kind")
	}
	truncated := EncodeShuffleReq(&croupier.ShuffleReq{From: sampleDesc(1)})
	if _, err := Decode(truncated[:len(truncated)-3]); err == nil {
		t.Fatal("Decode accepted truncated shuffle")
	}
}

// Property: descriptors survive the codec bit-exactly for all field
// values within wire ranges.
func TestDescriptorCodecProperty(t *testing.T) {
	f := func(id uint64, ip uint32, port uint16, natRaw uint8, age uint16) bool {
		d := view.Descriptor{
			ID:       addr.NodeID(id),
			Endpoint: addr.Endpoint{IP: addr.IP(ip), Port: port},
			Nat:      addr.NatType(natRaw%2 + 1),
			Age:      int32(age),
		}
		got, err := Decode(EncodeBootRegister(BootRegister{Desc: d}))
		if err != nil {
			return false
		}
		back, ok := got.(BootRegister)
		return ok && descEq(back.Desc, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLoopbackDeployment runs a real-UDP Croupier deployment on
// loopback: a bootstrap directory, 5 public and 10 private nodes.
// Rounds are driven through manual tick channels with a matching fake
// clock, so convergence depends on the number of rounds gossiped — not
// on wall-clock scheduling under host load, which used to make this
// test flaky. After enough rounds the estimates must be near the true
// ratio 1/3 and views populated.
func TestLoopbackDeployment(t *testing.T) {
	boot, err := ListenBootstrap("127.0.0.1:0", 10*time.Second, 1)
	if err != nil {
		t.Fatalf("ListenBootstrap: %v", err)
	}
	defer boot.Close()

	cfg := croupier.DefaultConfig()
	cfg.Params = pss.Params{ViewSize: 10, ShuffleSize: 5, Period: 50 * time.Millisecond}

	var clock fakeClock
	var nodes []*Node
	var ticks []chan time.Time
	start := func(id int, nat addr.NatType) {
		t.Helper()
		ch := make(chan time.Time)
		n, err := StartNode(NodeConfig{
			Listen:    "127.0.0.1:0",
			ID:        addr.NodeID(id),
			Nat:       nat,
			Directory: boot.Endpoint(),
			Croupier:  cfg,
			Ticks:     ch,
			Now:       clock.now,
		})
		if err != nil {
			t.Fatalf("StartNode(%d): %v", id, err)
		}
		nodes = append(nodes, n)
		ticks = append(ticks, ch)
	}
	for i := 1; i <= 5; i++ {
		start(i, addr.Public)
		// The registration datagram is sent at startup; give loopback a
		// moment to land it before the next joiner queries the directory.
		time.Sleep(20 * time.Millisecond)
	}
	for i := 6; i <= 15; i++ {
		start(i, addr.Private)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	// Drive rounds until every node holds a close estimate and a
	// populated view. The bound is in rounds, not seconds: the sim
	// converges this population in well under a hundred rounds, so
	// 4000 only fails on a real regression, however loaded the host.
	tickAll := func() {
		clock.advance(int64(time.Second))
		for _, ch := range ticks {
			ch <- time.Time{}
		}
	}
	const maxRounds = 4000
	good := 0
	for r := 1; r <= maxRounds; r++ {
		tickAll()
		time.Sleep(time.Millisecond) // let loopback datagrams land between rounds
		if r%25 != 0 {
			continue
		}
		good = 0
		for _, n := range nodes {
			est, ok := n.Estimate()
			if ok && math.Abs(est-1.0/3) < 0.12 && len(n.Neighbors()) >= 5 {
				good++
			}
		}
		if good == len(nodes) {
			break
		}
	}
	if good != len(nodes) {
		for _, n := range nodes {
			est, ok := n.Estimate()
			t.Logf("node %v: est=%.3f ok=%v neighbors=%d rounds=%d",
				n.ID(), est, ok, len(n.Neighbors()), n.Rounds())
		}
		t.Fatalf("only %d/%d nodes converged after %d loopback rounds", good, len(nodes), maxRounds)
	}

	// Samples must cover both NAT classes.
	pub, pri := 0, 0
	for i := 0; i < 100; i++ {
		d, ok := nodes[7].Sample()
		if !ok {
			t.Fatal("sampling failed")
		}
		if d.Nat == addr.Public {
			pub++
		} else {
			pri++
		}
	}
	if pub == 0 || pri == 0 {
		t.Fatalf("samples covered only one class: %d public / %d private", pub, pri)
	}
}

func TestBootstrapServerExpiry(t *testing.T) {
	boot, err := ListenBootstrap("127.0.0.1:0", 200*time.Millisecond, 1)
	if err != nil {
		t.Fatalf("ListenBootstrap: %v", err)
	}
	defer boot.Close()

	n, err := StartNode(NodeConfig{
		Listen:    "127.0.0.1:0",
		ID:        1,
		Nat:       addr.Public,
		Directory: boot.Endpoint(),
		Croupier: croupier.Config{
			Params:           pss.Params{ViewSize: 10, ShuffleSize: 5, Period: 40 * time.Millisecond},
			LocalHistory:     25,
			NeighbourHistory: 50,
			EstimateSubset:   10,
			PendingTTL:       5,
		},
	})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}

	waitFor := func(want int, msg string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for boot.Count() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: directory count = %d, want %d", msg, boot.Count(), want)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	waitFor(1, "after registration")
	n.Close()
	waitFor(0, "after node shutdown + TTL")
}

func TestStartNodeValidation(t *testing.T) {
	if _, err := StartNode(NodeConfig{Listen: "127.0.0.1:0", ID: 1}); err == nil {
		t.Fatal("StartNode accepted unknown NAT type")
	}
	// A private node with an unreachable directory must fail fast.
	dead := addr.Endpoint{IP: addr.MakeIP(127, 0, 0, 1), Port: 9}
	cfg := croupier.DefaultConfig()
	cfg.Params.Period = 50 * time.Millisecond
	if _, err := StartNode(NodeConfig{
		Listen: "127.0.0.1:0", ID: 2, Nat: addr.Private, Directory: dead, Croupier: cfg,
	}); err == nil {
		t.Fatal("StartNode succeeded for a private node without a directory")
	}
}

// TestDecoderMatchesDecode pins the pooled decoder to the package-level
// decoder on shuffle messages: same fields, full sections.
func TestDecoderMatchesDecode(t *testing.T) {
	m := &croupier.ShuffleReq{
		From: sampleDesc(1),
		Pub:  []view.Descriptor{sampleDesc(2), sampleDesc(3)},
		Pri:  []view.Descriptor{sampleDesc(4)},
		Estimates: []croupier.Estimate{
			{Node: 7, Value: 0.25, Age: 3},
			{Node: 9, Value: 0.5, Age: 0},
		},
	}
	var dec Decoder
	got, err := dec.Decode(EncodeShuffleReq(m))
	if err != nil {
		t.Fatalf("Decoder.Decode: %v", err)
	}
	req, ok := got.(*croupier.ShuffleReq)
	if !ok {
		t.Fatalf("decoded %T, want *croupier.ShuffleReq", got)
	}
	if !descEq(req.From, m.From) || len(req.Pub) != 2 || len(req.Pri) != 1 || len(req.Estimates) != 2 {
		t.Fatalf("pooled decode mismatch: %+v", req)
	}
	if req.Estimates[0] != m.Estimates[0] || req.Estimates[1] != m.Estimates[1] {
		t.Fatalf("estimates mismatch: %+v", req.Estimates)
	}
	req.Release()

	// Truncated datagrams must fail and not leak the pooled message.
	b := EncodeShuffleReq(m)
	if _, err := dec.Decode(b[:len(b)-3]); err == nil {
		t.Fatal("Decoder accepted truncated shuffle")
	}
}

// TestDecoderPooledDecodeAllocs is the deployment-path mirror of the
// simulator's exchange-pool guards: once warm, decoding a shuffle
// datagram into pooled messages and releasing them must not allocate.
func TestDecoderPooledDecodeAllocs(t *testing.T) {
	m := &croupier.ShuffleRes{
		From: sampleDesc(1),
		Pub:  []view.Descriptor{sampleDesc(2), sampleDesc(3), sampleDesc(4)},
		Pri:  []view.Descriptor{sampleDesc(5)},
		Estimates: []croupier.Estimate{
			{Node: 7, Value: 0.25, Age: 3},
			{Node: 9, Value: 0.5, Age: 0},
		},
	}
	b := EncodeShuffleRes(m)
	var dec Decoder
	for i := 0; i < 8; i++ { // warm the pool and payload capacities
		msg, err := dec.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		msg.(*croupier.ShuffleRes).Release()
	}
	avg := testing.AllocsPerRun(200, func() {
		msg, err := dec.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		msg.(*croupier.ShuffleRes).Release()
	})
	if avg != 0 {
		t.Fatalf("pooled decode allocates %.2f objects per datagram, want 0", avg)
	}
}

// lastWrite is a PacketConn that keeps a copy of the last datagram
// written and sends nothing.
type lastWrite struct{ b []byte }

func (c *lastWrite) ReadFromUDPAddrPort([]byte) (int, netip.AddrPort, error) {
	return 0, netip.AddrPort{}, net.ErrClosed
}
func (c *lastWrite) WriteToUDPAddrPort(b []byte, _ netip.AddrPort) (int, error) {
	c.b = append(c.b[:0], b...)
	return len(b), nil
}
func (c *lastWrite) LocalAddrPort() netip.AddrPort { return netip.AddrPort{} }
func (c *lastWrite) Close() error                  { return nil }

// TestTransportSendAllocs pins the send half of the zero-alloc
// deployment path: once its buffer has grown, the transport encodes
// every shuffle message into it, byte-identical to the allocating
// EncodeShuffleReq/EncodeShuffleRes, and allocates nothing per send.
func TestTransportSendAllocs(t *testing.T) {
	req := &croupier.ShuffleReq{
		From: sampleDesc(1),
		Pub:  []view.Descriptor{sampleDesc(2), sampleDesc(3)},
		Pri:  []view.Descriptor{sampleDesc(4)},
	}
	res := &croupier.ShuffleRes{
		From:      sampleDesc(5),
		Pub:       []view.Descriptor{sampleDesc(6), sampleDesc(7), sampleDesc(8)},
		Estimates: []croupier.Estimate{{Node: 7, Value: 0.25, Age: 3}},
	}
	conn := &lastWrite{}
	tr := &transport{conn: conn}
	to := addr.Endpoint{IP: addr.MakeIP(10, 0, 0, 1), Port: 4000}
	tr.Send(to, req)
	if !bytes.Equal(conn.b, EncodeShuffleReq(req)) {
		t.Fatal("transport encoding of a request differs from EncodeShuffleReq")
	}
	tr.Send(to, res)
	if !bytes.Equal(conn.b, EncodeShuffleRes(res)) {
		t.Fatal("transport encoding of a response differs from EncodeShuffleRes")
	}
	avg := testing.AllocsPerRun(200, func() {
		tr.Send(to, req)
		tr.Send(to, res)
	})
	if avg != 0 {
		t.Fatalf("transport Send allocates %.2f objects per request/response pair, want 0", avg)
	}
}
