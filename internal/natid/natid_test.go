package natid

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/latency"
	"repro/internal/nat"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// world wires a small simulated internet: a set of public "helper" nodes
// all running the server side, and one node under test.
type world struct {
	sched *sim.Scheduler
	net   *simnet.Network
	// helperEps are the helpers' protocol endpoints in creation order.
	helperEps []addr.Endpoint
}

const port = 2000

func newWorld(t *testing.T, helpers int) *world {
	t.Helper()
	sched := sim.New(1)
	n, err := simnet.New(sched, simnet.Config{Latency: latency.Constant(20 * time.Millisecond)})
	if err != nil {
		t.Fatalf("simnet.New: %v", err)
	}
	w := &world{sched: sched, net: n}
	for i := 0; i < helpers; i++ {
		id := addr.NodeID(100 + i)
		h, err := n.AddPublicHost(id)
		if err != nil {
			t.Fatalf("AddPublicHost: %v", err)
		}
		env, err := bindSimEnv(sched, h)
		if err != nil {
			t.Fatalf("Bind: %v", err)
		}
		ep := addr.Endpoint{IP: h.IP(), Port: port}
		w.helperEps = append(w.helperEps, ep)
		// Each helper knows every other helper and picks the first
		// one not excluded — "last good public node seen".
		eps := w
		env.SetServer(NewServer(env, func(exclude []addr.Endpoint) (addr.Endpoint, bool) {
			return eps.pickExcluding(ep, exclude)
		}))
	}
	return w
}

func (w *world) pickExcluding(self addr.Endpoint, exclude []addr.Endpoint) (addr.Endpoint, bool) {
	for _, cand := range w.helperEps {
		if cand == self {
			continue
		}
		banned := false
		for _, ex := range exclude {
			if cand == ex {
				banned = true
				break
			}
		}
		if !banned {
			return cand, true
		}
	}
	return addr.Endpoint{}, false
}

// startClient attaches a client to a host and runs the protocol against
// the given probe set.
func startClient(t *testing.T, w *world, h *simnet.Host, probes []addr.Endpoint, upnp UPnPMapper) *Result {
	t.Helper()
	env, err := bindSimEnv(w.sched, h)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	var res *Result
	c := NewClient(env, 3*time.Second, func(r Result) { res = &r })
	env.SetClient(c)
	c.Start(probes, upnp)
	w.sched.Run()
	if res == nil {
		t.Fatal("client never finished")
	}
	return res
}

func TestPublicNodeIdentifiedAsPublic(t *testing.T) {
	w := newWorld(t, 3)
	h, _ := w.net.AddPublicHost(1)
	res := startClient(t, w, h, w.helperEps[:2], nil)
	if res.Type != addr.Public {
		t.Fatalf("Type = %v, want public", res.Type)
	}
	if res.Observed != (addr.Endpoint{IP: h.IP(), Port: port}) {
		t.Fatalf("Observed = %v, want own endpoint", res.Observed)
	}
	if res.ViaUPnP {
		t.Fatal("ViaUPnP = true for an open-IP node")
	}
}

func TestNattedNodeIdentifiedAsPrivateViaTimeout(t *testing.T) {
	// Default NAT: endpoint-independent mapping, port-dependent
	// filtering. The ForwardResp comes from a node the client never
	// contacted, so the NAT filters it and the timeout fires.
	w := newWorld(t, 3)
	h, _ := w.net.AddPrivateHost(1, nat.DefaultConfig(0))
	res := startClient(t, w, h, w.helperEps[:2], nil)
	if res.Type != addr.Private {
		t.Fatalf("Type = %v, want private", res.Type)
	}
	if !res.Observed.IsZero() {
		t.Fatalf("Observed = %v, want zero on timeout", res.Observed)
	}
}

func TestNattedNodeWithEIFilteringIdentifiedAsPrivateViaMismatch(t *testing.T) {
	// An endpoint-independent-filtering NAT lets the ForwardResp in,
	// and the client then notices the observed IP differs from its
	// local IP (Algorithm 1 line 20-24).
	w := newWorld(t, 3)
	cfg := nat.DefaultConfig(0)
	cfg.Filtering = nat.FilteringEndpointIndependent
	h, _ := w.net.AddPrivateHost(1, cfg)
	res := startClient(t, w, h, w.helperEps[:2], nil)
	if res.Type != addr.Private {
		t.Fatalf("Type = %v, want private", res.Type)
	}
	if res.Observed.IP != h.Gateway().PublicIP() {
		t.Fatalf("Observed = %v, want the NAT's mapped endpoint", res.Observed)
	}
}

func TestUPnPShortCircuit(t *testing.T) {
	w := newWorld(t, 3)
	cfg := nat.DefaultConfig(0)
	cfg.UPnP = true
	h, _ := w.net.AddPrivateHost(1, cfg)
	mapper := func() (addr.Endpoint, error) {
		return h.Gateway().MapPort(addr.Endpoint{IP: h.IP(), Port: port}, port)
	}
	res := startClient(t, w, h, w.helperEps[:2], mapper)
	if res.Type != addr.Public || !res.ViaUPnP {
		t.Fatalf("Type = %v ViaUPnP = %v, want public via UPnP", res.Type, res.ViaUPnP)
	}
	if res.Observed != (addr.Endpoint{IP: h.Gateway().PublicIP(), Port: port}) {
		t.Fatalf("Observed = %v, want mapped endpoint", res.Observed)
	}
}

func TestFailedUPnPFallsBackToProbing(t *testing.T) {
	w := newWorld(t, 3)
	h, _ := w.net.AddPublicHost(1)
	failing := func() (addr.Endpoint, error) {
		return addr.Endpoint{}, errNoUPnP
	}
	res := startClient(t, w, h, w.helperEps[:2], failing)
	if res.Type != addr.Public || res.ViaUPnP {
		t.Fatalf("Type=%v ViaUPnP=%v, want public via probing", res.Type, res.ViaUPnP)
	}
}

var errNoUPnP = errNoUPnPType{}

type errNoUPnPType struct{}

func (errNoUPnPType) Error() string { return "no UPnP" }

func TestNoPublicNodesMeansPrivate(t *testing.T) {
	w := newWorld(t, 0)
	h, _ := w.net.AddPublicHost(1)
	res := startClient(t, w, h, nil, nil)
	if res.Type != addr.Private {
		t.Fatalf("Type = %v, want private (nothing to probe)", res.Type)
	}
}

func TestForwarderNeverInProbeSet(t *testing.T) {
	// With two helpers and both probed, no eligible forwarder exists,
	// so even a public client times out to private — the protocol
	// must not use a probed node as forwarder (paper §V).
	w := newWorld(t, 2)
	h, _ := w.net.AddPublicHost(1)
	res := startClient(t, w, h, w.helperEps, nil)
	if res.Type != addr.Private {
		t.Fatalf("Type = %v, want private (no eligible forwarder)", res.Type)
	}
}

func TestFirstResponseWins(t *testing.T) {
	// Probing several helpers in parallel yields several responses;
	// the client must finish exactly once.
	w := newWorld(t, 4)
	h, _ := w.net.AddPublicHost(1)
	env, err := bindSimEnv(w.sched, h)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	doneCount := 0
	c := NewClient(env, 3*time.Second, func(Result) { doneCount++ })
	env.SetClient(c)
	c.Start(w.helperEps[:3], nil)
	w.sched.Run()
	if doneCount != 1 {
		t.Fatalf("done callback fired %d times, want 1", doneCount)
	}
}

func TestThreeMessagesPerRun(t *testing.T) {
	// The paper stresses the protocol costs only three messages per
	// probe chain: MatchingIpTest, ForwardTest, ForwardResp.
	w := newWorld(t, 3)
	h, _ := w.net.AddPublicHost(1)
	startClient(t, w, h, w.helperEps[:1], nil)
	if got := w.net.Delivered(); got != 3 {
		t.Fatalf("delivered %d messages, want 3", got)
	}
}
