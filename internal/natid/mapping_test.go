package natid

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/nat"
	"repro/internal/simnet"
)

// startMappingClient attaches a mapping client to a host and runs the
// probe against the given helper set on the simulated fabric.
func startMappingClient(t *testing.T, w *world, h *simnet.Host, helpers []addr.Endpoint) MappingResult {
	t.Helper()
	env, err := bindSimEnv(w.sched, h)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	var res *MappingResult
	c := NewMappingClient(env, 3*time.Second, 42, func(r MappingResult) { res = &r })
	env.SetMappingClient(c)
	c.Start(helpers)
	w.sched.Run()
	if res == nil {
		t.Fatal("mapping client never finished")
	}
	return *res
}

// TestMappingInference is the sim-side twin of the kernel testlab's
// natid check: for each modeled gateway policy, the probe-response
// pattern across two helpers must classify the NAT the way the
// equivalent iptables rules would behave (cone = endpoint-independent
// mapping = SNAT; symmetric = per-destination mapping = SNAT
// --random-fully).
func TestMappingInference(t *testing.T) {
	natCfg := func(mapping nat.MappingPolicy, filtering nat.FilteringPolicy) *nat.Config {
		cfg := nat.DefaultConfig(0)
		cfg.Mapping = mapping
		cfg.Filtering = filtering
		return &cfg
	}
	cases := []struct {
		name string
		// nat is nil for an open-internet host.
		nat  *nat.Config
		want Behavior
	}{
		{"public host sees its own endpoint", nil, BehaviorNoNAT},
		{"EI mapping (cone, strict filtering)",
			natCfg(nat.MappingEndpointIndependent, nat.FilteringAddressPortDependent), BehaviorCone},
		{"EI mapping (cone, open filtering)",
			natCfg(nat.MappingEndpointIndependent, nat.FilteringEndpointIndependent), BehaviorCone},
		{"APD mapping (symmetric)",
			natCfg(nat.MappingAddressPortDependent, nat.FilteringAddressPortDependent), BehaviorSymmetric},
		{"AD mapping (symmetric towards distinct helper IPs)",
			natCfg(nat.MappingAddressDependent, nat.FilteringAddressDependent), BehaviorSymmetric},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 3)
			var h *simnet.Host
			var err error
			if tc.nat == nil {
				h, err = w.net.AddPublicHost(1)
			} else {
				h, err = w.net.AddPrivateHost(1, *tc.nat)
			}
			if err != nil {
				t.Fatalf("add host: %v", err)
			}
			res := startMappingClient(t, w, h, w.helperEps[:2])
			if res.Behavior != tc.want {
				t.Fatalf("Behavior = %v, want %v (observed %v)", res.Behavior, tc.want, res.Observed)
			}
			if len(res.Observed) != 2 {
				t.Fatalf("Observed = %v, want two reports", res.Observed)
			}
			if tc.nat != nil {
				for _, ep := range res.Observed {
					if ep.IP != h.Gateway().PublicIP() {
						t.Fatalf("observed %v not behind the gateway's public IP", ep)
					}
				}
			}
		})
	}
}

func TestMappingSingleHelperIsUnknown(t *testing.T) {
	// One observation point cannot compare mappings: the run must
	// resolve immediately (no timeout wait) to unknown.
	w := newWorld(t, 1)
	h, _ := w.net.AddPublicHost(1)
	res := startMappingClient(t, w, h, w.helperEps)
	if res.Behavior != BehaviorUnknown {
		t.Fatalf("Behavior = %v, want unknown with a single helper", res.Behavior)
	}
	if got := w.net.Delivered(); got != 0 {
		t.Fatalf("delivered %d messages, want 0 (no probes sent)", got)
	}
}

func TestMappingUnresponsiveHelpersTimeOutToUnknown(t *testing.T) {
	// Helpers that never answer (dead endpoints) leave fewer than two
	// reports when the timer fires.
	w := newWorld(t, 0)
	h, _ := w.net.AddPublicHost(1)
	dead := []addr.Endpoint{
		{IP: addr.MakeIP(9, 9, 9, 1), Port: port},
		{IP: addr.MakeIP(9, 9, 9, 2), Port: port},
	}
	res := startMappingClient(t, w, h, dead)
	if res.Behavior != BehaviorUnknown {
		t.Fatalf("Behavior = %v, want unknown on timeout", res.Behavior)
	}
}

func TestMappingDuplicateHelpersAndReports(t *testing.T) {
	// The probe set dedups repeated helpers, and repeated reports from
	// one helper never count as a second observation point.
	w := newWorld(t, 2)
	h, _ := w.net.AddPublicHost(1)
	helpers := []addr.Endpoint{w.helperEps[0], w.helperEps[0], w.helperEps[1]}
	res := startMappingClient(t, w, h, helpers)
	if res.Behavior != BehaviorNoNAT {
		t.Fatalf("Behavior = %v, want none for an open host", res.Behavior)
	}
	if len(res.Observed) != 2 {
		t.Fatalf("Observed = %v, want exactly two reports after dedup", res.Observed)
	}

	// White-box: a duplicate report arriving late must be ignored and
	// the callback must not fire twice.
	calls := 0
	c := NewMappingClient(&simEnv{}, time.Second, 7, func(MappingResult) { calls++ })
	c.reports = []mapReportFrom{{helper: w.helperEps[0], observed: w.helperEps[0]}}
	c.want = 2
	c.HandleMapReport(w.helperEps[0], MapReport{Token: 7, Observed: w.helperEps[0]})
	if c.Finished() {
		t.Fatal("duplicate helper report completed the run")
	}
	c.HandleMapReport(w.helperEps[1], MapReport{Token: 9, Observed: w.helperEps[1]})
	if c.Finished() {
		t.Fatal("mismatched token accepted")
	}
	c.HandleMapReport(w.helperEps[1], MapReport{Token: 7, Observed: w.helperEps[1]})
	if !c.Finished() || calls != 1 {
		t.Fatalf("finished=%v calls=%d, want finished once", c.Finished(), calls)
	}
}

func TestMapMessagesRoundTrip(t *testing.T) {
	probe, err := Decode(Encode(MapProbe{Token: 0xDEADBEEF}))
	if err != nil {
		t.Fatalf("Decode probe: %v", err)
	}
	if p, ok := probe.(MapProbe); !ok || p.Token != 0xDEADBEEF {
		t.Fatalf("probe = %#v", probe)
	}
	obs := addr.Endpoint{IP: addr.MakeIP(203, 0, 113, 9), Port: 4321}
	rep, err := Decode(Encode(MapReport{Token: 7, Observed: obs}))
	if err != nil {
		t.Fatalf("Decode report: %v", err)
	}
	if r, ok := rep.(MapReport); !ok || r.Token != 7 || r.Observed != obs {
		t.Fatalf("report = %#v", rep)
	}
	full := Encode(MapReport{Token: 7, Observed: obs})
	if _, err := Decode(full[:len(full)-2]); err == nil {
		t.Fatal("Decode accepted truncated MapReport")
	}
}

// TestMappingOverUDP runs the mapping probe over real loopback sockets:
// two helper servers echo, the client (un-NATed) must classify as none
// and observe its own bound endpoint twice.
func TestMappingOverUDP(t *testing.T) {
	newHelper := func() *UDPNode {
		t.Helper()
		n, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenUDP: %v", err)
		}
		t.Cleanup(func() { n.Close() })
		n.SetServer(NewServer(n, func([]addr.Endpoint) (addr.Endpoint, bool) {
			return addr.Endpoint{}, false
		}))
		return n
	}
	h1, h2 := newHelper(), newHelper()

	client, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer client.Close()

	cls := client.Classify(nil, []addr.Endpoint{h1.Endpoint(), h2.Endpoint()}, 2*time.Second, nil)
	if cls.Mapping.Behavior != BehaviorNoNAT {
		t.Fatalf("Behavior = %v (observed %v), want none on loopback", cls.Mapping.Behavior, cls.Mapping.Observed)
	}
	for _, ep := range cls.Mapping.Observed {
		if ep != client.Endpoint() {
			t.Fatalf("observed %v, want own endpoint %v", ep, client.Endpoint())
		}
	}
	if cls.Result.Type != addr.NatUnknown {
		t.Fatalf("reachability ran without probes: %v", cls.Result.Type)
	}
}
