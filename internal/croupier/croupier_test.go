package croupier

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/addr"
	"repro/internal/exchange"
	"repro/internal/intern"
	"repro/internal/latency"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/view"
	"repro/internal/wire"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// rig is a minimal harness for direct protocol-level tests.
type rig struct {
	sched *sim.Scheduler
	net   *simnet.Network
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sched := sim.New(1)
	n, err := simnet.New(sched, simnet.Config{Latency: latency.Constant(5 * time.Millisecond)})
	if err != nil {
		t.Fatalf("simnet.New: %v", err)
	}
	return &rig{sched: sched, net: n}
}

// rng draws a node's private stream from the rig's scheduler stream,
// the way internal/world seeds the nodes it builds.
func (r *rig) rng() *rand.Rand { return sim.NewRand(r.sched.Rand().Int63()) }

// node attaches a public-host croupier node without starting its ticker.
func (r *rig) node(t *testing.T, id addr.NodeID, natType addr.NatType, seeds []view.Descriptor) *Node {
	t.Helper()
	h, err := r.net.AddPublicHost(id)
	if err != nil {
		t.Fatalf("AddPublicHost: %v", err)
	}
	var n *Node
	sock, err := h.Bind(100, func(p wire.Packet) { n.HandlePacket(p) })
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	n, err = NewWithTransport(DefaultConfig(), h.ID(), r.rng(), sock, natType, addr.Endpoint{IP: h.IP(), Port: 100}, seeds)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func pubDesc(id int) view.Descriptor {
	return view.Descriptor{
		ID:       addr.NodeID(id),
		Endpoint: addr.Endpoint{IP: addr.MakeIP(9, 0, 0, byte(id)), Port: 100},
		Nat:      addr.Public,
	}
}

func priDesc(id int) view.Descriptor {
	d := pubDesc(id)
	d.Nat = addr.Private
	return d
}

// buildSubsets fills a pooled request for peer and returns the drawn
// subsets, exercising the engine-facing FillRequest hook directly.
func buildSubsets(n *Node, peer addr.NodeID) (pub, pri []view.Descriptor) {
	req := n.eng.NewReq()
	(*policy)(n).FillRequest(view.Descriptor{ID: peer}, req)
	return req.Pub, req.Pri
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero view size", func(c *Config) { c.Params.ViewSize = 0 }},
		{"shuffle larger than view", func(c *Config) { c.Params.ShuffleSize = c.Params.ViewSize + 1 }},
		{"zero period", func(c *Config) { c.Params.Period = 0 }},
		{"zero alpha", func(c *Config) { c.LocalHistory = 0 }},
		{"zero gamma", func(c *Config) { c.NeighbourHistory = 0 }},
		{"negative estimate subset", func(c *Config) { c.EstimateSubset = -1 }},
		{"zero pending ttl", func(c *Config) { c.PendingTTL = 0 }},
		{"negative rebootstrap period", func(c *Config) { c.RebootstrapEvery = -1 }},
		{"negative compaction period", func(c *Config) { c.CompactOriginsEvery = -1 }},
		{"compaction of a shared interner", func(c *Config) {
			c.CompactOriginsEvery = 10
			c.Origins = intern.NewOrigins()
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted invalid config")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestSeedsPartitionByNatType(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Public, []view.Descriptor{pubDesc(2), priDesc(3), pubDesc(4)})
	if got := len(n.PublicView()); got != 2 {
		t.Fatalf("public view size = %d, want 2", got)
	}
	if got := len(n.PrivateView()); got != 1 {
		t.Fatalf("private view size = %d, want 1", got)
	}
}

func TestHitHistoryBoundedByAlpha(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Public, nil)
	for i := 0; i < n.cfg.LocalHistory*3; i++ {
		n.cu, n.cv = 1, 2
		n.pushHits()
	}
	if len(n.histU) != n.cfg.LocalHistory {
		t.Fatalf("history length = %d, want alpha = %d", len(n.histU), n.cfg.LocalHistory)
	}
	if n.cu != 0 || n.cv != 0 {
		t.Fatal("pushHits did not reset current counters")
	}
}

func TestCalcHitsRatio(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Public, nil)
	if _, ok := n.calcHitsRatio(); ok {
		t.Fatal("ratio computed with no hits")
	}
	n.histU = []int32{2, 1, 1} // 4 public hits
	n.histV = []int32{5, 6, 5} // 16 private hits
	got, ok := n.calcHitsRatio()
	if !ok {
		t.Fatal("ratio not computed")
	}
	if math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("ratio = %v, want 0.2", got)
	}
}

func TestHandleShuffleReqCountsHitsByType(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Public, nil)
	n.handleShuffleReq(addr.Endpoint{IP: 9, Port: 9}, &ShuffleReq{From: pubDesc(2)})
	n.handleShuffleReq(addr.Endpoint{IP: 9, Port: 9}, &ShuffleReq{From: priDesc(3)})
	n.handleShuffleReq(addr.Endpoint{IP: 9, Port: 9}, &ShuffleReq{From: priDesc(4)})
	if n.cu != 1 || n.cv != 2 {
		t.Fatalf("cu=%d cv=%d, want 1 and 2", n.cu, n.cv)
	}
}

func TestPrivateNodeDropsShuffleReq(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Private, nil)
	n.handleShuffleReq(addr.Endpoint{IP: 9, Port: 9}, &ShuffleReq{From: pubDesc(2)})
	if n.cu != 0 || n.cv != 0 || n.recvReqs != 0 {
		t.Fatal("private node processed a shuffle request")
	}
}

func TestMergeEstimatesKeepsFreshest(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Private, nil)
	n.mergeEstimates([]Estimate{{Node: 5, Value: 0.3, Age: 10}})
	n.mergeEstimates([]Estimate{{Node: 5, Value: 0.4, Age: 2}}) // fresher wins
	n.mergeEstimates([]Estimate{{Node: 5, Value: 0.9, Age: 8}}) // staler loses
	es := n.CachedEstimates()
	if len(es) != 1 || es[0].Value != 0.4 {
		t.Fatalf("estimates = %v, want single value 0.4", es)
	}
}

func TestMergeEstimatesSkipsSelfAndExpired(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Public, nil)
	n.mergeEstimates([]Estimate{
		{Node: 1, Value: 0.9}, // self
		{Node: 2, Value: 0.2, Age: n.cfg.NeighbourHistory + 1}, // expired
		{Node: 3, Value: 0.25, Age: n.cfg.NeighbourHistory},    // boundary: kept
	})
	es := n.CachedEstimates()
	if len(es) != 1 || es[0].Node != 3 {
		t.Fatalf("estimates = %v, want only node 3", es)
	}
}

func TestEstimateAveragesPerNatType(t *testing.T) {
	r := newRig(t)
	pub := r.node(t, 1, addr.Public, nil)
	pri := r.node(t, 2, addr.Private, nil)

	for _, n := range []*Node{pub, pri} {
		n.mergeEstimates([]Estimate{
			{Node: 10, Value: 0.1},
			{Node: 11, Value: 0.3},
		})
	}
	// Private node: plain average of cached estimates (equation 9).
	got, ok := pri.Estimate()
	if !ok || math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("private estimate = %v (%v), want 0.2", got, ok)
	}
	// Public node with local estimate folds it in (equation 8).
	pub.localEst, pub.hasLocal = 0.8, true
	got, ok = pub.Estimate()
	if !ok || math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("public estimate = %v (%v), want (0.1+0.3+0.8)/3 = 0.4", got, ok)
	}
}

func TestEstimateUnavailableWithoutData(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Private, nil)
	if _, ok := n.Estimate(); ok {
		t.Fatal("estimate available with no data")
	}
}

func TestEstimateExpiryAfterGamma(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Private, nil)
	n.mergeEstimates([]Estimate{{Node: 5, Value: 0.3, Age: 0}})
	for i := 1; i <= n.cfg.NeighbourHistory+1; i++ {
		n.estimates.expire(i)
	}
	if _, ok := n.Estimate(); ok {
		t.Fatal("estimate survived past gamma rounds")
	}
}

func TestBuildSubsetsPlacesSelfCorrectly(t *testing.T) {
	r := newRig(t)
	seeds := []view.Descriptor{pubDesc(2), pubDesc(3), priDesc(4), priDesc(5)}

	pub := r.node(t, 1, addr.Public, seeds)
	p, _ := buildSubsets(pub, 99)
	foundSelf := false
	for _, d := range p {
		if d.ID == 1 {
			foundSelf = true
			if d.Age != 0 {
				t.Fatalf("self descriptor age = %d, want 0", d.Age)
			}
		}
	}
	if !foundSelf {
		t.Fatal("public node did not add itself to the public subset")
	}

	pri := r.node(t, 10, addr.Private, seeds)
	_, v := buildSubsets(pri, 99)
	foundSelf = false
	for _, d := range v {
		if d.ID == 10 {
			foundSelf = true
		}
	}
	if !foundSelf {
		t.Fatal("private node did not add itself to the private subset")
	}
}

func TestBuildSubsetsBoundedAndExcludesPeer(t *testing.T) {
	r := newRig(t)
	var seeds []view.Descriptor
	for i := 2; i <= 11; i++ {
		seeds = append(seeds, pubDesc(i))
	}
	for i := 12; i <= 21; i++ {
		seeds = append(seeds, priDesc(i))
	}
	n := r.node(t, 1, addr.Public, seeds)
	for trial := 0; trial < 50; trial++ {
		pub, pri := buildSubsets(n, 2)
		if len(pub) > n.cfg.Params.ShuffleSize || len(pri) > n.cfg.Params.ShuffleSize {
			t.Fatalf("subset sizes %d/%d exceed shuffle size %d",
				len(pub), len(pri), n.cfg.Params.ShuffleSize)
		}
		for _, d := range pub {
			if d.ID == 2 {
				t.Fatal("peer advertised back to itself")
			}
		}
	}
}

func TestRoundWithEmptyPublicViewIsSafe(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Private, []view.Descriptor{priDesc(2)})
	n.RunRound() // must not panic, nothing to shuffle with
	if n.sentReqs != 0 {
		t.Fatal("node shuffled without any croupier in view")
	}
}

func TestRoundTargetsOldestCroupier(t *testing.T) {
	r := newRig(t)
	old := pubDesc(2)
	old.Age = 9
	fresh := pubDesc(3)
	n := r.node(t, 1, addr.Public, []view.Descriptor{old, fresh})
	n.RunRound()
	if n.pub.Contains(2) {
		t.Fatal("oldest descriptor not removed by tail selection")
	}
	if !n.pub.Contains(3) {
		t.Fatal("fresh descriptor unexpectedly removed")
	}
	if !n.eng.Pending(2) {
		t.Fatal("no pending state recorded for the shuffle target")
	}
}

func TestLateShuffleResIgnored(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Public, []view.Descriptor{pubDesc(2)})
	n.HandlePacket(wire.Packet{Msg: &ShuffleRes{From: pubDesc(7), Pub: []view.Descriptor{pubDesc(8)}}})
	if n.pub.Contains(8) {
		t.Fatal("unsolicited response merged into view")
	}
}

func TestPendingExpiresAfterTTL(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Public, []view.Descriptor{pubDesc(2)})
	n.RunRound()
	if n.eng.PendingLen() != 1 {
		t.Fatalf("pending = %d, want 1", n.eng.PendingLen())
	}
	for i := 0; i <= n.cfg.PendingTTL; i++ {
		n.RunRound()
	}
	if n.eng.PendingLen() != 0 {
		t.Fatalf("pending = %d after TTL, want 0", n.eng.PendingLen())
	}
}

func TestSampleFallsBackAcrossViews(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Public, []view.Descriptor{pubDesc(2)})
	// Force the estimate toward the (empty) private view.
	n.mergeEstimates([]Estimate{{Node: 9, Value: 0.0}})
	for i := 0; i < 20; i++ {
		d, ok := n.Sample()
		if !ok {
			t.Fatal("sample failed with a non-empty public view")
		}
		if d.ID != 2 {
			t.Fatalf("sampled %v, want the only known node", d.ID)
		}
	}
}

func TestSampleFailsWhenBothViewsEmpty(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Public, nil)
	if _, ok := n.Sample(); ok {
		t.Fatal("sample succeeded on an isolated node")
	}
}

func TestTwoNodeExchangeSwapsState(t *testing.T) {
	r := newRig(t)
	a := r.node(t, 1, addr.Public, []view.Descriptor{pubDesc(3), priDesc(4)})
	b := r.node(t, 2, addr.Public, []view.Descriptor{pubDesc(5), priDesc(6)})
	// Point a at b.
	a.pub.Add(view.Descriptor{ID: 2, Endpoint: b.Endpoint(), Nat: addr.Public, Age: 100})
	a.RunRound()
	r.sched.Run()
	// After one round trip a must know b's state and vice versa.
	if !a.pub.Contains(5) && !a.pri.Contains(6) {
		t.Fatal("requester learned nothing from the exchange")
	}
	if !b.pub.Contains(1) {
		t.Fatal("croupier did not learn the requester")
	}
	if _, _, got := a.Stats(); got != 1 {
		t.Fatalf("requester received %d responses, want 1", got)
	}
}

func TestShuffleMessageSizesMatchPaperAccounting(t *testing.T) {
	// 10 estimates cost 50 bytes of estimation payload (paper §VII),
	// plus the one count byte that frames a non-empty estimate section
	// (messages without estimates omit the section entirely).
	req := &ShuffleReq{From: pubDesc(1), Estimates: make([]Estimate, 10)}
	base := &ShuffleReq{From: pubDesc(1)}
	if diff := req.Size() - base.Size(); diff != 51 {
		t.Fatalf("10 estimates add %d bytes, want 50 payload + 1 count", diff)
	}
}

// Property: the estimate store never holds duplicates, never exceeds the
// origins inserted, and ages monotonically.
func TestEstimateStoreInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		s := newEstimateStore(20, intern.NewOrigins())
		rounds := 0
		for _, op := range ops {
			id := addr.NodeID(op % 16)
			switch {
			case op%3 == 0:
				// A round boundary: ages advance implicitly, old
				// entries expire.
				rounds++
				s.expire(rounds)
			default:
				s.mergeFresher(Estimate{Node: id, Value: float64(op) / 255, Age: int(op % 8)}, rounds)
			}
			used, live := 0, 0
			seen := make(map[int32]bool)
			for i, e := range s.slots {
				if e.origin == 0 {
					continue
				}
				used++
				if seen[e.origin] {
					return false
				}
				seen[e.origin] = true
				if at, ok := s.probe(e.origin); !ok || at != i {
					return false
				}
				if !s.liveAt(e) {
					continue // dead slot awaiting rebuild: unobservable
				}
				live++
				if age := s.materialise(e, rounds).Age; age > 20 {
					return false // expired entry observable
				}
			}
			if used != s.used || live != s.len() {
				return false // counters drifted from the table
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: calcHitsRatio is always within [0, 1].
func TestCalcHitsRatioBounds(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Public, nil)
	f := func(us, vs []uint8) bool {
		n.histU = n.histU[:0]
		n.histV = n.histV[:0]
		for _, u := range us {
			n.histU = append(n.histU, int32(u))
		}
		for _, v := range vs {
			n.histV = append(n.histV, int32(v))
		}
		got, ok := n.calcHitsRatio()
		if !ok {
			return true
		}
		return got >= 0 && got <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectRandomPolicyVariesTargets(t *testing.T) {
	r := newRig(t)
	cfgNode := func(sel SelectionPolicy, id addr.NodeID) *Node {
		h, err := r.net.AddPublicHost(id)
		if err != nil {
			t.Fatalf("AddPublicHost: %v", err)
		}
		var n *Node
		sock, err := h.Bind(100, func(p wire.Packet) { n.HandlePacket(p) })
		if err != nil {
			t.Fatalf("Bind: %v", err)
		}
		cfg := DefaultConfig()
		cfg.Selection = sel
		n, err = NewWithTransport(cfg, h.ID(), r.rng(), sock, addr.Public, addr.Endpoint{IP: h.IP(), Port: 100}, nil)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return n
	}

	// Tail always picks the single oldest entry first; random must,
	// over repeated trials, sometimes pick the younger one.
	trials, youngerFirst := 60, 0
	for i := 0; i < trials; i++ {
		n := cfgNode(SelectRandom, addr.NodeID(100+i))
		old := pubDesc(2)
		old.Age = 50
		n.pub.Add(old)
		n.pub.Add(pubDesc(3))
		n.RunRound()
		if n.eng.Pending(3) {
			youngerFirst++
		}
	}
	if youngerFirst == 0 || youngerFirst == trials {
		t.Fatalf("random selection chose the younger node %d/%d times; want a mix", youngerFirst, trials)
	}

	n := cfgNode(SelectTail, 99)
	old := pubDesc(2)
	old.Age = 50
	n.pub.Add(old)
	n.pub.Add(pubDesc(3))
	n.RunRound()
	if !n.eng.Pending(2) {
		t.Fatal("tail selection did not pick the oldest descriptor")
	}
}

// TestHandlerCopiesPooledPayloads is the pooling aliasing regression at
// the protocol level: once a handler returns, its pooled request is
// recycled and refilled by later exchanges — nothing the handler merged
// may alias the recycled buffers.
func TestHandlerCopiesPooledPayloads(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, addr.Public, nil)
	var pool exchange.Pool
	req := pool.NewReq()
	req.From = priDesc(9)
	req.Pub = append(req.Pub, pubDesc(2))
	req.Pri = append(req.Pri, priDesc(3))
	req.Estimates = append(req.Estimates, Estimate{Node: 7, Value: 0.25, Age: 1})
	n.handleShuffleReq(addr.Endpoint{IP: 9, Port: 9}, req)
	req.Release() // what the network does after the handler

	// Recycle the message and scribble a new exchange over the same
	// backing arrays.
	req2 := pool.NewReq()
	req2.Pub = append(req2.Pub, pubDesc(77))
	req2.Pri = append(req2.Pri, priDesc(78))
	req2.Estimates = append(req2.Estimates, Estimate{Node: 77, Value: 0.99})

	if !n.pub.Contains(2) || !n.pri.Contains(3) {
		t.Fatal("handler lost the merged descriptors")
	}
	if n.pub.Contains(77) || n.pri.Contains(78) {
		t.Fatal("view aliases a recycled message buffer")
	}
	es := n.CachedEstimates()
	if len(es) != 1 || es[0].Node != 7 || es[0].Value != 0.25 {
		t.Fatalf("estimates = %v, want the originally merged {n7 0.25}", es)
	}
}

func TestMergeHealerPolicyReplacesOldest(t *testing.T) {
	r := newRig(t)
	h, _ := r.net.AddPublicHost(1)
	var n *Node
	sock, _ := h.Bind(100, func(p wire.Packet) { n.HandlePacket(p) })
	cfg := DefaultConfig()
	cfg.Params.ViewSize = 2
	cfg.Params.ShuffleSize = 2
	cfg.Merge = MergeHealer
	n, err := NewWithTransport(cfg, h.ID(), r.rng(), sock, addr.Public, addr.Endpoint{IP: h.IP(), Port: 100}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stale := pubDesc(2)
	stale.Age = 30
	n.pub.Add(stale)
	n.pub.Add(pubDesc(3))
	// A fresh descriptor for an unknown node must displace the stale
	// entry even though nothing was "sent" (healer ignores sent state).
	n.mergeView(&n.pub, nil, []view.Descriptor{pubDesc(4)})
	if n.pub.Contains(2) {
		t.Fatal("healer kept the stale descriptor")
	}
	if !n.pub.Contains(4) {
		t.Fatal("healer dropped the fresh descriptor")
	}
}

// TestExchangeInvariantsHoldOverSimulatedRounds arms the exchange
// engine's PeerSwap-style debug checks (no self-swap, atomic
// merge-from-recorded-exchange) on a whole simulated deployment and
// runs many full gossip rounds: any violation panics the single
// simulation goroutine and fails the test. This is the round-level
// exercise of croupier.Config.CheckExchangeInvariants.
func TestExchangeInvariantsHoldOverSimulatedRounds(t *testing.T) {
	r := newRig(t)
	cfg := DefaultConfig()
	cfg.CheckExchangeInvariants = true
	nodes := make([]*Node, 0, 8)
	seeds := []view.Descriptor{}
	for id := 1; id <= 8; id++ {
		natType := addr.Public
		if id > 4 {
			natType = addr.Private
		}
		h, err := r.net.AddPublicHost(addr.NodeID(id))
		if err != nil {
			t.Fatalf("AddPublicHost: %v", err)
		}
		var n *Node
		sock, err := h.Bind(100, func(p wire.Packet) { n.HandlePacket(p) })
		if err != nil {
			t.Fatalf("Bind: %v", err)
		}
		n, err = NewWithTransport(cfg, h.ID(), r.rng(), sock, natType, addr.Endpoint{IP: h.IP(), Port: 100}, seeds)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		seeds = append(seeds, view.Descriptor{ID: n.self, Endpoint: n.ep, Nat: natType})
		nodes = append(nodes, n)
	}
	for round := 0; round < 50; round++ {
		for _, n := range nodes {
			n.RunRound()
		}
		r.sched.Run()
	}
	merged := false
	for _, n := range nodes {
		if _, _, res := n.Stats(); res > 0 {
			merged = true
		}
	}
	if !merged {
		t.Fatal("no exchange completed; the invariant checks were never exercised on a merge")
	}
}

// sinkTransport discards sends; rounds driven against it exercise the
// full round body without a network.
type sinkTransport struct{}

func (sinkTransport) Send(addr.Endpoint, wire.Message) {}

// TestCompactOriginsBoundsInterner drives a deployment-configured node
// through a churning origin population: five never-before-seen origins
// merge per round, so an append-only interner would grow with every
// identity ever gossiped. With the compaction knob on, epochs must run,
// the interner must stay near the live estimate set, and — the part
// that breaks if remapping is wrong — every cached estimate must still
// resolve to its own origin identity afterwards.
func TestCompactOriginsBoundsInterner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CompactOriginsEvery = 8
	n, err := NewWithTransport(cfg, 1, sim.NewRand(1), sinkTransport{}, addr.Private, addr.Endpoint{}, nil)
	if err != nil {
		t.Fatalf("NewWithTransport: %v", err)
	}
	valueFor := func(id addr.NodeID) float64 { return float64(id%97) / 97 }
	next := addr.NodeID(100)
	distinct := 0
	for round := 0; round < 1000; round++ {
		n.RunRound()
		for j := 0; j < 5; j++ {
			n.mergeEstimates([]Estimate{{Node: next, Value: valueFor(next), Age: 0}})
			next++
			distinct++
		}
	}
	if n.OriginEpochs() == 0 {
		t.Fatal("no compaction epoch ran under churn")
	}
	// Live estimates are bounded by γ×5; the interner may run ahead of
	// that between epochs (hysteresis allows 2× live plus one period's
	// growth) but must stay far below the distinct-origin total.
	bound := 3*cfg.NeighbourHistory*5 + 8*5
	if got := n.OriginsLen(); got > bound {
		t.Fatalf("interner holds %d identities after %d distinct origins, want ≤ %d", got, distinct, bound)
	}
	es := n.CachedEstimates()
	if len(es) == 0 {
		t.Fatal("no live estimates survived")
	}
	for _, e := range es {
		if e.Node < 100 || e.Node >= next {
			t.Fatalf("estimate origin %v outside the merged identity range", e.Node)
		}
		if e.Value != valueFor(e.Node) {
			t.Fatalf("origin %v carries value %v, want %v: compaction remapped references incorrectly", e.Node, e.Value, valueFor(e.Node))
		}
	}
}

// TestCompactOriginsOffGrowsUnbounded pins the contrast: without the
// knob the interner is append-only, which is exactly what simulations
// (shared interner, bounded population) rely on.
func TestCompactOriginsOffGrowsUnbounded(t *testing.T) {
	n, err := NewWithTransport(DefaultConfig(), 1, sim.NewRand(1), sinkTransport{}, addr.Private, addr.Endpoint{}, nil)
	if err != nil {
		t.Fatalf("NewWithTransport: %v", err)
	}
	next := addr.NodeID(100)
	for round := 0; round < 200; round++ {
		n.RunRound()
		for j := 0; j < 5; j++ {
			n.mergeEstimates([]Estimate{{Node: next, Value: 0.5, Age: 0}})
			next++
		}
	}
	if got := n.OriginsLen(); got != 1000 {
		t.Fatalf("append-only interner holds %d identities, want all 1000", got)
	}
	if n.OriginEpochs() != 0 {
		t.Fatal("compaction ran with the knob off")
	}
}

// refStore is the estimate store as it was before rebuilds went in
// place: ensureSpace re-inserts the live entries into a second, spare
// table and swaps the two. It is the layout reference for the one-table
// rebuild, so only the paths that rebuild are re-stated here.
type refStore struct {
	estimateStore
	spare []storedEstimate
}

func (s *refStore) ensureSpace() {
	if (s.used+1)*4 <= len(s.slots)*3 {
		return
	}
	n := 16
	for (s.live+1)*4 > n*3 {
		n *= 2
	}
	old := s.slots
	if cap(s.spare) >= n {
		s.slots = s.spare[:n]
		clear(s.slots)
	} else {
		s.slots = make([]storedEstimate, n)
	}
	s.spare = old[:0]
	mask := uint64(n - 1)
	s.used = 0
	for _, e := range old {
		if e.origin == 0 || !s.liveAt(e) {
			continue
		}
		h := estHash(e.origin)
		for s.slots[h&mask].origin != 0 {
			h++
		}
		s.slots[h&mask] = e
		s.used++
	}
}

func (s *refStore) mergeFresher(e Estimate, rounds int) {
	ref := s.origins.Ref(e.Node)
	if len(s.slots) != 0 {
		if i, ok := s.probe(ref); ok {
			if old := s.slots[i]; !s.liveAt(old) || int32(rounds-e.Age) > old.birth {
				s.replace(i, ref, e, rounds)
			}
			return
		}
	}
	s.ensureSpace()
	s.insert(ref, e, rounds)
}

func (s *refStore) expire(rounds int) {
	for s.round < rounds {
		s.round++
		c := s.cohortPtr(s.round - s.maxAge - 1)
		s.live -= int(*c)
		*c = 0
	}
	if s.used >= 32 && s.used > 2*s.live {
		s.used = len(s.slots) // force the rebuild path
		s.ensureSpace()
	}
}

func (s *refStore) compactOrigins() {
	s.remap = make([]int32, s.origins.Len()+1)
	for _, e := range s.slots {
		if e.origin != 0 && s.liveAt(e) {
			s.remap[e.origin] = 1
		}
	}
	s.origins.Compact(
		func(ref int32) bool { return s.remap[ref] != 0 },
		func(old, new int32) { s.remap[old] = new },
	)
	if len(s.slots) == 0 {
		return
	}
	for i := range s.slots {
		if r := s.slots[i].origin; r != 0 {
			s.slots[i].origin = s.remap[r]
		}
	}
	s.used = len(s.slots) // force the rebuild path
	s.ensureSpace()
}

// TestRebuildKeepsReferenceLayout drives the one-table store and the
// two-table reference through the same random operations — merges over
// 64 origins with ages 0–γ, round boundaries (single, and jumps past γ
// that leave enough dead slots to trigger reclamation) and interner
// compactions — and requires identical tables, counters and piggyback
// draws after every step: the in-place rebuild is a layout-only change.
func TestRebuildKeepsReferenceLayout(t *testing.T) {
	const gamma = 8
	f := func(ops [400]uint16, seed int64) bool {
		got := newEstimateStore(gamma, intern.NewOrigins())
		want := &refStore{estimateStore: *newEstimateStore(gamma, intern.NewOrigins())}
		rounds := 0
		for _, op := range ops {
			switch op % 64 {
			case 0, 1, 2, 3, 4, 5, 6, 7:
				rounds++
				got.expire(rounds)
				want.expire(rounds)
			case 8:
				rounds += gamma + 1
				got.expire(rounds)
				want.expire(rounds)
			case 9:
				got.compactOrigins()
				want.compactOrigins()
			default:
				e := Estimate{Node: addr.NodeID(1 + op>>6%64), Value: float64(op) / 65536, Age: int(op>>12) % (gamma + 1)}
				got.mergeFresher(e, rounds)
				want.mergeFresher(e, rounds)
			}
			if !slices.Equal(got.slots, want.slots) || got.used != want.used || got.live != want.live {
				return false
			}
			a := got.appendRandomSubset(rand.New(rand.NewSource(seed)), 5, nil, rounds)
			b := want.appendRandomSubset(rand.New(rand.NewSource(seed)), 5, nil, rounds)
			if !slices.Equal(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateStoreRebuildAllocs pins the point of the in-place
// rebuild: once a store's table has grown to its steady size, a rebuild
// reuses it (and the pooled scratch) and allocates nothing.
func TestEstimateStoreRebuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s := newEstimateStore(50, intern.NewOrigins())
	for id := addr.NodeID(1); id <= 800; id++ {
		s.mergeFresher(Estimate{Node: id, Value: 0.5}, 0)
	}
	size := len(s.slots)
	allocs := testing.AllocsPerRun(100, s.rebuild)
	if len(s.slots) != size || s.len() != 800 || s.used != 800 {
		t.Fatalf("rebuild changed the store: %d slots (was %d), %d live, %d used", len(s.slots), size, s.len(), s.used)
	}
	if allocs != 0 {
		t.Fatalf("same-size rebuild of an 800-entry store allocates %.1f objects, want 0", allocs)
	}
}

// TestEstimateStoreStaysCompact pins the store header. One store is
// embedded in every croupier node, and its table is the largest thing a
// node owns: a second table (a rebuild spare) doubled the store's
// memory at 20k nodes, and would show up here as a 24-byte slice header.
func TestEstimateStoreStaysCompact(t *testing.T) {
	const maxHeader = 136
	if got := unsafe.Sizeof(estimateStore{}); got > maxHeader {
		t.Fatalf("estimateStore is %d bytes, budget is %d — rebuild in place instead of keeping another table", got, maxHeader)
	}
}

// TestConcurrentRebuildsKeepLayout rebuilds stores on several goroutines
// at once, as a sharded kernel does, through the process-wide rebuild
// scratch: under -race this fails if that scratch is shared without
// synchronisation, and every store must still end with the layout a
// lone store reaches.
func TestConcurrentRebuildsKeepLayout(t *testing.T) {
	fill := func(s *estimateStore) {
		for r := 1; r <= 40; r++ {
			for id := addr.NodeID(1); id <= 200; id += addr.NodeID(1 + r%3) {
				s.mergeFresher(Estimate{Node: id, Value: float64(id) / 200, Age: r % 5}, r)
			}
			s.expire(r)
		}
		s.rebuild()
	}
	want := newEstimateStore(8, intern.NewOrigins())
	fill(want)
	stores := make([]*estimateStore, 4)
	var wg sync.WaitGroup
	for i := range stores {
		stores[i] = newEstimateStore(8, intern.NewOrigins())
		wg.Add(1)
		go func(s *estimateStore) {
			defer wg.Done()
			fill(s)
		}(stores[i])
	}
	wg.Wait()
	for i, s := range stores {
		if !slices.Equal(s.slots, want.slots) || s.used != want.used || s.live != want.live {
			t.Fatalf("store %d rebuilt on its own goroutine has a different layout", i)
		}
	}
}
