package nylon

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/addr"
	"repro/internal/exchange"
	"repro/internal/latency"
	"repro/internal/nat"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/view"
	"repro/internal/wire"
)

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

func (r *rig) pubNode(t *testing.T, id addr.NodeID, seeds []view.Descriptor) *Node {
	t.Helper()
	h, err := r.net.AddPublicHost(id)
	if err != nil {
		t.Fatalf("AddPublicHost: %v", err)
	}
	return r.attach(t, h, addr.Public, seeds)
}

func (r *rig) priNode(t *testing.T, id addr.NodeID, seeds []view.Descriptor) *Node {
	t.Helper()
	h, err := r.net.AddPrivateHost(id, nat.DefaultConfig(0))
	if err != nil {
		t.Fatalf("AddPrivateHost: %v", err)
	}
	return r.attach(t, h, addr.Private, seeds)
}

func (r *rig) attach(t *testing.T, h *simnet.Host, natType addr.NatType, seeds []view.Descriptor) *Node {
	t.Helper()
	var n *Node
	sock, err := h.Bind(100, func(p wire.Packet) { n.HandlePacket(p) })
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	ep := addr.Endpoint{IP: h.IP(), Port: 100}
	if gw := h.Gateway(); gw != nil {
		ep = addr.Endpoint{IP: gw.PublicIP(), Port: 100}
	}
	n, err = New(DefaultConfig(), h.ID(), r.rng(), sock, natType, ep, seeds)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func descOf(n *Node) view.Descriptor { return n.SelfDescriptor() }

// idlePolicy advances an engine round with full upkeep (aging, expiry,
// keep-alives) but never initiates a shuffle — for tests that need a
// node to sit idle while its timers run.
type idlePolicy struct{ n *Node }

func (p idlePolicy) PrepareRound(expired int)                 { (*policy)(p.n).PrepareRound(expired) }
func (p idlePolicy) SelectPeer() (view.Descriptor, bool)      { return view.Descriptor{}, false }
func (p idlePolicy) FillRequest(view.Descriptor, *ShuffleReq) {}
func (p idlePolicy) Deliver(view.Descriptor, *ShuffleReq) exchange.Delivery {
	return exchange.Failed
}
func (p idlePolicy) MergeResponse(*ShuffleRes, []view.Descriptor, []view.Descriptor) {}

// idleRound runs one upkeep-only round.
func idleRound(n *Node) { n.Eng.RunRound(idlePolicy{n}) }

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cfg.MaxHops = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted zero max hops")
	}
	cfg = DefaultConfig()
	cfg.RVPTTL = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted zero RVP TTL")
	}
}

func TestDirectExchangeCreatesRVPs(t *testing.T) {
	r := newRig(t)
	a := r.pubNode(t, 1, nil)
	b := r.pubNode(t, 2, nil)
	a.View.Add(descOf(b))

	a.RunRound()
	r.sched.Run()

	if a.RVPCount() != 1 {
		t.Fatalf("requester RVP count = %d, want 1", a.RVPCount())
	}
	if b.RVPCount() != 1 {
		t.Fatalf("responder RVP count = %d, want 1", b.RVPCount())
	}
}

func TestHolePunchThroughOneHop(t *testing.T) {
	// priv exchanged with hub (public). A second node learns priv's
	// descriptor from hub and must reach priv via punch-through-chain.
	r := newRig(t)
	hub := r.pubNode(t, 1, nil)
	priv := r.priNode(t, 2, []view.Descriptor{descOf(hub)})

	priv.RunRound() // priv <-> hub exchange; both become RVPs
	r.sched.Run()
	if hub.RVPCount() == 0 {
		t.Fatal("hub has no RVP after direct exchange")
	}

	requester := r.pubNode(t, 3, nil)
	// Learn priv's descriptor "from hub": via = hub.
	d := descOf(priv)
	d.Ext = &view.Ext{Via: hub.ID(), ViaEndpoint: hub.SelfDescriptor().Endpoint}
	requester.View.Add(d)

	requester.RunRound()
	r.sched.Run()

	if !priv.View.Contains(3) {
		t.Fatal("private target never received the shuffle")
	}
	if !requester.View.Contains(2) && requester.FailedShuffles() > 0 {
		t.Fatal("requester's punched shuffle failed")
	}
	if requester.RVPCount() == 0 {
		t.Fatal("requester did not become the private node's RVP after exchange")
	}
	if hub.RelayedMessages() == 0 {
		t.Fatal("hub relayed no chain messages")
	}
}

func TestPrivateToPrivateHolePunch(t *testing.T) {
	r := newRig(t)
	hub := r.pubNode(t, 1, nil)
	a := r.priNode(t, 2, []view.Descriptor{descOf(hub)})
	b := r.priNode(t, 3, []view.Descriptor{descOf(hub)})

	a.RunRound() // a <-> hub
	b.RunRound() // b <-> hub
	r.sched.Run()

	// Give b view content to hand back in its response.
	extra := view.Descriptor{ID: 50, Endpoint: addr.Endpoint{IP: 50, Port: 100}, Nat: addr.Public}
	b.View.Add(extra)

	// a learns b via hub.
	d := descOf(b)
	d.Ext = &view.Ext{Via: hub.ID(), ViaEndpoint: hub.SelfDescriptor().Endpoint}
	a.View.Add(d)
	// Ensure b's descriptor is the oldest so it gets selected.
	for _, x := range a.View.Descriptors() {
		if x.ID != b.ID() {
			a.View.Remove(x.ID)
		}
	}

	a.RunRound()
	r.sched.Run()

	if !b.View.Contains(2) {
		t.Fatal("private-to-private exchange did not reach the target")
	}
	// The response completed over the punched hole: a merged b's
	// payload and both sides became RVPs.
	if !a.View.Contains(50) {
		t.Fatal("private requester got no response over the punched hole")
	}
	if a.RVPCount() == 0 || b.RVPCount() == 0 {
		t.Fatal("punched exchange did not establish the RVP relationship")
	}
}

func TestShuffleFailsWithoutRoute(t *testing.T) {
	r := newRig(t)
	orphan := view.Descriptor{ID: 99, Endpoint: addr.Endpoint{IP: 9, Port: 9}, Nat: addr.Private}
	n := r.pubNode(t, 1, []view.Descriptor{orphan})
	n.RunRound()
	r.sched.Run()
	if n.FailedShuffles() != 1 {
		t.Fatalf("failed shuffles = %d, want 1", n.FailedShuffles())
	}
}

func TestPunchTimesOutThroughBrokenChain(t *testing.T) {
	r := newRig(t)
	hub := r.pubNode(t, 1, nil)
	priv := r.priNode(t, 2, []view.Descriptor{descOf(hub)})
	priv.RunRound()
	r.sched.Run()

	requester := r.pubNode(t, 3, nil)
	d := descOf(priv)
	d.Ext = &view.Ext{Via: hub.ID(), ViaEndpoint: hub.SelfDescriptor().Endpoint}
	requester.View.Add(d)

	r.net.Remove(1) // the chain hop dies
	requester.RunRound()
	r.sched.Run()
	// Run enough rounds for the pending punch to expire.
	for i := 0; i <= requester.cfg.PendingTTL+1; i++ {
		requester.RunRound()
		r.sched.Run()
	}
	if requester.FailedShuffles() == 0 {
		t.Fatal("broken chain did not surface as a failed shuffle")
	}
}

func TestHopLimitStopsRoutingLoops(t *testing.T) {
	r := newRig(t)
	a := r.pubNode(t, 1, nil)
	b := r.pubNode(t, 2, nil)
	// Adversarial routing state: a and b point at each other for an
	// unreachable target.
	a.setRoute(99, 2, b.SelfDescriptor().Endpoint)
	b.setRoute(99, 1, a.SelfDescriptor().Endpoint)

	a.handleHolePunchReq(b.SelfDescriptor().Endpoint, &HolePunchReq{Origin: 5, OriginEP: addr.Endpoint{IP: 9, Port: 9}, Target: 99, Hops: 0})
	r.sched.Run()
	total := a.RelayedMessages() + b.RelayedMessages()
	if total > uint64(a.cfg.MaxHops)+1 {
		t.Fatalf("%d relays for a looping route, want ≤ MaxHops", total)
	}
}

func TestKeepAliveRefreshesRVP(t *testing.T) {
	r := newRig(t)
	a := r.pubNode(t, 1, nil)
	b := r.pubNode(t, 2, nil)
	a.View.Add(descOf(b))
	a.RunRound()
	r.sched.Run()

	// Idle past the TTL but with keep-alives flowing: RVPs survive.
	for i := 0; i < a.cfg.RVPTTL*2; i++ {
		idleRound(a)
		idleRound(b)
		r.sched.Run()
	}
	if a.RVPCount() != 1 || b.RVPCount() != 1 {
		t.Fatalf("RVPs lost despite keep-alives: a=%d b=%d", a.RVPCount(), b.RVPCount())
	}
}

func TestRVPExpiresWithoutKeepAlive(t *testing.T) {
	r := newRig(t)
	a := r.pubNode(t, 1, nil)
	b := r.pubNode(t, 2, nil)
	a.View.Add(descOf(b))
	a.RunRound()
	r.sched.Run()
	if a.RVPCount() != 1 {
		t.Fatalf("RVP count = %d, want 1", a.RVPCount())
	}
	// Idle without ever delivering the keep-alives (the scheduler is
	// not run), so no ack can refresh the relationship.
	for i := 0; i <= a.cfg.RVPTTL+1; i++ {
		idleRound(a)
	}
	if a.RVPCount() != 0 {
		t.Fatal("RVP survived past TTL without refresh")
	}
}

func TestLearnRoutesStampsVia(t *testing.T) {
	r := newRig(t)
	n := r.pubNode(t, 1, nil)
	privDesc := view.Descriptor{ID: 7, Endpoint: addr.Endpoint{IP: 9, Port: 9}, Nat: addr.Private}
	partnerEP := addr.Endpoint{IP: 8, Port: 8}
	out := n.learnRoutes([]view.Descriptor{privDesc}, 5, partnerEP)
	if out[0].Via() != 5 || out[0].ViaEndpoint() != partnerEP {
		t.Fatalf("descriptor via = %v/%v, want partner 5", out[0].Via(), out[0].ViaEndpoint())
	}
	rt, ok := n.routes[7]
	if !ok || rt.nextHop != 5 {
		t.Fatal("routing table not updated from received descriptor")
	}
}

func TestDirectRoutePreferredOverChain(t *testing.T) {
	r := newRig(t)
	n := r.pubNode(t, 1, nil)
	// A direct route (nextHop == target) must not be overwritten by a
	// learned chain hop.
	n.setRoute(7, 7, addr.Endpoint{IP: 7, Port: 7})
	privDesc := view.Descriptor{ID: 7, Endpoint: addr.Endpoint{IP: 9, Port: 9}, Nat: addr.Private}
	n.learnRoutes([]view.Descriptor{privDesc}, 5, addr.Endpoint{IP: 8, Port: 8})
	if n.routes[7].nextHop != 7 {
		t.Fatal("direct route displaced by chain hop")
	}
}

// TestMaxRVPsEvictsLeastRecentlyRefreshed pins the config-gated RVP
// bound: past MaxRVPs relationships, the one with the stalest
// lastRefresh is evicted (ties to the smaller ID), and the peer that
// just refreshed is never the victim.
func TestMaxRVPsEvictsLeastRecentlyRefreshed(t *testing.T) {
	r := newRig(t)
	h, err := r.net.AddPublicHost(1)
	if err != nil {
		t.Fatalf("AddPublicHost: %v", err)
	}
	var n *Node
	sock, err := h.Bind(100, func(p wire.Packet) { n.HandlePacket(p) })
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	cfg := DefaultConfig()
	cfg.MaxRVPs = 3
	n, err = New(cfg, h.ID(), r.rng(), sock, addr.Public, addr.Endpoint{IP: h.IP(), Port: 100}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ep := func(i int) addr.Endpoint {
		return addr.Endpoint{IP: addr.MakeIP(9, 0, 0, byte(i)), Port: 100}
	}
	for i := 2; i <= 5; i++ {
		n.becomeRVPs(addr.NodeID(i), ep(i))
	}
	// All four inserted at the same round: ties break towards the
	// smallest ID, so 2 was evicted when 5 arrived.
	if n.RVPCount() != 3 {
		t.Fatalf("RVPCount = %d, want 3", n.RVPCount())
	}
	if _, ok := n.rvps[2]; ok {
		t.Fatal("RVP 2 should have been evicted (LRU, smallest-ID tie-break)")
	}
	// Refresh 3, then add another: 4 is now the stalest of the
	// evictable set... all have equal lastRefresh, so the smallest
	// non-refreshed ID (4) goes.
	n.rvps[3].lastRefresh = 7
	n.becomeRVPs(6, ep(6))
	if _, ok := n.rvps[4]; ok {
		t.Fatal("RVP 4 should have been evicted")
	}
	if _, ok := n.rvps[3]; !ok {
		t.Fatal("recently refreshed RVP 3 must survive")
	}
	if _, ok := n.rvps[6]; !ok {
		t.Fatal("the just-established RVP 6 must survive")
	}
}

// TestUnboundedRVPsIsDefault pins the paper-faithful default: with
// MaxRVPs zero, the mesh grows without bound.
func TestUnboundedRVPsIsDefault(t *testing.T) {
	r := newRig(t)
	n := r.pubNode(t, 1, nil)
	for i := 2; i < 60; i++ {
		n.becomeRVPs(addr.NodeID(i), addr.Endpoint{IP: addr.MakeIP(9, 0, 0, byte(i)), Port: 100})
	}
	if n.RVPCount() != 58 {
		t.Fatalf("RVPCount = %d, want 58 (unbounded by default)", n.RVPCount())
	}
}

// TestViaSemanticsSurviveDescriptorSplit is the equivalence test for
// the compact-descriptor refactor: via state now lives in a shared
// view.Ext instead of inline fields, and the RVP-chain mechanics must
// be unchanged. One learnRoutes call stamps every private descriptor
// of the batch with one shared extension, the stamped via survives the
// swapper merge into the view, and nextHopFor can still follow it once
// the routing-table entry has expired — the fallback that keeps long
// chains followable.
func TestViaSemanticsSurviveDescriptorSplit(t *testing.T) {
	r := newRig(t)
	n := r.pubNode(t, 1, nil)
	partnerEP := addr.Endpoint{IP: 8, Port: 8}
	batch := []view.Descriptor{
		{ID: 7, Endpoint: addr.Endpoint{IP: 9, Port: 9}, Nat: addr.Private},
		{ID: 11, Endpoint: addr.Endpoint{IP: 9, Port: 10}, Nat: addr.Private},
		{ID: 12, Endpoint: addr.Endpoint{IP: 9, Port: 11}, Nat: addr.Public},
	}
	out := n.learnRoutes(batch, 5, partnerEP)
	if out[0].Ext == nil || out[0].Ext != out[1].Ext {
		t.Fatal("private descriptors of one exchange must share one stamped extension")
	}
	if out[2].Ext != nil {
		t.Fatal("public descriptor was stamped with a via extension")
	}
	n.View.Merge(nil, out)

	// Expire the routing-table entries so only the merged descriptor's
	// via is left to route by.
	for i := 0; i < n.cfg.RouteTTL+1; i++ {
		idleRound(n)
	}
	if hop, ok := n.nextHopFor(view.Descriptor{ID: 7}); ok {
		t.Fatalf("route survived past TTL (next hop %v); fallback not exercised", hop)
	}
	d, ok := n.View.Get(7)
	if !ok {
		t.Fatal("merged private descriptor aged out unexpectedly")
	}
	hop, ok := n.nextHopFor(d)
	if !ok || hop != partnerEP {
		t.Fatalf("nextHopFor via fallback = %v,%v, want %v", hop, ok, partnerEP)
	}
}

// TestRestampReplacesSharedExt pins the aliasing contract of the
// split: re-learning a descriptor from a new partner must attach a
// fresh extension rather than writing through the received one, which
// copies in other views and in-flight payloads may share.
func TestRestampReplacesSharedExt(t *testing.T) {
	r := newRig(t)
	n := r.pubNode(t, 1, nil)
	orig := &view.Ext{Via: 5, ViaEndpoint: addr.Endpoint{IP: 8, Port: 8}}
	batch := []view.Descriptor{{ID: 7, Endpoint: addr.Endpoint{IP: 9, Port: 9}, Nat: addr.Private, Ext: orig}}
	out := n.learnRoutes(batch, 6, addr.Endpoint{IP: 10, Port: 10})
	if out[0].Ext == orig {
		t.Fatal("learnRoutes mutated the received shared extension in place")
	}
	if orig.Via != 5 {
		t.Fatalf("shared extension corrupted: via = %v, want 5", orig.Via)
	}
	if out[0].Via() != 6 {
		t.Fatalf("restamped via = %v, want new partner 6", out[0].Via())
	}
}

// TestRVPEvents pins the rendezvous lifecycle hook: a completed direct
// exchange fires (peer, established=true) on both ends, keep-alive
// refreshes stay silent, and TTL expiry fires (peer, false).
func TestRVPEvents(t *testing.T) {
	r := newRig(t)
	a := r.pubNode(t, 1, nil)
	b := r.pubNode(t, 2, nil)
	a.View.Add(descOf(b))

	type ev struct {
		peer        addr.NodeID
		established bool
	}
	var aEvents, bEvents []ev
	a.SetRVPEvents(func(peer addr.NodeID, established bool) {
		aEvents = append(aEvents, ev{peer, established})
	})
	b.SetRVPEvents(func(peer addr.NodeID, established bool) {
		bEvents = append(bEvents, ev{peer, established})
	})

	a.RunRound()
	r.sched.Run()
	if len(aEvents) != 1 || aEvents[0] != (ev{2, true}) {
		t.Fatalf("requester events = %v, want [(2,true)]", aEvents)
	}
	if len(bEvents) != 1 || bEvents[0] != (ev{1, true}) {
		t.Fatalf("responder events = %v, want [(1,true)]", bEvents)
	}

	// Keep-alive refreshes keep the RVP alive without re-firing.
	for i := 0; i < a.cfg.RVPTTL*2; i++ {
		idleRound(a)
		idleRound(b)
		r.sched.Run()
	}
	if len(aEvents) != 1 || len(bEvents) != 1 {
		t.Fatalf("refresh rounds fired events: a=%v b=%v", aEvents, bEvents)
	}

	// Idle without delivering keep-alives (scheduler never runs): the
	// TTL sweep tears the relationship down with a (peer, false) event.
	for i := 0; i <= a.cfg.RVPTTL+1; i++ {
		idleRound(a)
	}
	if len(aEvents) != 2 || aEvents[1] != (ev{2, false}) {
		t.Fatalf("expiry events = %v, want [(2,true) (2,false)]", aEvents)
	}
}

// TestRVPEventsOnCapacityEviction pins the hook on the MaxRVPs bound:
// the evicted victim fires (victim, false) and the newcomer that pushed
// it out fires (newcomer, true).
func TestRVPEventsOnCapacityEviction(t *testing.T) {
	r := newRig(t)
	h, err := r.net.AddPublicHost(1)
	if err != nil {
		t.Fatalf("AddPublicHost: %v", err)
	}
	var n *Node
	sock, err := h.Bind(100, func(p wire.Packet) { n.HandlePacket(p) })
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	cfg := DefaultConfig()
	cfg.MaxRVPs = 2
	n, err = New(cfg, h.ID(), r.rng(), sock, addr.Public, addr.Endpoint{IP: h.IP(), Port: 100}, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	type ev struct {
		peer        addr.NodeID
		established bool
	}
	var events []ev
	n.SetRVPEvents(func(peer addr.NodeID, established bool) {
		events = append(events, ev{peer, established})
	})
	ep := func(i int) addr.Endpoint {
		return addr.Endpoint{IP: addr.MakeIP(9, 0, 0, byte(i)), Port: 100}
	}
	n.becomeRVPs(2, ep(2))
	n.becomeRVPs(3, ep(3))
	if len(events) != 2 || events[0] != (ev{2, true}) || events[1] != (ev{3, true}) {
		t.Fatalf("fill events = %v, want [(2,true) (3,true)]", events)
	}
	// 4 arrives at capacity: 2 (stalest, smallest-ID tie-break) goes.
	n.becomeRVPs(4, ep(4))
	if len(events) != 4 {
		t.Fatalf("eviction events = %v, want two more", events)
	}
	saw := map[ev]bool{events[2]: true, events[3]: true}
	if !saw[ev{2, false}] || !saw[ev{4, true}] {
		t.Fatalf("eviction events = %v, want (2,false) and (4,true)", events[2:])
	}
	if _, ok := n.rvps[2]; ok {
		t.Fatal("victim 2 still present after eviction")
	}
}

// refBook is the RVP and route bookkeeping Node kept before expiry
// became heap-timed: pointer records in maps, a sorted sweep of the
// whole RVP table and of the whole route table every round, keep-alive
// targets sorted per burst, and eviction by a scan of the map. It stays
// as a test-only oracle: TestBookkeepingMatchesReference drives it and
// Node side by side.
type refBook struct {
	cfg    Config
	round  int
	rvps   map[addr.NodeID]*refRVP
	routes map[addr.NodeID]*route
	events []rvpEvent
}

type refRVP struct {
	endpoint    addr.Endpoint
	lastRefresh int
}

type rvpEvent struct {
	peer        addr.NodeID
	established bool
}

func newRefBook(cfg Config) *refBook {
	return &refBook{cfg: cfg, rvps: map[addr.NodeID]*refRVP{}, routes: map[addr.NodeID]*route{}}
}

func (b *refBook) sortedRVPs() []addr.NodeID {
	ids := make([]addr.NodeID, 0, len(b.rvps))
	for id := range b.rvps {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// advance is one round's expiry sweep.
func (b *refBook) advance() {
	b.round++
	var dead []addr.NodeID
	for id, r := range b.rvps {
		if b.round-r.lastRefresh > b.cfg.RVPTTL {
			dead = append(dead, id)
		}
	}
	slices.Sort(dead)
	for _, id := range dead {
		delete(b.rvps, id)
		b.events = append(b.events, rvpEvent{id, false})
	}
	for id, r := range b.routes {
		if b.round-r.updated > b.cfg.RouteTTL {
			delete(b.routes, id)
		}
	}
}

func (b *refBook) setRoute(id, nextHop addr.NodeID, ep addr.Endpoint) {
	b.routes[id] = &route{nextHop: nextHop, nextHopEP: ep, updated: b.round}
}

func (b *refBook) become(id addr.NodeID, ep addr.Endpoint) {
	r, ok := b.rvps[id]
	if !ok {
		r = &refRVP{}
		b.rvps[id] = r
		b.events = append(b.events, rvpEvent{id, true})
	}
	r.endpoint, r.lastRefresh = ep, b.round
	b.setRoute(id, id, ep)
	if b.cfg.MaxRVPs > 0 && len(b.rvps) > b.cfg.MaxRVPs {
		var victim addr.NodeID
		found := false
		for id2, r2 := range b.rvps {
			if id2 == id {
				continue
			}
			if !found {
				victim, found = id2, true
				continue
			}
			v := b.rvps[victim]
			if r2.lastRefresh < v.lastRefresh || (r2.lastRefresh == v.lastRefresh && id2 < victim) {
				victim = id2
			}
		}
		if found {
			delete(b.rvps, victim)
			b.events = append(b.events, rvpEvent{victim, false})
		}
	}
}

func (b *refBook) keepAlive(from addr.NodeID, ep addr.Endpoint) {
	if r, ok := b.rvps[from]; ok {
		r.lastRefresh, r.endpoint = b.round, ep
	}
}

func (b *refBook) ack(from addr.NodeID) {
	if r, ok := b.rvps[from]; ok {
		r.lastRefresh = b.round
	}
}

func (b *refBook) learn(self addr.NodeID, descs []view.Descriptor, partner addr.NodeID, ep addr.Endpoint) {
	for _, d := range descs {
		if d.Nat == addr.Private && d.ID != self {
			if cur, ok := b.routes[d.ID]; !ok || cur.nextHop != d.ID {
				b.setRoute(d.ID, partner, ep)
			}
		}
	}
}

func (b *refBook) nextHop(id addr.NodeID) (addr.Endpoint, bool) {
	if r, ok := b.routes[id]; ok && b.round-r.updated <= b.cfg.RouteTTL {
		return r.nextHopEP, true
	}
	return addr.Endpoint{}, false
}

// keepAliveLog is a transport that records where keep-alives go and
// recycles everything else.
type keepAliveLog struct{ to []addr.Endpoint }

func (l *keepAliveLog) Send(to addr.Endpoint, msg wire.Message) {
	if _, ok := msg.(*KeepAlive); ok {
		l.to = append(l.to, to)
	}
	if r, ok := msg.(wire.Releasable); ok {
		r.Release()
	}
}

// TestBookkeepingMatchesReference drives Node and the map-and-sweep
// reference through the same random operations — establishments (with
// evictions under MaxRVPs 3), keep-alive and ack refreshes from one of
// two endpoints per peer, route learning over batches of private
// descriptors, and advances of 1–25 rounds — and after every operation
// requires equal RVP sets (endpoints and lastRefresh included), equal
// lifecycle event sequences, equal keep-alive target order and equal
// nextHopFor answers for every peer ID: the heap-timed expiry, the
// roster and lazy route expiry are a layout-only change.
func TestBookkeepingMatchesReference(t *testing.T) {
	const self = addr.NodeID(1)
	ep := func(peer addr.NodeID, variant uint32) addr.Endpoint {
		return addr.Endpoint{IP: addr.MakeIP(9, 0, byte(variant), byte(peer)), Port: 100}
	}
	for _, maxRVPs := range []int{0, 3} {
		cfg := DefaultConfig()
		cfg.MaxRVPs = maxRVPs
		f := func(ops [300]uint32) bool {
			log := &keepAliveLog{}
			n, err := New(cfg, self, rand.New(rand.NewSource(1)), log, addr.Public, ep(self, 0), nil)
			if err != nil {
				t.Fatal(err)
			}
			var events []rvpEvent
			n.SetRVPEvents(func(peer addr.NodeID, established bool) {
				events = append(events, rvpEvent{peer, established})
			})
			ref := newRefBook(cfg)
			agree := func() bool {
				if n.RVPCount() != len(ref.rvps) || !slices.Equal(events, ref.events) {
					return false
				}
				for id, want := range ref.rvps {
					got, ok := n.rvps[id]
					if !ok || got.endpoint != want.endpoint || int(got.lastRefresh) != want.lastRefresh {
						return false
					}
				}
				log.to = log.to[:0]
				n.sendKeepAlives()
				var targets []addr.Endpoint
				for _, id := range ref.sortedRVPs() {
					targets = append(targets, ref.rvps[id].endpoint)
				}
				if !slices.Equal(log.to, targets) {
					return false
				}
				for id := self; id <= 10; id++ {
					gotEP, gotOK := n.nextHopFor(view.Descriptor{ID: id})
					wantEP, wantOK := ref.nextHop(id)
					if gotEP != wantEP || gotOK != wantOK {
						return false
					}
				}
				return true
			}
			for _, op := range ops {
				peer := 2 + addr.NodeID(op>>4%8)
				at := ep(peer, op>>7%2)
				switch op % 16 {
				case 0, 1, 2, 3:
					n.becomeRVPs(peer, at)
					ref.become(peer, at)
				case 4, 5:
					n.HandlePacket(wire.Packet{From: at, Msg: &KeepAlive{From: peer}})
					ref.keepAlive(peer, at)
				case 6, 7:
					n.HandlePacket(wire.Packet{From: at, Msg: &KeepAliveAck{From: peer}})
					ref.ack(peer)
				case 8, 9, 10:
					var descs []view.Descriptor
					for i := addr.NodeID(0); i < 9; i++ {
						if op>>(8+i)&1 != 0 {
							descs = append(descs, view.Descriptor{ID: 1 + i, Endpoint: ep(1+i, 1), Nat: addr.Private})
						}
					}
					if op>>17&1 != 0 {
						descs = append(descs, view.Descriptor{ID: 10, Endpoint: ep(10, 1), Nat: addr.Public})
					}
					ref.learn(self, descs, peer, at)
					n.learnRoutes(descs, peer, at)
				default:
					for k := 1 + op>>8%25; k > 0; k-- {
						idleRound(n)
						ref.advance()
					}
				}
				if !agree() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("MaxRVPs=%d: %v", maxRVPs, err)
		}
	}
}

// TestNylonKeepAliveAllocs pins the keep-alive path at zero
// allocations once warm: a burst from a to its RVP b, b's refresh and
// ack, and a's refresh on the ack, through the simulated network. Each
// node sends its one immutable KeepAlive and KeepAliveAck by pointer.
func TestNylonKeepAliveAllocs(t *testing.T) {
	r := newRig(t)
	a := r.pubNode(t, 1, nil)
	b := r.pubNode(t, 2, nil)
	a.View.Add(descOf(b))
	a.RunRound()
	r.sched.Run()
	if a.RVPCount() != 1 || b.RVPCount() != 1 {
		t.Fatalf("RVP counts a=%d b=%d, want 1 each", a.RVPCount(), b.RVPCount())
	}
	roundTrip := func() {
		a.sendKeepAlives()
		r.sched.Run()
	}
	roundTrip() // warm the network's event and packet storage
	if got := testing.AllocsPerRun(100, roundTrip); got != 0 {
		t.Fatalf("keep-alive round trip allocates %.1f objects, want 0", got)
	}
	if delivered := r.net.Delivered(); delivered < 2*101 {
		t.Fatalf("only %d packets delivered: the keep-alives did not flow", delivered)
	}
}
