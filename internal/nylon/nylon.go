// Package nylon implements the Nylon NAT-resilient peer-sampling service
// (Kermarrec, Pace, Quéma, Schiavoni — ICDCS 2009), the paper's second
// comparison baseline.
//
// Nylon keeps a single Cyclon-style view. Any two nodes that complete a
// view exchange become each other's rendezvous points (RVPs) and keep
// their mutual NAT mappings warm with periodic keep-alives. To shuffle
// with a private node, the requester first punches toward the target's
// mapped endpoint, then routes a hole-punch request along the chain of
// RVPs through which it learned the target's descriptor; the target
// punches back, and the view exchange itself happens directly over the
// freshly punched hole. Chains are unbounded in length, which is exactly
// what makes Nylon fragile under churn and expensive on high-latency
// paths — behaviours the Croupier paper measures against it.
//
// The shuffle cycle runs on the shared exchange engine. Nylon's Deliver
// policy is the interesting one: requests to unpunched private targets
// are deferred — the pooled request is parked in the punch table until
// the target's PunchOK opens the path (or the punch times out and the
// request is recycled unsent).
package nylon

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/addr"
	"repro/internal/exchange"
	"repro/internal/pss"
	"repro/internal/view"
	"repro/internal/wire"
)

// Config parameterises one Nylon node.
type Config struct {
	// Params holds the shared gossip parameters.
	Params pss.Params
	// RVPTTL is how many rounds an RVP relationship (and its routing
	// usefulness) survives without being refreshed.
	RVPTTL int
	// KeepAliveEvery is the keep-alive period towards RVPs, in rounds.
	KeepAliveEvery int
	// RouteTTL is how many rounds a routing-table entry stays valid.
	RouteTTL int
	// MaxHops bounds chain length as a routing-loop guard. The
	// protocol itself places no bound (the source of its fragility);
	// this only protects the simulation from pathological cycles.
	MaxHops int
	// PendingTTL bounds how many rounds punch/shuffle state is kept.
	PendingTTL int
	// MaxRVPs, when positive, bounds the rendezvous set: past the
	// bound, the relationship with the oldest lastRefresh (ties to the
	// smaller node ID) is evicted, the way a real NAT device bounds its
	// session table. Zero — the default — keeps the paper-faithful
	// unbounded behaviour, under which every pair that ever exchanged
	// keep-alive-refreshes each other forever and the mesh grows toward
	// a full mesh; large-scale runs set a bound to keep nylon's state
	// and keep-alive traffic from growing with deployment size.
	MaxRVPs int
}

// DefaultConfig returns the setup used in the comparison experiments.
func DefaultConfig() Config {
	return Config{
		Params:         pss.DefaultParams(),
		RVPTTL:         20,
		KeepAliveEvery: 5,
		RouteTTL:       30,
		MaxHops:        16,
		PendingTTL:     5,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.RVPTTL <= 0 || c.KeepAliveEvery <= 0 || c.RouteTTL <= 0 || c.PendingTTL <= 0 {
		return fmt.Errorf("nylon: TTLs and keep-alive period must be positive")
	}
	if c.MaxHops <= 0 {
		return fmt.Errorf("nylon: max hops must be positive, got %d", c.MaxHops)
	}
	if c.MaxRVPs < 0 {
		return fmt.Errorf("nylon: max RVPs must be non-negative, got %d", c.MaxRVPs)
	}
	return nil
}

// ShuffleReq is the direct view-exchange request (sent after any needed
// hole punching); the subset travels in the pooled request's Pub slice.
type ShuffleReq = exchange.Req

// ShuffleRes answers a ShuffleReq.
type ShuffleRes = exchange.Res

// Punch is the hole-opening packet sent straight at a NATed endpoint; it
// is expected to be filtered on first contact. Empty, so value boxing
// costs nothing.
type Punch struct{}

// Size implements wire.Message.
func (Punch) Size() int { return wire.MsgHeaderSize }

// HolePunchReq travels along the RVP chain to a private target, asking
// it to punch back to Origin. Every hop rewrites it; since a handler
// must not re-send the pooled message it received, a forwarding hop
// copies it into a message from its own free list and lets the network
// recycle the original.
type HolePunchReq struct {
	Origin   addr.NodeID
	OriginEP addr.Endpoint // observed endpoint, stamped by the first hop
	Target   addr.NodeID
	Hops     int
	fl       *exchange.FreeList[HolePunchReq]
}

// Size implements wire.Message.
func (m *HolePunchReq) Size() int { return wire.MsgHeaderSize + 2 + wire.EndpointSize + 2 + 1 }

// Release implements wire.Releasable.
func (m *HolePunchReq) Release() {
	if m.fl != nil {
		m.fl.Put(m)
	}
}

// PunchOK tells the requester the target punched toward it and the
// direct path is open.
type PunchOK struct {
	From view.Descriptor
	fl   *exchange.FreeList[PunchOK]
}

// Size implements wire.Message.
func (m *PunchOK) Size() int { return wire.MsgHeaderSize + wire.DescriptorSize(m.From) }

// Release implements wire.Releasable.
func (m *PunchOK) Release() {
	if m.fl != nil {
		m.fl.Put(m)
	}
}

// KeepAlive refreshes an RVP relationship and the underlying NAT
// mapping. Each node builds its one KeepAlive (and one KeepAliveAck) at
// construction and sends it by pointer to every RVP: it is never
// written afterwards, so receivers on any shard read it without
// synchronisation, and it is not Releasable — there is nothing to
// recycle.
type KeepAlive struct {
	From addr.NodeID
}

// Size implements wire.Message.
func (m *KeepAlive) Size() int { return wire.MsgHeaderSize + 2 }

// KeepAliveAck answers a KeepAlive, refreshing the reverse mapping.
type KeepAliveAck struct {
	From addr.NodeID
}

// Size implements wire.Message.
func (m *KeepAliveAck) Size() int { return wire.MsgHeaderSize + 2 }

// rvp records a rendezvous relationship with a direct, punched peer.
// armed is the lastRefresh its expiry check in rvpDues was armed for;
// rounds are stored in 32 bits (68 years of one-second rounds) so the
// record stays 24 bytes — a full Nylon mesh holds one per node pair.
// ext caches the shared routing extension stamped on private
// descriptors learned from this peer at its current endpoint:
// steady-state exchanges with an established RVP reuse one immutable
// Ext instead of allocating one per exchange. The cache is dropped
// whenever the peer's observed endpoint changes (the extension's
// ViaEndpoint would be stale) and cleared before the record returns to
// the pool; descriptors already holding the old extension keep it —
// view.Ext is immutable once attached.
type rvp struct {
	endpoint    addr.Endpoint
	lastRefresh int32
	armed       int32
	ext         *view.Ext
}

// rvpDue arms one expiry check: the relationship with id is torn down
// at round unless it was refreshed after the entry was pushed.
type rvpDue struct {
	round int
	id    addr.NodeID
}

// rvpDues is a min-heap of expiry checks ordered by (round, id). A
// refresh only moves the record's lastRefresh; the entry is re-armed
// when it pops. A relationship torn down by eviction leaves its entry
// behind, recognised on pop because no record is armed for its round.
// Hand-rolled because container/heap would box every entry it moves.
type rvpDues []rvpDue

func (h rvpDues) less(i, j int) bool {
	return h[i].round < h[j].round || (h[i].round == h[j].round && h[i].id < h[j].id)
}

func (h *rvpDues) push(e rvpDue) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *rvpDues) pop() rvpDue {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// route is a routing-table entry: the next hop towards a (private)
// node. Entries are stored by value and expire lazily: one older than
// RouteTTL is dead to every read (liveRoute) and leaves the map at the
// next sweep.
type route struct {
	nextHop   addr.NodeID
	nextHopEP addr.Endpoint
	updated   int
}

// routeSweepEvery is the period, in rounds, of the sweep that deletes
// expired routing entries.
const routeSweepEvery = 8

// pendingPunch parks a filled request while the hole is punched; the
// sent subset is the request's own Pub payload.
type pendingPunch struct {
	req   *ShuffleReq
	round int
}

// Node is one Nylon protocol instance: a state machine its driver
// advances with RunRound and HandlePacket (see pss.Protocol). The view,
// the shuffle cycle and the driver-facing setters are the shared
// single-view core; the rest is rendezvous, routing and punching.
type Node struct {
	pss.Core
	cfg Config

	punches map[addr.NodeID]pendingPunch
	rvps    map[addr.NodeID]*rvp
	routes  map[addr.NodeID]route

	// A round's bookkeeping costs what changed, not what exists. roster
	// holds the live RVP peers in ascending ID — the keep-alive and
	// eviction order — and changes only on establish and teardown; dues
	// holds one armed expiry check per relationship, so expiry pops what
	// is due instead of sweeping the table.
	roster []addr.NodeID
	dues   rvpDues

	// ka and kaAck are this node's immutable keep-alive messages (see
	// KeepAlive).
	ka    KeepAlive
	kaAck KeepAliveAck

	punchOKPool exchange.FreeList[PunchOK]
	hpPool      exchange.FreeList[HolePunchReq]
	rvpPool     exchange.FreeList[rvp]

	// rvpEvents, when set, observes rendezvous-point lifecycle:
	// established on a completed direct exchange, torn down on TTL
	// expiry or capacity eviction. evIDs is the deterministic-order
	// scratch for expiry.
	rvpEvents func(peer addr.NodeID, established bool)
	evIDs     []addr.NodeID

	// resFrom is the observed source endpoint of the response currently
	// being handled; see handleRes.
	resFrom addr.Endpoint

	relayedMsgs uint64

	// lastRVPCount is the rendezvous count this node last published
	// into the shared RVP gauge, so round boundaries and Stop publish
	// deltas instead of sweeping.
	lastRVPCount int
}

// New constructs a Nylon node seeded with the given descriptors.
func New(cfg Config, id addr.NodeID, rng *rand.Rand, tr exchange.Transport,
	natType addr.NatType, selfEP addr.Endpoint, seeds []view.Descriptor) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	core, err := pss.NewCore("nylon", cfg.Params, cfg.PendingTTL, id, rng, tr, natType, selfEP, seeds)
	if err != nil {
		return nil, err
	}
	return &Node{
		Core:    core,
		cfg:     cfg,
		punches: make(map[addr.NodeID]pendingPunch),
		rvps:    make(map[addr.NodeID]*rvp),
		routes:  make(map[addr.NodeID]route),
		ka:      KeepAlive{From: id},
		kaAck:   KeepAliveAck{From: id},
	}, nil
}

// RelayedMessages counts chain messages this node forwarded for others.
func (n *Node) RelayedMessages() uint64 { return n.relayedMsgs }

// RVPCount returns the number of live rendezvous relationships.
func (n *Node) RVPCount() int { return len(n.rvps) }

// SetRVPEvents installs a rendezvous-point lifecycle listener, called
// on the protocol goroutine with established=true when a completed
// direct exchange makes the peer an RVP, and established=false when
// the relationship is torn down — by TTL expiry or by capacity
// eviction. Refreshes of an existing relationship do not re-fire.
// Deployment runtimes use this to maintain NAT keepalive target sets;
// nil removes the listener. Call before the node starts gossiping.
func (n *Node) SetRVPEvents(fn func(peer addr.NodeID, established bool)) { n.rvpEvents = fn }

// Stop implements pss.Protocol, retiring this node's residue from the
// shared RVP gauge.
func (n *Node) Stop() {
	if m := n.M; m != nil && n.lastRVPCount != 0 {
		m.RVPs.Add(int64(-n.lastRVPCount))
		n.lastRVPCount = 0
	}
}

// RunRound implements pss.Protocol: one gossip round through the
// exchange engine.
func (n *Node) RunRound() { n.Eng.RunRound((*policy)(n)) }

// policy adapts the node to the exchange engine's strategy hooks; the
// core supplies SelectPeer and FillRequest.
type policy Node

// PrepareRound implements exchange.Protocol: view aging, RVP/route/punch
// expiry, keep-alives, and re-bootstrap.
func (p *policy) PrepareRound(int) {
	n := (*Node)(p)
	n.BeginRound()
	if m := n.M; m != nil {
		if cur := len(n.rvps); cur != n.lastRVPCount {
			m.RVPs.Add(int64(cur - n.lastRVPCount))
			n.lastRVPCount = cur
		}
	}
	n.expireState()
	if n.Rounds()%n.cfg.KeepAliveEvery == 0 {
		n.sendKeepAlives()
	}
	n.Reseed()
}

// Deliver implements exchange.Protocol: direct to public targets and
// live punched holes; otherwise the request is parked and a hole-punch
// request is routed along the RVP chain toward the target.
func (p *policy) Deliver(q view.Descriptor, req *ShuffleReq) exchange.Delivery {
	n := (*Node)(p)
	if q.Nat == addr.Public {
		n.Sock.Send(q.Endpoint, req)
		return exchange.Sent
	}
	// Private target with a live punched hole: exchange directly.
	if r, ok := n.rvps[q.ID]; ok {
		n.Sock.Send(r.endpoint, req)
		return exchange.Sent
	}
	// Otherwise hole-punch through the RVP chain: open this side, then
	// route the punch request towards the target.
	hop, ok := n.nextHopFor(q)
	if !ok {
		n.FailShuffle()
		return exchange.Failed
	}
	if old, stale := n.punches[q.ID]; stale {
		old.req.Release() // an unanswered punch to the same target is superseded
	}
	if m := n.M; m != nil {
		m.PunchAttempts.Inc()
	}
	n.punches[q.ID] = pendingPunch{req: req, round: n.Rounds()}
	n.Sock.Send(q.Endpoint, Punch{}) // opens our NAT toward the target
	hp := n.hpPool.Get()
	hp.Origin, hp.OriginEP, hp.Target, hp.Hops, hp.fl = n.ID(), addr.Endpoint{}, q.ID, 1, &n.hpPool
	n.Sock.Send(hop, hp)
	return exchange.Deferred
}

// MergeResponse implements exchange.Protocol: swapper merge plus Nylon's
// route learning and RVP establishment. The response's payload is
// mutated in place to stamp Via routing before the merge copies it —
// safe, because the pooled slice is recycled right after the handler.
func (p *policy) MergeResponse(res *ShuffleRes, sentPub, _ []view.Descriptor) {
	n := (*Node)(p)
	n.Merge(sentPub, n.learnRoutes(res.Pub, res.From.ID, n.resFrom))
	n.becomeRVPs(res.From.ID, n.resFrom)
}

// nextHopFor finds where to route a chain message for target q: the
// routing table first, the descriptor's via as fallback.
func (n *Node) nextHopFor(q view.Descriptor) (addr.Endpoint, bool) {
	if r, ok := n.liveRoute(q.ID); ok {
		return r.nextHopEP, true
	}
	if via := q.Via(); via != 0 && via != n.ID() && !q.ViaEndpoint().IsZero() {
		return q.ViaEndpoint(), true
	}
	return addr.Endpoint{}, false
}

// liveRoute returns the routing entry towards id if it is within
// RouteTTL. Expired entries stay in the map until the next sweep, so
// every read of the table goes through here.
func (n *Node) liveRoute(id addr.NodeID) (route, bool) {
	r, ok := n.routes[id]
	return r, ok && n.Rounds()-r.updated <= n.cfg.RouteTTL
}

// expireState ages out dead RVPs, stale routes, and abandoned punch
// attempts (the engine expires pending shuffles itself).
func (n *Node) expireState() {
	n.expireRVPs()
	if n.Rounds()%routeSweepEvery == 0 {
		for id, r := range n.routes {
			if n.Rounds()-r.updated > n.cfg.RouteTTL {
				delete(n.routes, id)
			}
		}
	}
	for id, p := range n.punches {
		if n.Rounds()-p.round > n.cfg.PendingTTL {
			delete(n.punches, id)
			p.req.Release() // never sent; recycle it here
			n.FailShuffle()
		}
	}
}

// expireRVPs tears down every relationship not refreshed within RVPTTL
// rounds, popping only the expiry checks that are due. The teardowns
// fire in ascending peer ID, the order a sorted sweep of the whole
// table would produce.
func (n *Node) expireRVPs() {
	n.evIDs = n.evIDs[:0]
	for len(n.dues) > 0 && n.dues[0].round <= n.Rounds() {
		e := n.dues.pop()
		r, ok := n.rvps[e.id]
		switch {
		case !ok || n.expiryRound(r.armed) != e.round:
			// Left behind by an eviction; the peer may be back since.
		case r.lastRefresh != r.armed:
			n.arm(e.id, r) // refreshed since it was armed
		default:
			n.evIDs = append(n.evIDs, e.id)
		}
	}
	// A peer evicted and re-established within one round has two
	// identical entries, so it may be listed twice.
	slices.Sort(n.evIDs)
	for _, id := range slices.Compact(n.evIDs) {
		n.dropRVP(id)
	}
}

// expiryRound is the first round at which a relationship last
// refreshed at round refresh is more than RVPTTL rounds old.
func (n *Node) expiryRound(refresh int32) int { return int(refresh) + n.cfg.RVPTTL + 1 }

// arm schedules the expiry check of id's record r for its current
// lastRefresh.
func (n *Node) arm(id addr.NodeID, r *rvp) {
	r.armed = r.lastRefresh
	n.dues.push(rvpDue{round: n.expiryRound(r.armed), id: id})
}

// round32 is the current round in the width rvp records store.
func (n *Node) round32() int32 { return int32(n.Rounds()) }

// sendKeepAlives refreshes every RVP in ascending peer ID, so packet
// sequencing (and thus the whole run) stays deterministic.
func (n *Node) sendKeepAlives() {
	for _, id := range n.roster {
		n.Sock.Send(n.rvps[id].endpoint, &n.ka)
	}
}

// becomeRVPs records a completed direct exchange with a peer: both sides
// now relay for each other (the defining Nylon mechanism).
func (n *Node) becomeRVPs(id addr.NodeID, ep addr.Endpoint) {
	r, ok := n.rvps[id]
	if !ok {
		r = n.rvpPool.Get()
		*r = rvp{lastRefresh: n.round32()} // recycled records may carry a stale cache
		n.rvps[id] = r
		i, _ := slices.BinarySearch(n.roster, id)
		n.roster = slices.Insert(n.roster, i, id)
		n.arm(id, r)
		if n.rvpEvents != nil {
			n.rvpEvents(id, true)
		}
	} else if r.endpoint != ep {
		r.ext = nil // cached ViaEndpoint no longer matches
	}
	r.endpoint = ep
	r.lastRefresh = n.round32()
	// A direct relationship is also the best route.
	n.setRoute(id, id, ep)
	if n.cfg.MaxRVPs > 0 && len(n.rvps) > n.cfg.MaxRVPs {
		n.evictOldestRVP(id)
	}
}

// dropRVP tears down the relationship with id. An armed expiry check
// still in the heap is discarded when it pops.
func (n *Node) dropRVP(id addr.NodeID) {
	r := n.rvps[id]
	delete(n.rvps, id)
	i, _ := slices.BinarySearch(n.roster, id)
	n.roster = slices.Delete(n.roster, i, i+1)
	r.ext = nil // drop the cached extension with the relationship
	n.rvpPool.Put(r)
	if n.rvpEvents != nil {
		n.rvpEvents(id, false)
	}
}

// evictOldestRVP drops the rendezvous relationship with the stalest
// lastRefresh — never `keep`, the peer just refreshed — breaking ties
// towards the smaller node ID (the roster is in ID order, so the first
// stalest wins). The route entry, if any, is left to its own TTL,
// matching how RVPTTL expiry treats routes.
func (n *Node) evictOldestRVP(keep addr.NodeID) {
	var victim addr.NodeID
	var oldest *rvp
	for _, id := range n.roster {
		if r := n.rvps[id]; id != keep && (oldest == nil || r.lastRefresh < oldest.lastRefresh) {
			victim, oldest = id, r
		}
	}
	if oldest != nil {
		n.dropRVP(victim)
	}
}

// setRoute installs or refreshes a routing-table entry.
func (n *Node) setRoute(id, nextHop addr.NodeID, ep addr.Endpoint) {
	n.routes[id] = route{nextHop: nextHop, nextHopEP: ep, updated: n.Rounds()}
}

// learnRoutes updates the routing table and stamps Via on received
// private descriptors in place: the exchange partner is the next hop
// towards every private node it advertised (Nylon's routing-table
// maintenance), unless a live direct route to it exists. descs is a
// pooled message payload about to be recycled, so rewriting its entries
// is safe; the view merge copies what it keeps. Every stamped
// descriptor points at the same partner, so one shared extension serves
// the whole batch — attached by replacing the Ext pointer, never by
// writing through a received one, which copies in other views may share
// (view.Ext is immutable once attached). With an established RVP at the
// same endpoint the extension is cached on the rendezvous record, so
// steady-state exchanges reuse one Ext across rounds instead of
// allocating one per exchange.
func (n *Node) learnRoutes(descs []view.Descriptor, partner addr.NodeID, partnerEP addr.Endpoint) []view.Descriptor {
	var ext *view.Ext
	for i := range descs {
		d := &descs[i]
		if d.Nat == addr.Private && d.ID != n.ID() {
			if ext == nil {
				ext = n.partnerExt(partner, partnerEP)
			}
			d.Ext = ext
			if cur, ok := n.liveRoute(d.ID); !ok || cur.nextHop != d.ID {
				n.setRoute(d.ID, partner, partnerEP)
			}
		}
	}
	return descs
}

// partnerExt returns the shared routing extension for descriptors
// learned from partner at partnerEP, served from the RVP record's
// cache when the relationship is established at that same endpoint and
// allocated fresh otherwise (first contact, or an endpoint move whose
// becomeRVPs invalidation hasn't run yet).
func (n *Node) partnerExt(partner addr.NodeID, partnerEP addr.Endpoint) *view.Ext {
	if r, ok := n.rvps[partner]; ok && r.endpoint == partnerEP {
		if r.ext == nil {
			r.ext = &view.Ext{Via: partner, ViaEndpoint: partnerEP}
		}
		return r.ext
	}
	return &view.Ext{Via: partner, ViaEndpoint: partnerEP}
}

// HandlePacket implements pss.Protocol. Payloads are pooled and recycled
// once the handler returns; everything kept is copied by the merges.
func (n *Node) HandlePacket(pkt wire.Packet) {
	switch m := pkt.Msg.(type) {
	case *ShuffleReq:
		n.handleReq(pkt.From, m)
	case *ShuffleRes:
		n.handleRes(pkt.From, m)
	case Punch:
		// Hole-opening packet: nothing to do, the NAT state is the
		// side effect.
	case *HolePunchReq:
		n.handleHolePunchReq(pkt.From, m)
	case *PunchOK:
		n.handlePunchOK(pkt.From, m)
	case *KeepAlive:
		n.handleKeepAlive(pkt.From, m)
	case *KeepAliveAck:
		n.handleKeepAliveAck(m)
	}
}

func (n *Node) handleReq(from addr.Endpoint, req *ShuffleReq) {
	res := n.NewResponse(req.From.ID)
	n.Merge(res.Pub, n.learnRoutes(req.Pub, req.From.ID, from))
	n.becomeRVPs(req.From.ID, from)
	n.Sock.Send(from, res)
}

// resFrom carries the response's observed source endpoint from handleRes
// into the MergeResponse hook; the two always run back to back on the
// node's single goroutine.
func (n *Node) handleRes(from addr.Endpoint, res *ShuffleRes) {
	n.resFrom = from
	n.Eng.HandleResponse((*policy)(n), res)
}

// handleHolePunchReq either delivers the punch request to the target (if
// this node holds a live direct relationship with it) or forwards it one
// hop further along its own route.
func (n *Node) handleHolePunchReq(from addr.Endpoint, m *HolePunchReq) {
	originEP := m.OriginEP
	if originEP.IsZero() {
		// First hop observes the requester's public endpoint.
		originEP = from
	}
	if m.Target == n.ID() {
		// We are the target: punch back to the origin and confirm.
		ok := n.punchOKPool.Get()
		ok.From, ok.fl = n.SelfDescriptor(), &n.punchOKPool
		n.Sock.Send(originEP, ok)
		return
	}
	if m.Hops >= n.cfg.MaxHops {
		return
	}
	n.relayedMsgs++
	if mm := n.M; mm != nil {
		mm.Relayed.Inc()
	}
	// The received message belongs to the network (it is recycled after
	// this handler), so the next leg travels in a copy drawn from this
	// node's own free list.
	fw := n.hpPool.Get()
	fw.Origin, fw.OriginEP, fw.Target, fw.Hops, fw.fl = m.Origin, originEP, m.Target, m.Hops+1, &n.hpPool
	if r, ok := n.rvps[m.Target]; ok {
		n.Sock.Send(r.endpoint, fw)
		return
	}
	if r, ok := n.liveRoute(m.Target); ok {
		n.Sock.Send(r.nextHopEP, fw)
		return
	}
	// Route lost: the chain breaks and the requester's punch times out.
	fw.Release()
}

// handlePunchOK fires the deferred shuffle over the now-open hole,
// re-opening the pending exchange the engine cancelled at defer time.
func (n *Node) handlePunchOK(from addr.Endpoint, m *PunchOK) {
	p, ok := n.punches[m.From.ID]
	if !ok {
		return
	}
	if mm := n.M; mm != nil {
		mm.PunchSuccesses.Inc()
	}
	delete(n.punches, m.From.ID)
	n.Eng.Open(m.From.ID, p.req.Pub, nil)
	n.Sock.Send(from, p.req)
}

func (n *Node) handleKeepAlive(from addr.Endpoint, m *KeepAlive) {
	if r, ok := n.rvps[m.From]; ok {
		r.lastRefresh = n.round32()
		if r.endpoint != from {
			r.ext = nil // cached ViaEndpoint no longer matches
			r.endpoint = from
		}
	}
	n.Sock.Send(from, &n.kaAck)
}

func (n *Node) handleKeepAliveAck(m *KeepAliveAck) {
	if r, ok := n.rvps[m.From]; ok {
		r.lastRefresh = n.round32()
	}
}

var (
	_ pss.Protocol      = (*Node)(nil)
	_ exchange.Protocol = (*policy)(nil)
)
