// Package gozar implements the Gozar NAT-friendly peer-sampling service
// (Payberah, Dowling, Haridi — DAIS 2011), one of the paper's two
// comparison baselines.
//
// Gozar keeps a single Cyclon-style partial view but makes private nodes
// reachable through one-hop relaying: every private node discovers and
// keeps a small redundant set of public relay nodes, registers with them
// (the registration doubles as the NAT keep-alive), and caches the relay
// addresses inside its own descriptor. A node shuffling with a private
// target sends the request via one of the relays cached in the target's
// descriptor; the response is relayed back the same way when the
// requester is itself private, or sent directly when it is public.
//
// The costs the Croupier paper measures — relay keep-alive traffic,
// doubled message legs for private targets, and failed shuffles when all
// cached relays have died — all emerge from this implementation.
//
// The shuffle cycle itself runs on the shared exchange engine; Gozar
// adds its relay-routing Deliver policy plus pooled wrapper messages
// for the relay legs. Wrappers transfer ownership of the inner pooled
// request/response when they forward it: the forwarding handler nils
// the wrapper's Inner field, so the wrapper's own release leaves the
// in-flight payload alone.
package gozar

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/exchange"
	"repro/internal/pss"
	"repro/internal/view"
	"repro/internal/wire"
)

// Config parameterises one Gozar node.
type Config struct {
	// Params holds the shared gossip parameters.
	Params pss.Params
	// NumRelays is z, the number of redundant relays each private node
	// maintains (3 in the Gozar paper).
	NumRelays int
	// RelayTTL is how many rounds a relay keeps a registration alive
	// without hearing a keep-alive.
	RelayTTL int
	// RelayAckTimeout is how many rounds a private node waits for
	// keep-alive acknowledgements before dropping a relay as dead.
	RelayAckTimeout int
	// PendingTTL bounds how many rounds sent-shuffle state is kept.
	PendingTTL int
}

// DefaultConfig returns the setup used in the comparison experiments.
func DefaultConfig() Config {
	return Config{
		Params:          pss.DefaultParams(),
		NumRelays:       3,
		RelayTTL:        5,
		RelayAckTimeout: 3,
		PendingTTL:      5,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.NumRelays <= 0 {
		return fmt.Errorf("gozar: number of relays must be positive, got %d", c.NumRelays)
	}
	if c.RelayTTL <= 0 || c.RelayAckTimeout <= 0 || c.PendingTTL <= 0 {
		return fmt.Errorf("gozar: TTLs must be positive")
	}
	return nil
}

// ShuffleReq is a view-exchange request, delivered directly to public
// targets or wrapped in a RelayForward for private ones. The subset
// travels in the pooled request's Pub slice.
type ShuffleReq = exchange.Req

// ShuffleRes answers a ShuffleReq.
type ShuffleRes = exchange.Res

// RelayRegister is sent by a private node to each of its relays every
// round; it establishes the registration and keeps the NAT mapping warm.
type RelayRegister struct {
	From view.Descriptor
	fl   *exchange.FreeList[RelayRegister]
}

// Size implements wire.Message.
func (m *RelayRegister) Size() int { return wire.MsgHeaderSize + wire.DescriptorSize(m.From) }

// Release implements wire.Releasable.
func (m *RelayRegister) Release() {
	if m.fl != nil {
		m.fl.Put(m)
	}
}

// RelayRegisterAck confirms a registration. It is an empty message, so
// value boxing costs nothing and it needs no pooling.
type RelayRegisterAck struct{}

// Size implements wire.Message.
func (RelayRegisterAck) Size() int { return wire.MsgHeaderSize }

// RelayForward asks a relay to deliver the inner request to one of its
// registered private clients.
type RelayForward struct {
	Target addr.NodeID
	Inner  *ShuffleReq
	fl     *exchange.FreeList[RelayForward]
}

// Size implements wire.Message.
func (m *RelayForward) Size() int { return wire.MsgHeaderSize + 2 + m.Inner.Size() }

// Release implements wire.Releasable, recycling the inner request too
// unless a handler took ownership of it (and nilled the field).
func (m *RelayForward) Release() {
	if m.Inner != nil {
		m.Inner.Release()
		m.Inner = nil
	}
	if m.fl != nil {
		m.fl.Put(m)
	}
}

// RelayedReq is the relay-to-client leg, carrying the origin's observed
// endpoint so a private requester can be answered through the relay.
type RelayedReq struct {
	Origin addr.Endpoint
	Inner  *ShuffleReq
	fl     *exchange.FreeList[RelayedReq]
}

// Size implements wire.Message.
func (m *RelayedReq) Size() int { return wire.MsgHeaderSize + wire.EndpointSize + m.Inner.Size() }

// Release implements wire.Releasable; see RelayForward.Release.
func (m *RelayedReq) Release() {
	if m.Inner != nil {
		m.Inner.Release()
		m.Inner = nil
	}
	if m.fl != nil {
		m.fl.Put(m)
	}
}

// RelayResForward asks the relay to deliver a shuffle response back to a
// private requester's observed endpoint.
type RelayResForward struct {
	Target addr.Endpoint
	Inner  *ShuffleRes
	fl     *exchange.FreeList[RelayResForward]
}

// Size implements wire.Message.
func (m *RelayResForward) Size() int { return wire.MsgHeaderSize + wire.EndpointSize + m.Inner.Size() }

// Release implements wire.Releasable; see RelayForward.Release.
func (m *RelayResForward) Release() {
	if m.Inner != nil {
		m.Inner.Release()
		m.Inner = nil
	}
	if m.fl != nil {
		m.fl.Put(m)
	}
}

// registration is a relay-side record of a private client.
type registration struct {
	endpoint addr.Endpoint
	lastSeen int // relay-local round count
}

// relayState is a private node's record of one of its relays.
type relayState struct {
	relay   view.Relay
	lastAck int
}

// Node is one Gozar protocol instance: a state machine its driver
// advances with RunRound and HandlePacket (see pss.Protocol). The view,
// the shuffle cycle and the driver-facing setters are the shared
// single-view core; the rest is relaying.
type Node struct {
	pss.Core
	cfg Config

	// Private-side relay management. The advertised relay list rides on
	// this node's own descriptor as Core.Ext, rebuilt (freshly
	// allocated) whenever the relay set changes, because descriptor
	// copies in views and in-flight messages share the extension
	// pointer (view.Ext is immutable once attached).
	relays []relayState

	// Public-side relay service.
	clients map[addr.NodeID]*registration

	// Free lists for the relay-leg wrapper messages.
	regPool    exchange.FreeList[RelayRegister]
	fwdPool    exchange.FreeList[RelayForward]
	relayPool  exchange.FreeList[RelayedReq]
	resFwdPool exchange.FreeList[RelayResForward]

	// relayEvents, when set, observes relay failover; the scratch
	// slices back the callback's arguments and are reused each round.
	relayEvents func(lost, gained []view.Relay)
	lostScratch []view.Relay
	gainScratch []view.Relay
}

// New constructs a Gozar node. seeds initialise the view; private nodes
// acquire their first relays from the public seeds.
func New(cfg Config, id addr.NodeID, rng *rand.Rand, tr exchange.Transport,
	natType addr.NatType, selfEP addr.Endpoint, seeds []view.Descriptor) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	core, err := pss.NewCore("gozar", cfg.Params, cfg.PendingTTL, id, rng, tr, natType, selfEP, seeds)
	if err != nil {
		return nil, err
	}
	return &Node{Core: core, cfg: cfg, clients: make(map[addr.NodeID]*registration)}, nil
}

// Relays returns a copy of the node's current live relay set (private
// nodes only).
func (n *Node) Relays() []view.Relay {
	out := make([]view.Relay, 0, len(n.relays))
	for _, r := range n.relays {
		out = append(out, r.relay)
	}
	return out
}

// RegisteredClients returns how many private nodes this public node is
// currently relaying for.
func (n *Node) RegisteredClients() int { return len(n.clients) }

// SetRelayEvents installs a relay-failover listener, called on the
// protocol goroutine at the end of any round in which a private node's
// relay set changed: lost holds relays dropped for missed acks, gained
// the replacements recruited from the public view. The slices are
// reused across rounds — copy them to retain. Deployment runtimes use
// this to re-advertise descriptors or alert on relay starvation; nil
// removes the listener. Call before the node starts gossiping.
func (n *Node) SetRelayEvents(fn func(lost, gained []view.Relay)) { n.relayEvents = fn }

// RunRound implements pss.Protocol: one gossip round through the
// exchange engine.
func (n *Node) RunRound() { n.Eng.RunRound((*policy)(n)) }

// policy adapts the node to the exchange engine's strategy hooks; the
// core supplies SelectPeer, FillRequest and MergeResponse.
type policy Node

// PrepareRound implements exchange.Protocol: view aging, relay upkeep
// and re-bootstrap.
func (p *policy) PrepareRound(int) {
	n := (*Node)(p)
	n.BeginRound()
	if n.NatType() == addr.Private {
		n.maintainRelays()
	} else {
		n.expireClients()
	}
	n.Reseed()
}

// Deliver implements exchange.Protocol: public targets get the request
// directly, private targets through one of the relays cached in their
// descriptor — or not at all when every cached relay is gone.
func (p *policy) Deliver(q view.Descriptor, req *ShuffleReq) exchange.Delivery {
	n := (*Node)(p)
	if q.Nat == addr.Public {
		n.Sock.Send(q.Endpoint, req)
		return exchange.Sent
	}
	relays := q.Relays()
	if len(relays) == 0 {
		n.FailShuffle()
		return exchange.Failed
	}
	relay := relays[n.Rng.Intn(len(relays))]
	fwd := n.fwdPool.Get()
	fwd.Target, fwd.Inner, fwd.fl = q.ID, req, &n.fwdPool
	n.Sock.Send(relay.Endpoint, fwd)
	return exchange.Sent
}

// maintainRelays runs once per round on private nodes: drop relays whose
// acks stopped, top the set back up from public view members, and send
// keep-alive registrations.
func (n *Node) maintainRelays() {
	changed := false
	n.lostScratch, n.gainScratch = n.lostScratch[:0], n.gainScratch[:0]
	live := n.relays[:0]
	for _, r := range n.relays {
		if n.Rounds()-r.lastAck <= n.cfg.RelayAckTimeout {
			live = append(live, r)
		} else {
			changed = true
			n.lostScratch = append(n.lostScratch, r.relay)
		}
	}
	n.relays = live
	for len(n.relays) < n.cfg.NumRelays {
		cand, ok := n.pickNewRelay()
		if !ok {
			break
		}
		n.relays = append(n.relays, relayState{relay: cand, lastAck: n.Rounds()})
		changed = true
		n.gainScratch = append(n.gainScratch, cand)
	}
	if changed && n.relayEvents != nil {
		n.relayEvents(n.lostScratch, n.gainScratch)
	}
	if changed {
		// Fresh allocation on purpose: descriptor copies already out in
		// views and messages keep the old extension.
		ext := &view.Ext{Relays: make([]view.Relay, len(n.relays))}
		for i, r := range n.relays {
			ext.Relays[i] = r.relay
		}
		n.Ext = ext
	}
	for _, r := range n.relays {
		reg := n.regPool.Get()
		reg.From, reg.fl = n.SelfDescriptor(), &n.regPool
		n.Sock.Send(r.relay.Endpoint, reg)
	}
}

// pickNewRelay selects a public view member not already used as a relay.
func (n *Node) pickNewRelay() (view.Relay, bool) {
	used := make(map[addr.NodeID]bool, len(n.relays))
	for _, r := range n.relays {
		used[r.relay.ID] = true
	}
	var candidates []view.Descriptor
	for _, d := range n.View.Descriptors() {
		if d.Nat == addr.Public && !used[d.ID] {
			candidates = append(candidates, d)
		}
	}
	if len(candidates) == 0 {
		return view.Relay{}, false
	}
	pick := candidates[n.Rng.Intn(len(candidates))]
	return view.Relay{ID: pick.ID, Endpoint: pick.Endpoint}, true
}

// expireClients drops registrations that stopped sending keep-alives.
func (n *Node) expireClients() {
	for id, reg := range n.clients {
		if n.Rounds()-reg.lastSeen > n.cfg.RelayTTL {
			delete(n.clients, id)
		}
	}
}

// HandlePacket implements pss.Protocol. Payloads are pooled and recycled
// once the handler returns; forwarding handlers take ownership of a
// wrapper's inner message by nilling the field before re-sending it.
func (n *Node) HandlePacket(pkt wire.Packet) {
	switch m := pkt.Msg.(type) {
	case *ShuffleReq:
		n.handleReq(pkt.From, m, addr.Endpoint{})
	case *ShuffleRes:
		n.Eng.HandleResponse((*policy)(n), m)
	case *RelayRegister:
		n.handleRegister(pkt.From, m)
	case RelayRegisterAck:
		n.handleRegisterAck(pkt.From)
	case *RelayForward:
		n.handleRelayForward(pkt.From, m)
	case *RelayedReq:
		n.handleReq(pkt.From, m.Inner, m.Origin)
	case *RelayResForward:
		if mm := n.M; mm != nil {
			mm.Relayed.Inc()
		}
		inner := m.Inner
		m.Inner = nil // ownership moves to the final leg
		n.Sock.Send(m.Target, inner)
	}
}

// handleReq processes a view-exchange request. relayOrigin is non-zero
// when the request arrived through a relay and names the requester's
// observed endpoint; from is then the relay itself.
func (n *Node) handleReq(from addr.Endpoint, req *ShuffleReq, relayOrigin addr.Endpoint) {
	res := n.NewResponse(req.From.ID)
	n.Merge(res.Pub, req.Pub)

	switch {
	case relayOrigin.IsZero():
		// Direct request: answer the observed source.
		n.Sock.Send(from, res)
	case req.From.Nat == addr.Public:
		// Relayed request from a public node: answer it directly.
		n.Sock.Send(req.From.Endpoint, res)
	default:
		// Relayed request from a private node: route the response back
		// through the same relay.
		fwd := n.resFwdPool.Get()
		fwd.Target, fwd.Inner, fwd.fl = relayOrigin, res, &n.resFwdPool
		n.Sock.Send(from, fwd)
	}
}

// handleRegister serves the relay side of a registration/keep-alive.
func (n *Node) handleRegister(from addr.Endpoint, reg *RelayRegister) {
	if n.NatType() != addr.Public {
		return // only public nodes relay
	}
	r, ok := n.clients[reg.From.ID]
	if !ok {
		r = &registration{}
		n.clients[reg.From.ID] = r
	}
	r.endpoint = from
	r.lastSeen = n.Rounds()
	n.Sock.Send(from, RelayRegisterAck{})
}

// handleRegisterAck refreshes the liveness of the acknowledging relay.
func (n *Node) handleRegisterAck(from addr.Endpoint) {
	for i := range n.relays {
		if n.relays[i].relay.Endpoint == from {
			n.relays[i].lastAck = n.Rounds()
			return
		}
	}
}

// handleRelayForward forwards a wrapped request to a registered client.
// Unknown clients are dropped silently — the requester's shuffle simply
// fails, as it would on a real dead relay.
func (n *Node) handleRelayForward(from addr.Endpoint, fwd *RelayForward) {
	reg, ok := n.clients[fwd.Target]
	if !ok {
		return // fwd's release recycles the undeliverable inner request
	}
	if m := n.M; m != nil {
		m.Relayed.Inc()
	}
	inner := fwd.Inner
	fwd.Inner = nil // ownership moves to the client leg
	rr := n.relayPool.Get()
	rr.Origin, rr.Inner, rr.fl = from, inner, &n.relayPool
	n.Sock.Send(reg.endpoint, rr)
}

var (
	_ pss.Protocol      = (*Node)(nil)
	_ exchange.Protocol = (*policy)(nil)
)
