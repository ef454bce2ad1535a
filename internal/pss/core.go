package pss

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/exchange"
	"repro/internal/view"
)

// Core is the node cyclon, gozar and nylon have in common. The paper's
// evaluation (§VII-A) runs the three baselines with the same view size,
// shuffle size, tail selection and swapper merge, so that only the way
// a private peer is reached differs; Core is that common part, and a
// system embedding it adds its Config, its wire messages, its Deliver
// hook and its per-round upkeep (see docs/ARCHITECTURE.md, "adding a
// system"). Every draw from Rng happens in a fixed place here, so the
// systems built on Core stay seed-for-seed reproducible.
//
// A system declares `type policy Node` over a Node embedding Core:
// SelectPeer, FillRequest and MergeResponse are then promoted onto the
// policy and satisfy exchange.Protocol, leaving PrepareRound and
// Deliver for the system to write.
type Core struct {
	Sock exchange.Transport
	Rng  *rand.Rand
	Eng  *exchange.Engine
	View *view.View
	// M is the (typically world-shared) instrument set; nil when
	// uninstrumented.
	M *Metrics
	// Ext rides on this node's own descriptor wherever it is advertised
	// (gozar's relay list). It is replaced, never written through:
	// descriptor copies in views and in-flight messages share the
	// pointer.
	Ext *view.Ext

	self        addr.NodeID
	ep          addr.Endpoint
	nat         addr.NatType
	shuffleSize int
	rebootstrap func() []view.Descriptor

	failedShuffles uint64
}

// NewCore builds the shared node for system proto, its view holding
// seeds. Unidentified NAT types are rejected: every NAT strategy
// branches on the node's own class.
func NewCore(proto string, p Params, pendingTTL int, id addr.NodeID, rng *rand.Rand, tr exchange.Transport,
	natType addr.NatType, selfEP addr.Endpoint, seeds []view.Descriptor) (Core, error) {
	if natType == addr.NatUnknown {
		return Core{}, fmt.Errorf("%s: node %v has unknown NAT type; run natid first", proto, id)
	}
	eng, err := exchange.NewEngine(pendingTTL)
	if err != nil {
		return Core{}, err
	}
	c := Core{
		Sock: tr, Rng: rng, Eng: eng, View: view.New(p.ViewSize, id),
		self: id, ep: selfEP, nat: natType, shuffleSize: p.ShuffleSize,
	}
	for _, d := range seeds {
		c.View.Add(d)
	}
	return c, nil
}

// SetMetrics implements Protocol, installing shared instruments on the
// node and its exchange engine.
func (c *Core) SetMetrics(m *Metrics) {
	c.M = m
	if m != nil {
		c.Eng.SetMetrics(m.Exchange)
	}
}

// SetSelectionTrace implements Protocol, recording this node's partner
// selections into the shared trace.
func (c *Core) SetSelectionTrace(t *exchange.Trace) { c.Eng.SetTrace(c.self, t) }

// SetRebootstrap implements Protocol: fn is queried for fresh seed
// descriptors whenever the view runs empty, mirroring a real client
// re-contacting the bootstrap service instead of staying isolated.
func (c *Core) SetRebootstrap(fn func() []view.Descriptor) { c.rebootstrap = fn }

// Stop implements Protocol; Core publishes no occupancy gauges.
func (c *Core) Stop() {}

// ID implements Protocol.
func (c *Core) ID() addr.NodeID { return c.self }

// NatType implements Protocol.
func (c *Core) NatType() addr.NatType { return c.nat }

// Rounds returns the number of gossip rounds executed.
func (c *Core) Rounds() int { return c.Eng.Rounds() }

// Neighbors implements Protocol.
func (c *Core) Neighbors() []view.Descriptor { return c.View.Descriptors() }

// Sample implements Protocol with a uniform draw over the single view.
func (c *Core) Sample() (view.Descriptor, bool) { return c.View.Random(c.Rng) }

// FailedShuffles counts exchanges abandoned because no path to the
// selected peer existed.
func (c *Core) FailedShuffles() uint64 { return c.failedShuffles }

// FailShuffle records one such exchange.
func (c *Core) FailShuffle() {
	c.failedShuffles++
	if m := c.M; m != nil {
		m.FailedShuffles.Inc()
	}
}

// SelfDescriptor is this node's fresh advertisement of itself.
func (c *Core) SelfDescriptor() view.Descriptor {
	return view.Descriptor{ID: c.self, Endpoint: c.ep, Nat: c.nat, Ext: c.Ext}
}

// BeginRound opens a system's PrepareRound: count the round and age the
// view.
func (c *Core) BeginRound() {
	if m := c.M; m != nil {
		m.Rounds.Inc()
	}
	c.View.IncrementAges()
}

// Reseed closes a system's PrepareRound, after its own upkeep: a view
// that ran empty is refilled from the re-bootstrap callback.
func (c *Core) Reseed() {
	if c.View.Len() == 0 && c.rebootstrap != nil {
		for _, d := range c.rebootstrap() {
			c.View.Add(d)
		}
	}
}

// SelectPeer implements exchange.Protocol with tail selection.
func (c *Core) SelectPeer() (view.Descriptor, bool) { return c.View.TakeOldest() }

// FillRequest implements exchange.Protocol: a random view subset plus
// this node's own fresh descriptor, without the target.
func (c *Core) FillRequest(q view.Descriptor, req *exchange.Req) {
	req.From = c.SelfDescriptor()
	req.Pub = append(c.View.RandomSubsetInto(c.Rng, c.shuffleSize-1, req.Pub), c.SelfDescriptor())
	req.Pub = exchange.DropNode(req.Pub, q.ID)
}

// NewResponse draws the pooled answer to a request from peer: a random
// view subset without the requester. The caller merges the request
// (Merge(res.Pub, received)) and sends the response.
func (c *Core) NewResponse(peer addr.NodeID) *exchange.Res {
	res := c.Eng.NewRes()
	res.From = c.SelfDescriptor()
	res.Pub = exchange.DropNode(c.View.RandomSubsetInto(c.Rng, c.shuffleSize, res.Pub), peer)
	return res
}

// Merge applies the swapper merge: received descriptors take the slots
// of the ones sent. The view copies what it keeps.
func (c *Core) Merge(sent, received []view.Descriptor) {
	if m := c.M; m != nil {
		m.Merges.Inc()
	}
	c.View.Merge(sent, received)
}

// MergeResponse implements exchange.Protocol with the plain swapper
// merge; a system that learns more from a response (nylon) declares its
// own on its policy.
func (c *Core) MergeResponse(res *exchange.Res, sentPub, _ []view.Descriptor) {
	c.Merge(sentPub, res.Pub)
}
