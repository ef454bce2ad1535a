// Package cyclon implements the Cyclon peer-sampling service (Voulgaris
// et al., 2005), the paper's baseline for true randomness.
//
// Cyclon maintains a single bounded view and swaps random subsets with
// the oldest neighbour each round. Following the paper's setup, this
// implementation uses the same tail selection and swapper merging
// policies as Croupier, and its experiments run with public nodes only —
// classic Cyclon has no NAT handling at all. Being the simplest of the
// four systems, it is also the smallest instantiation of the shared
// exchange engine: its strategy hooks are a direct send and a plain
// swapper merge.
package cyclon

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/exchange"
	"repro/internal/pss"
	"repro/internal/view"
	"repro/internal/wire"
)

// Config parameterises one Cyclon node.
type Config struct {
	// Params holds view size, shuffle size and round period.
	Params pss.Params
	// PendingTTL bounds how many rounds sent-shuffle state is retained.
	PendingTTL int
}

// DefaultConfig matches the paper's experimental setup.
func DefaultConfig() Config {
	return Config{Params: pss.DefaultParams(), PendingTTL: 5}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.PendingTTL <= 0 {
		return fmt.Errorf("cyclon: pending TTL must be positive, got %d", c.PendingTTL)
	}
	return nil
}

// ShuffleReq initiates a view exchange with the oldest neighbour; the
// subset travels in the pooled request's Pub slice.
type ShuffleReq = exchange.Req

// ShuffleRes answers a ShuffleReq.
type ShuffleRes = exchange.Res

// Node is one Cyclon instance: a state machine its driver advances
// with RunRound and HandlePacket (see pss.Protocol).
type Node struct {
	cfg  Config
	sock exchange.Transport
	rng  *rand.Rand
	eng  *exchange.Engine

	self addr.NodeID
	ep   addr.Endpoint

	view        *view.View
	rebootstrap func() []view.Descriptor

	// m is the (typically world-shared) instrument set; nil when
	// uninstrumented.
	m *pss.Metrics
}

// SetMetrics implements pss.Protocol, installing shared instruments on
// the node and its exchange engine.
func (n *Node) SetMetrics(m *pss.Metrics) {
	n.m = m
	if m != nil {
		n.eng.SetMetrics(m.Exchange)
	}
}

// SetSelectionTrace implements pss.Protocol, recording this node's
// partner selections into the shared trace.
func (n *Node) SetSelectionTrace(t *exchange.Trace) { n.eng.SetTrace(n.self, t) }

// New constructs a Cyclon node seeded with the given descriptors. The
// signature is the one all four systems share; Cyclon has no NAT
// handling, so the NAT type is ignored and every node advertises
// itself public.
func New(cfg Config, id addr.NodeID, rng *rand.Rand, tr exchange.Transport,
	_ addr.NatType, selfEP addr.Endpoint, seeds []view.Descriptor) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng, err := exchange.NewEngine(cfg.PendingTTL)
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, sock: tr, rng: rng, eng: eng, self: id, ep: selfEP}
	n.view = view.New(cfg.Params.ViewSize, n.self)
	for _, d := range seeds {
		n.view.Add(d)
	}
	return n, nil
}

// ID implements pss.Protocol.
func (n *Node) ID() addr.NodeID { return n.self }

// NatType implements pss.Protocol; Cyclon nodes are always public.
func (n *Node) NatType() addr.NatType { return addr.Public }

// Rounds returns the number of rounds executed.
func (n *Node) Rounds() int { return n.eng.Rounds() }

// Neighbors implements pss.Protocol.
func (n *Node) Neighbors() []view.Descriptor { return n.view.Descriptors() }

// Sample implements pss.Protocol with a uniform draw from the view.
func (n *Node) Sample() (view.Descriptor, bool) { return n.view.Random(n.rng) }

// SetRebootstrap implements pss.Protocol: fn is queried for fresh seed
// descriptors whenever the view runs empty, mirroring a real client
// re-contacting the bootstrap service instead of staying isolated.
func (n *Node) SetRebootstrap(fn func() []view.Descriptor) { n.rebootstrap = fn }

// Stop implements pss.Protocol; Cyclon publishes no occupancy gauges.
func (n *Node) Stop() {}

func (n *Node) selfDescriptor() view.Descriptor {
	return view.Descriptor{ID: n.self, Endpoint: n.ep, Nat: addr.Public}
}

// RunRound implements pss.Protocol: one gossip round through the
// exchange engine.
func (n *Node) RunRound() { n.eng.RunRound((*policy)(n)) }

// policy adapts the node to the exchange engine's strategy hooks.
type policy Node

// PrepareRound implements exchange.Protocol.
func (p *policy) PrepareRound(int) {
	n := (*Node)(p)
	if m := n.m; m != nil {
		m.Rounds.Inc()
	}
	n.view.IncrementAges()
	if n.view.Len() == 0 && n.rebootstrap != nil {
		for _, d := range n.rebootstrap() {
			n.view.Add(d)
		}
	}
}

// SelectPeer implements exchange.Protocol with tail selection.
func (p *policy) SelectPeer() (view.Descriptor, bool) {
	return (*Node)(p).view.TakeOldest()
}

// FillRequest implements exchange.Protocol: a random view subset plus
// this node's own fresh descriptor.
func (p *policy) FillRequest(q view.Descriptor, req *ShuffleReq) {
	n := (*Node)(p)
	req.From = n.selfDescriptor()
	req.Pub = append(n.view.RandomSubsetInto(n.rng, n.cfg.Params.ShuffleSize-1, req.Pub), n.selfDescriptor())
	req.Pub = exchange.DropNode(req.Pub, q.ID)
}

// Deliver implements exchange.Protocol: every Cyclon node is public, so
// requests always go direct.
func (p *policy) Deliver(q view.Descriptor, req *ShuffleReq) exchange.Delivery {
	(*Node)(p).sock.Send(q.Endpoint, req)
	return exchange.Sent
}

// MergeResponse implements exchange.Protocol with the swapper merge.
func (p *policy) MergeResponse(res *ShuffleRes, sentPub, _ []view.Descriptor) {
	n := (*Node)(p)
	if m := n.m; m != nil {
		m.Merges.Inc()
	}
	n.view.Merge(sentPub, res.Pub)
}

// HandlePacket implements pss.Protocol. Payload slices are pooled and
// recycled after the handler returns; the view merge copies what it
// keeps.
func (n *Node) HandlePacket(pkt wire.Packet) {
	switch m := pkt.Msg.(type) {
	case *ShuffleReq:
		n.handleReq(pkt.From, m)
	case *ShuffleRes:
		n.eng.HandleResponse((*policy)(n), m)
	}
}

func (n *Node) handleReq(from addr.Endpoint, req *ShuffleReq) {
	res := n.eng.NewRes()
	res.From = n.selfDescriptor()
	res.Pub = exchange.DropNode(n.view.RandomSubsetInto(n.rng, n.cfg.Params.ShuffleSize, res.Pub), req.From.ID)
	if m := n.m; m != nil {
		m.Merges.Inc()
	}
	n.view.Merge(res.Pub, req.Pub)
	n.sock.Send(from, res)
}

var (
	_ pss.Protocol      = (*Node)(nil)
	_ exchange.Protocol = (*policy)(nil)
)
