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
// with RunRound and HandlePacket (see pss.Protocol). Everything but the
// direct send is the shared single-view core.
type Node struct {
	pss.Core
}

// New constructs a Cyclon node seeded with the given descriptors. The
// signature is the one all four systems share; Cyclon has no NAT
// handling, so the NAT type is ignored and every node advertises
// itself public.
func New(cfg Config, id addr.NodeID, rng *rand.Rand, tr exchange.Transport,
	_ addr.NatType, selfEP addr.Endpoint, seeds []view.Descriptor) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	core, err := pss.NewCore("cyclon", cfg.Params, cfg.PendingTTL, id, rng, tr, addr.Public, selfEP, seeds)
	if err != nil {
		return nil, err
	}
	return &Node{Core: core}, nil
}

// RunRound implements pss.Protocol: one gossip round through the
// exchange engine.
func (n *Node) RunRound() { n.Eng.RunRound((*policy)(n)) }

// policy adapts the node to the exchange engine's strategy hooks; the
// core supplies SelectPeer, FillRequest and MergeResponse.
type policy Node

// PrepareRound implements exchange.Protocol; Cyclon has no upkeep of
// its own.
func (p *policy) PrepareRound(int) {
	p.BeginRound()
	p.Reseed()
}

// Deliver implements exchange.Protocol: every Cyclon node is public, so
// requests always go direct.
func (p *policy) Deliver(q view.Descriptor, req *ShuffleReq) exchange.Delivery {
	p.Sock.Send(q.Endpoint, req)
	return exchange.Sent
}

// HandlePacket implements pss.Protocol. Payload slices are pooled and
// recycled after the handler returns; the view merge copies what it
// keeps.
func (n *Node) HandlePacket(pkt wire.Packet) {
	switch m := pkt.Msg.(type) {
	case *ShuffleReq:
		res := n.NewResponse(m.From.ID)
		n.Merge(res.Pub, m.Pub)
		n.Sock.Send(pkt.From, res)
	case *ShuffleRes:
		n.Eng.HandleResponse((*policy)(n), m)
	}
}

var (
	_ pss.Protocol      = (*Node)(nil)
	_ exchange.Protocol = (*policy)(nil)
)
