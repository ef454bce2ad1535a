// Package pss defines what every peer-sampling protocol in this
// repository has in common: the Protocol interface every driver
// programs against, the shared parameter set from the paper's
// experimental setup (§VII-A), the shared instrument sets, and Core —
// the single-view gossip node the three baselines embed (core.go).
package pss

import (
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/exchange"
	"repro/internal/view"
	"repro/internal/wire"
)

// Params are the gossip parameters shared by all four systems, defaulted
// to the paper's experimental setup: view size 10, shuffle subset 5, one
// round per second.
type Params struct {
	// ViewSize bounds each partial view (10 in the paper).
	ViewSize int
	// ShuffleSize bounds the subset of the view sent per exchange (5).
	ShuffleSize int
	// Period is the gossip round length (1 s).
	Period time.Duration
}

// DefaultParams returns the paper's experimental setup.
func DefaultParams() Params {
	return Params{ViewSize: 10, ShuffleSize: 5, Period: time.Second}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.ViewSize <= 0 {
		return fmt.Errorf("pss: view size must be positive, got %d", p.ViewSize)
	}
	if p.ShuffleSize <= 0 || p.ShuffleSize > p.ViewSize {
		return fmt.Errorf("pss: shuffle size %d outside (0, %d]", p.ShuffleSize, p.ViewSize)
	}
	if p.Period <= 0 {
		return fmt.Errorf("pss: period must be positive, got %v", p.Period)
	}
	return nil
}

// Protocol is one node's peer-sampling instance: a round-driven state
// machine that owns no clock and no socket. All four systems implement
// it and are built by one constructor shape,
//
//	New(cfg, id, rng, transport, natType, selfEP, seeds)
//
// (croupier's is named NewWithTransport). The driver — internal/world
// under simulated time, deploy.Node on UDP — calls RunRound once per
// gossip period and HandlePacket for every received message, all from
// one goroutine; every protocol timeout is counted in rounds. The
// experiment harness and the example applications program against this
// interface only, so any of the four systems can back them.
type Protocol interface {
	// ID returns the node's identifier.
	ID() addr.NodeID
	// NatType returns the node's connectivity class.
	NatType() addr.NatType
	// Sample draws one node, aiming for uniformity over live nodes.
	Sample() (view.Descriptor, bool)
	// Neighbors snapshots the node's current partial view(s), the
	// edges of the overlay graph used by the randomness metrics.
	Neighbors() []view.Descriptor

	// RunRound executes one gossip round.
	RunRound()
	// HandlePacket dispatches one received message. Payloads are
	// pooled: the node copies whatever it keeps.
	HandlePacket(pkt wire.Packet)
	// Stop retires the node's residue from the shared occupancy gauges
	// once its driver has stopped ticking it. A stopped protocol stays
	// queryable.
	Stop()

	// The setters wire a node into its driver; call them before the
	// first round. SetRebootstrap installs the callback queried for
	// fresh seeds when the view drains; SetMetrics the (typically
	// world-shared) instrument set; SetSelectionTrace the partner-
	// selection log internal/randcheck analyses. Nil detaches each.
	SetRebootstrap(fn func() []view.Descriptor)
	SetMetrics(m *Metrics)
	SetSelectionTrace(t *exchange.Trace)
}
