// The pss.Protocol contract, tested once for all four systems: what a
// driver (internal/world, deploy.Node) relies on when it builds a node
// and wires it up, independent of how the system crosses NATs. Each
// system's own package tests only what is particular to it.
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/croupier"
	"repro/internal/cyclon"
	"repro/internal/exchange"
	"repro/internal/gozar"
	"repro/internal/nylon"
	"repro/internal/pss"
	"repro/internal/view"
	"repro/internal/wire"
)

// sentTo is a stub exchange.Transport recording each destination.
type sentTo []addr.Endpoint

func (s *sentTo) Send(to addr.Endpoint, _ wire.Message) { *s = append(*s, to) }

func TestProtocolContract(t *testing.T) {
	type build func(tr exchange.Transport, nat addr.NatType, seeds []view.Descriptor) (pss.Protocol, error)
	const self = addr.NodeID(1)
	selfEP := addr.Endpoint{IP: addr.MakeIP(192, 0, 2, 1), Port: 100}
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }
	systems := []struct {
		name  string
		build build
		// natBlind marks cyclon: no NAT handling, every node public.
		natBlind bool
	}{
		{name: "croupier", build: func(tr exchange.Transport, nat addr.NatType, seeds []view.Descriptor) (pss.Protocol, error) {
			return croupier.NewWithTransport(croupier.DefaultConfig(), self, rng(), tr, nat, selfEP, seeds)
		}},
		{name: "cyclon", natBlind: true, build: func(tr exchange.Transport, nat addr.NatType, seeds []view.Descriptor) (pss.Protocol, error) {
			return cyclon.New(cyclon.DefaultConfig(), self, rng(), tr, nat, selfEP, seeds)
		}},
		{name: "gozar", build: func(tr exchange.Transport, nat addr.NatType, seeds []view.Descriptor) (pss.Protocol, error) {
			return gozar.New(gozar.DefaultConfig(), self, rng(), tr, nat, selfEP, seeds)
		}},
		{name: "nylon", build: func(tr exchange.Transport, nat addr.NatType, seeds []view.Descriptor) (pss.Protocol, error) {
			return nylon.New(nylon.DefaultConfig(), self, rng(), tr, nat, selfEP, seeds)
		}},
	}
	pub := func(id int) view.Descriptor {
		return view.Descriptor{ID: addr.NodeID(id), Endpoint: addr.Endpoint{IP: addr.MakeIP(192, 0, 2, byte(id)), Port: 100}, Nat: addr.Public}
	}
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			// An unidentified NAT type is refused at construction —
			// except by cyclon, which treats every node as public.
			n, err := sys.build(new(sentTo), addr.NatUnknown, nil)
			switch {
			case sys.natBlind && (err != nil || n.NatType() != addr.Public):
				t.Errorf("NatUnknown: got (%v, %v), want a public node", n, err)
			case !sys.natBlind && err == nil:
				t.Error("constructor accepted NatUnknown")
			}
			wantNat := addr.Private
			if sys.natBlind {
				wantNat = addr.Public
			}
			n, err = sys.build(new(sentTo), addr.Private, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n.ID() != self || n.NatType() != wantNat {
				t.Errorf("private node reports (%v, %v), want (%v, %v)", n.ID(), n.NatType(), self, wantNat)
			}

			// Seeds land in the view.
			var sent sentTo
			n, err = sys.build(&sent, addr.Public, []view.Descriptor{pub(2), pub(3)})
			if err != nil {
				t.Fatal(err)
			}
			got := map[addr.NodeID]bool{}
			for _, d := range n.Neighbors() {
				got[d.ID] = true
			}
			if len(got) != 2 || !got[2] || !got[3] {
				t.Errorf("Neighbors after seeding = %v, want nodes 2 and 3", n.Neighbors())
			}

			// The selection trace records under the node's own id, and a
			// nil instrument set is safe on the round and packet paths.
			trace := exchange.NewTrace(1)
			n.SetSelectionTrace(trace)
			n.SetMetrics(nil)
			n.RunRound()
			n.HandlePacket(wire.Packet{From: pub(3).Endpoint, Msg: &exchange.Req{From: pub(3), Pub: []view.Descriptor{pub(4)}}})
			if ev := trace.Events(); len(ev) != 1 || ev[0].Selector != self || !got[ev[0].Selected] {
				t.Errorf("trace = %v, want one selection by %v of a seed", ev, self)
			}
			if len(sent) == 0 {
				t.Error("a round with a seeded view sent nothing")
			}

			// An empty view re-bootstraps at the next round, and the
			// round goes on to shuffle with what it was given.
			sent = nil
			n, err = sys.build(&sent, addr.Public, nil)
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			n.SetRebootstrap(func() []view.Descriptor { calls++; return []view.Descriptor{pub(5)} })
			n.RunRound()
			if calls != 1 {
				t.Errorf("re-bootstrap callback ran %d times on an empty view, want 1", calls)
			}
			if len(sent) != 1 || sent[0] != pub(5).Endpoint {
				t.Errorf("round after re-bootstrap sent to %v, want the fresh seed %v", []addr.Endpoint(sent), pub(5).Endpoint)
			}
		})
	}
}
