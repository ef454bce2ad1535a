package cyclon

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/latency"
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

func (r *rig) node(t *testing.T, id addr.NodeID, seeds []view.Descriptor) *Node {
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
	n, err = New(DefaultConfig(), h.ID(), r.rng(), sock, addr.Public, addr.Endpoint{IP: h.IP(), Port: 100}, seeds)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func desc(id int, age int) view.Descriptor {
	return view.Descriptor{
		ID:       addr.NodeID(id),
		Endpoint: addr.Endpoint{IP: addr.MakeIP(9, 0, 0, byte(id)), Port: 100},
		Nat:      addr.Public,
		Age:      int32(age),
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cfg.PendingTTL = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted zero pending TTL")
	}
	cfg = DefaultConfig()
	cfg.Params.ViewSize = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted negative view size")
	}
}

func TestRoundUsesTailSelection(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, []view.Descriptor{desc(2, 9), desc(3, 1)})
	n.RunRound()
	if n.View.Contains(2) {
		t.Fatal("oldest descriptor not removed on shuffle")
	}
	if !n.View.Contains(3) {
		t.Fatal("younger descriptor removed")
	}
}

func TestTwoNodeExchange(t *testing.T) {
	r := newRig(t)
	a := r.node(t, 1, []view.Descriptor{desc(3, 0), desc(4, 0)})
	b := r.node(t, 2, []view.Descriptor{desc(5, 0), desc(6, 0)})
	a.View.Add(view.Descriptor{ID: 2, Endpoint: b.SelfDescriptor().Endpoint, Nat: addr.Public, Age: 50})

	a.RunRound()
	r.sched.Run()

	learnedFromB := a.View.Contains(5) || a.View.Contains(6)
	if !learnedFromB {
		t.Fatal("requester learned nothing")
	}
	if !b.View.Contains(1) {
		t.Fatal("responder did not learn the requester")
	}
}

func TestSelfNeverEntersOwnView(t *testing.T) {
	r := newRig(t)
	a := r.node(t, 1, []view.Descriptor{desc(2, 5)})
	b := r.node(t, 2, nil)
	_ = b
	for i := 0; i < 10; i++ {
		a.RunRound()
		r.sched.Run()
	}
	if a.View.Contains(1) {
		t.Fatal("node added itself to its own view")
	}
}

func TestUnsolicitedResponseIgnored(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, nil)
	n.HandlePacket(wire.Packet{Msg: &ShuffleRes{From: desc(9, 0), Pub: []view.Descriptor{desc(8, 0)}}})
	if n.View.Contains(8) {
		t.Fatal("unsolicited response merged")
	}
}

func TestSampleUniformOverView(t *testing.T) {
	r := newRig(t)
	seeds := []view.Descriptor{desc(2, 0), desc(3, 0), desc(4, 0), desc(5, 0)}
	n := r.node(t, 1, seeds)
	counts := make(map[addr.NodeID]int)
	const trials = 4000
	for i := 0; i < trials; i++ {
		d, ok := n.Sample()
		if !ok {
			t.Fatal("sample failed")
		}
		counts[d.ID]++
	}
	for id, c := range counts {
		frac := float64(c) / trials
		if frac < 0.18 || frac > 0.32 {
			t.Fatalf("node %v sampled with frequency %.3f, want ~0.25", id, frac)
		}
	}
}

// TestTickerDrivesRounds drives a node the way internal/world does: the
// rig owns the ticker, the node only counts rounds.
func TestTickerDrivesRounds(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, []view.Descriptor{desc(2, 0)})
	period := DefaultConfig().Params.Period
	tk := sim.StartTicker(r.sched, period, sim.RandomPhase(r.sched, period), n.RunRound)
	r.sched.RunUntil(3 * time.Second)
	rounds := n.Rounds()
	if rounds < 2 || rounds > 4 {
		t.Fatalf("rounds = %d after 3s, want ~3", rounds)
	}
	tk.Stop()
	n.Stop()
	n.Stop() // idempotent
	r.sched.RunUntil(10 * time.Second)
	if n.Rounds() != rounds {
		t.Fatal("rounds advanced after the ticker stopped")
	}
}

func TestDeadTargetPurgedByTailSelection(t *testing.T) {
	r := newRig(t)
	n := r.node(t, 1, []view.Descriptor{desc(99, 50)}) // 99 does not exist
	n.RunRound()
	r.sched.Run()
	if n.View.Contains(99) {
		t.Fatal("dead descriptor survived a shuffle attempt")
	}
}
