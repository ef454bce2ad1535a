package deploy

import (
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/croupier"
	"repro/internal/metrics"
	"repro/internal/view"
)

// liveHeap returns the bytes the process retains. It collects twice:
// a sync.Pool hands its contents to a victim cache at the first cycle
// and drops them at the second, and how many 64 KiB receive buffers the
// nodes' pools hold at any instant follows how far the host's load let
// the inboxes fill — cache the runtime reclaims on its own, not state
// the deployment keeps.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSoakDeployment is the deployment-hardening soak: a compressed
// 20-node deployment driven for thousands of simulated rounds through
// a gauntlet of faults — a ~60% loss burst, a dead-directory window, a
// junk flood with oversize datagrams, and node churn — then torn down
// with a mix of graceful Shutdown and hard Close. Gossip must recover
// after every fault, memory must stay under a hard ceiling, and no
// goroutine may outlive the deployment.
func TestSoakDeployment(t *testing.T) {
	rounds := 10000
	if testing.Short() {
		rounds = 2500
	}
	const (
		publics  = 6
		privates = 14
		total    = publics + privates
	)
	baseGoroutines := runtime.NumGoroutine()
	// HeapAlloc is process-wide: whatever this package's other tests
	// left live is in it, so the ceiling below bounds growth over this
	// baseline, not the absolute figure.
	baseHeap := liveHeap()

	fab := newFabric()
	var clock fakeClock
	reg := metrics.NewRegistry()
	dir := &testDirectory{}

	cfg := croupier.DefaultConfig()
	cfg.CompactOriginsEvery = 200 // exercise interner eviction under churned origins

	nodes := make(map[int]*Node)
	ticks := make(map[int]chan time.Time)
	isPublic := make(map[int]bool)
	startSoakNode := func(i int, nat addr.NatType) {
		t.Helper()
		ch := make(chan time.Time)
		n, err := StartNode(NodeConfig{
			Conn:           fab.bind(memAddr(i)),
			ID:             addr.NodeID(i),
			Nat:            nat,
			Croupier:       cfg,
			FetchSeeds:     dir.fetch,
			Ticks:          ch,
			Now:            clock.now,
			KeepaliveEvery: 10,
			Registry:       reg,
		})
		if err != nil {
			t.Fatalf("StartNode(%d): %v", i, err)
		}
		nodes[i] = n
		ticks[i] = ch
		isPublic[i] = nat == addr.Public
		if nat == addr.Public {
			dir.add(view.Descriptor{ID: addr.NodeID(i), Endpoint: n.Endpoint(), Nat: addr.Public})
		}
	}
	for i := 1; i <= publics; i++ {
		startSoakNode(i, addr.Public)
	}
	for i := publics + 1; i <= total; i++ {
		startSoakNode(i, addr.Private)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	attacker := fab.bind(memAddr(999))
	defer attacker.Close()
	junk := []byte("soak junk: not a croupier datagram")
	oversized := make([]byte, 4096)

	responses := reg.Counter("exchange_responses_total", "")
	expired := reg.Counter("exchange_expired_total", "")
	rlDropped := reg.Counter("deploy_ratelimit_dropped_total", "")
	oversize := reg.Counter("deploy_oversize_total", "")
	reseedFails := reg.Counter("deploy_rebootstrap_failures_total", "")

	tickAll := func() {
		clock.advance(int64(time.Second))
		for _, ch := range ticks {
			ch <- time.Time{}
		}
	}

	// waitResponses spins simulated rounds until the exchange counter
	// grows across the fleet, proving gossip recovered after a fault.
	waitResponses := func(fault string, round int) {
		t.Helper()
		before := responses.Value()
		deadline := time.Now().Add(30 * time.Second)
		for responses.Value() < before+uint64(len(nodes)) {
			if !time.Now().Before(deadline) {
				t.Fatalf("gossip did not recover after %s (round %d): %d → %d responses",
					fault, round, before, responses.Value())
			}
			tickAll()
			time.Sleep(time.Millisecond)
		}
	}

	// Fault windows, as fractions of the run.
	lossFrom, lossTo := rounds*10/100, rounds*15/100
	deadFrom, deadTo := rounds*30/100, rounds*35/100
	floodFrom, floodTo := rounds*50/100, rounds*55/100
	churnEvery := rounds / 40

	var lossCounter atomic.Uint64
	next := total // next node ID for churn replacements
	for r := 1; r <= rounds; r++ {
		switch r {
		case lossFrom:
			// Deterministic ~60% loss.
			fab.setDrop(func(_, _ netip.AddrPort, _ []byte) bool {
				return lossCounter.Add(1)%5 < 3
			})
		case lossTo:
			fab.setDrop(nil)
			waitResponses("loss burst", r)
		case deadFrom:
			// The dark phase: directory down AND total loss, so views
			// decay to empty and every re-bootstrap attempt fails.
			dir.setDead(true)
			fab.setDrop(dropAll)
		case deadTo:
			dir.setDead(false)
			fab.setDrop(nil)
			waitResponses("dead directory", r)
		case floodTo:
			waitResponses("junk flood", r)
		}
		// Steady churn: every churnEvery rounds one public (never
		// nodes 1-2, the long-lived probes) and one private die hard
		// and fresh IDs join. Dead publics stay registered — stale
		// seeds every joiner must survive — and their retired origin
		// IDs pile into every interner until compaction fires. (Joins
		// need a live directory, so churn pauses during the dead
		// window.)
		if churnEvery > 0 && r%churnEvery == 0 && (r < deadFrom || r >= deadTo) {
			pubVictim, priVictim := 0, 0
			for i := range nodes {
				if isPublic[i] && i > 2 && pubVictim == 0 {
					pubVictim = i
				}
				if !isPublic[i] && priVictim == 0 {
					priVictim = i
				}
			}
			for _, victim := range []int{pubVictim, priVictim} {
				if victim == 0 {
					continue
				}
				wasPublic := isPublic[victim]
				nodes[victim].Close()
				delete(nodes, victim)
				delete(ticks, victim)
				delete(isPublic, victim)
				next++
				if wasPublic {
					startSoakNode(next, addr.Public)
				} else {
					startSoakNode(next, addr.Private)
				}
			}
		}
		// Junk flood: a 300-datagram burst inside one simulated second
		// far exceeds the per-peer budget, so the tail must die at the
		// rate limiter; the oversize datagram dies at the size check.
		// Nodes 1 and 2 are never churned, so the targets are alive.
		if r >= floodFrom && r < floodTo && r%10 == 0 {
			for i := 0; i < 300; i++ {
				attacker.WriteToUDPAddrPort(junk, memAddr(1))
			}
			attacker.WriteToUDPAddrPort(oversized, memAddr(2))
		}
		tickAll()
	}

	// Every fault left its fingerprint in the metrics.
	if expired.Value() == 0 {
		t.Error("loss burst produced no TTL expiries")
	}
	if reseedFails.Value() == 0 {
		t.Error("dead directory produced no rebootstrap failures")
	}
	if rlDropped.Value() == 0 {
		t.Error("junk flood was not rate-limited")
	}
	if oversize.Value() == 0 {
		t.Error("oversize datagrams were not rejected")
	}

	// Survivors are healthy: still gossiping, views populated. The
	// long-lived publics must have compacted their interners rather
	// than growing append-only under the churned origin population
	// (fresh churn replacements legitimately may not have yet).
	for i, n := range nodes {
		if got := n.Rounds(); got == 0 {
			t.Errorf("node %d ran no rounds", i)
		}
		if len(n.Neighbors()) == 0 {
			t.Errorf("node %d finished the soak with an empty view", i)
		}
		if i <= 2 && n.core.OriginEpochs() == 0 {
			t.Errorf("node %d never compacted its origin interner (holds %d origins)",
				i, n.core.OriginsLen())
		}
		if got := n.core.OriginsLen(); got > 4096 {
			t.Errorf("node %d interner holds %d origins, want bounded", i, got)
		}
	}

	// Hard memory ceiling for the whole compressed deployment.
	if grown := int64(liveHeap()) - int64(baseHeap); grown > 64<<20 {
		t.Errorf("heap grew by %d MiB over %d rounds, want < 64 MiB", grown>>20, rounds)
	}

	// Teardown: graceful Shutdown for half the fleet (rounds keep
	// ticking in the background so pending tables drain on TTL), hard
	// Close for the rest.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			clock.advance(int64(time.Second))
			for _, ch := range ticks {
				select {
				case ch <- time.Time{}:
				default:
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	even := true
	for i, n := range nodes {
		if even {
			if err := n.Shutdown(10 * time.Second); err != nil {
				t.Errorf("Shutdown(%d): %v", i, err)
			}
		} else if err := n.Close(); err != nil {
			t.Errorf("Close(%d): %v", i, err)
		}
		even = !even
	}
	close(stop)
	attacker.Close()

	// Zero leaked goroutines: everything wound down with the nodes.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines {
		if !time.Now().Before(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > %d at start\n%s",
				runtime.NumGoroutine(), baseGoroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
