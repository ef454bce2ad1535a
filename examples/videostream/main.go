// Videostream: epidemic dissemination of stream chunks over Croupier
// samples — the application the paper's future work targets ("we will
// integrate our existing P2P video-streaming applications with
// Croupier").
//
// A public source injects one chunk per round. Every node periodically
// pulls the newest chunks from a node sampled through the PSS. Pulls are
// NAT-honest: a node can only pull from a sampled peer it can actually
// reach (public peers, since unsolicited dials to private peers would be
// filtered), which is exactly why the sample stream must be unbiased —
// a PSS that under-represents public nodes would starve the swarm.
//
//	go run ./examples/videostream
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/addr"
	"repro/internal/croupier"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/world"
)

const (
	appPort  = 3000
	nodes    = 100
	rounds   = 90
	chunkLen = 30 // chunks emitted by the source
)

// pullReq asks a peer for every chunk newer than Have.
type pullReq struct {
	Have  int
	Reply addr.Endpoint
}

// Size implements wire.Message (4-byte chunk index + endpoint).
func (pullReq) Size() int { return 10 }

// pullRes returns the chunk range (Have, Newest]; real streams carry
// payload, so the size model charges 1350 B per chunk.
type pullRes struct {
	Newest int
	Count  int
}

// Size implements wire.Message.
func (m pullRes) Size() int { return 4 + m.Count*1350 }

// player is the per-node streaming state.
type player struct {
	newest int // newest contiguous chunk held
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	w, err := world.New(world.Config{Kind: world.KindCroupier, Seed: 7, SkipNatID: true})
	if err != nil {
		return err
	}
	players := make(map[addr.NodeID]*player, nodes)
	sockets := make(map[addr.NodeID]*simnet.Socket, nodes)

	join := func(jn func() (*world.Node, error)) error {
		n, err := jn()
		if err != nil {
			return err
		}
		p := &player{newest: -1}
		players[n.ID] = p
		sock, err := n.Host.Bind(appPort, func(pkt wire.Packet) {
			switch m := pkt.Msg.(type) {
			case pullReq:
				if p.newest > m.Have {
					sockets[n.ID].Send(m.Reply, pullRes{Newest: p.newest, Count: p.newest - m.Have})
				}
			case pullRes:
				if m.Newest > p.newest {
					p.newest = m.Newest
				}
			}
		})
		if err != nil {
			return err
		}
		sockets[n.ID] = sock
		return nil
	}

	for i := 0; i < nodes/5; i++ {
		if err := join(w.JoinPublic); err != nil {
			return err
		}
	}
	for i := 0; i < nodes-nodes/5; i++ {
		if err := join(w.JoinPrivate); err != nil {
			return err
		}
	}

	// Let the PSS converge before streaming starts.
	w.RunUntil(20 * time.Second)

	source := w.AliveNodes()[0] // a public node (joined first)
	fmt.Printf("source: node %v (%v)\n\n", source.ID, source.Nat)
	fmt.Printf("%8s %10s %10s %10s\n", "round", "chunks", "coverage", "lag<=3")

	for r := 0; r < rounds; r++ {
		now := w.Sched.Now()
		// The source emits one chunk per round until the stream ends.
		if r < chunkLen {
			players[source.ID].newest = r
		}
		// Every node pulls from one PSS sample per round.
		for _, n := range w.AliveNodes() {
			n := n
			c := n.Proto.(*croupier.Node)
			p := players[n.ID]
			d, ok := c.Sample()
			if !ok || d.Nat != addr.Public || d.ID == n.ID {
				continue // NAT-honest: only public peers accept dials
			}
			reply := n.Endpoint
			reply.Port = appPort
			target := d.Endpoint
			target.Port = appPort
			sockets[n.ID].Send(target, pullReq{Have: p.newest, Reply: reply})
		}
		w.RunUntil(now + time.Second)

		if (r+1)%10 == 0 {
			have, fresh := 0, 0
			streamHead := min(r, chunkLen-1)
			for _, p := range players {
				if p.newest >= 0 {
					have++
				}
				if streamHead-p.newest <= 3 {
					fresh++
				}
			}
			fmt.Printf("%8d %10d %9.0f%% %9.0f%%\n",
				r+1, streamHead+1,
				100*float64(have)/float64(nodes),
				100*float64(fresh)/float64(nodes))
		}
	}

	// Final check: everyone should have caught up with the stream head.
	caught := 0
	for _, p := range players {
		if p.newest == chunkLen-1 {
			caught++
		}
	}
	fmt.Printf("\n%d/%d nodes finished the full stream (%d chunks)\n", caught, nodes, chunkLen)
	if caught < nodes*9/10 {
		return fmt.Errorf("dissemination stalled: only %d/%d caught up", caught, nodes)
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
