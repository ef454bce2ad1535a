// Command croupier-node runs the Croupier peer-sampling service over
// real UDP — the open-internet deployment the paper leaves as future
// work.
//
// Usage:
//
//	croupier-node bootstrap -listen <ip:port>
//	    Run the bootstrap directory.
//
//	croupier-node run -listen <ip:port> -directory <ip:port> -nat public|private [-id N] [-advertise <ip:port>]
//	    Run one node. Determine -nat out-of-band or with `natprobe`;
//	    -advertise overrides the endpoint placed in the node's own
//	    descriptor (e.g. the NAT's public mapping reported by natprobe).
//	    Prints the ratio estimate and a peer sample once per second.
//	    With -metrics-addr, serves Prometheus metrics on /metrics, a
//	    JSON protocol-state snapshot on /state (the real-kernel testlab
//	    scrapes it to rebuild the overlay graph), and the standard
//	    net/http/pprof profiling endpoints. The receive path is
//	    hardened with deploy.NodeConfig's defaults (rate limits, bounded
//	    tables, origin-interner eviction every 512 rounds);
//	    -keepalive-every sets the NAT mapping refresh. On
//	    SIGINT/SIGTERM the node drains gracefully for up to -drain
//	    before the socket is released.
//
//	croupier-node demo [-duration D] [-metrics-addr <ip:port>] [-flood]
//	    Self-contained loopback swarm: a directory plus 5 public and
//	    10 private nodes in one process, reporting convergence. With
//	    -flood, a junk UDP blaster attacks one node so the rate-limit
//	    and oversize counters can be observed on -metrics-addr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/addr"
	"repro/internal/croupier"
	"repro/internal/deploy"
	"repro/internal/metrics"
	"repro/internal/pss"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "croupier-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: croupier-node bootstrap|run|demo [flags]")
	}
	switch args[0] {
	case "bootstrap":
		return runBootstrap(args[1:])
	case "run":
		return runNode(args[1:])
	case "demo":
		return demo(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func runBootstrap(args []string) error {
	fs := flag.NewFlagSet("bootstrap", flag.ContinueOnError)
	listen := fs.String("listen", "0.0.0.0:7000", "UDP address to listen on")
	ttl := fs.Duration("ttl", 30*time.Second, "registration expiry")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv, err := deploy.ListenBootstrap(*listen, *ttl, time.Now().UnixNano())
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("bootstrap directory on %v (ttl %v)\n", srv.Endpoint(), *ttl)
	waitForSignal()
	return nil
}

func runNode(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	listen := fs.String("listen", "0.0.0.0:0", "UDP address to bind")
	directory := fs.String("directory", "", "bootstrap directory endpoint")
	natStr := fs.String("nat", "", "NAT type: public or private")
	advertise := fs.String("advertise", "", "endpoint to advertise in the node's descriptor (empty = bound address; set to the NAT's public mapping)")
	id := fs.Uint64("id", 0, "node id (0 = random)")
	period := fs.Duration("period", time.Second, "gossip round period")
	metricsAddr := fs.String("metrics-addr", "", "HTTP address for /metrics and pprof (empty = disabled)")
	keepaliveEvery := fs.Int("keepalive-every", 10, "NATed nodes ping public peers every N rounds to hold port mappings (0 = off)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown window on SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *directory == "" {
		return fmt.Errorf("-directory is required")
	}
	dir, err := addr.ParseEndpoint(*directory)
	if err != nil {
		return err
	}
	var natType addr.NatType
	switch *natStr {
	case "public":
		natType = addr.Public
	case "private":
		natType = addr.Private
	default:
		return fmt.Errorf("-nat must be public or private (use natprobe to find out)")
	}
	var adv addr.Endpoint
	if *advertise != "" {
		adv, err = addr.ParseEndpoint(*advertise)
		if err != nil {
			return err
		}
	}
	nodeID := addr.NodeID(*id)
	if nodeID == 0 {
		nodeID = addr.NodeID(rand.New(rand.NewSource(time.Now().UnixNano())).Uint64())
	}
	cfg := croupier.DefaultConfig()
	cfg.Params.Period = *period
	// A long-lived node must not grow its origin interner forever.
	cfg.CompactOriginsEvery = 512

	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
	}
	node, err := deploy.StartNode(deploy.NodeConfig{
		Listen:         *listen,
		ID:             nodeID,
		Nat:            natType,
		Advertise:      adv,
		Directory:      dir,
		Croupier:       cfg,
		KeepaliveEvery: *keepaliveEvery,
		Registry:       reg,
	})
	if err != nil {
		return err
	}
	defer node.Close()
	fmt.Printf("node %v (%v) gossiping on %v\n", nodeID, natType, node.Endpoint())

	if reg != nil {
		// The pprof import registered its handlers on the default mux;
		// add the Prometheus scrape and the state snapshot next to them.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
		http.HandleFunc("/state", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(node.State())
		})
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Printf("metrics and pprof on http://%v/\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "croupier-node: metrics server:", err)
			}
		}()
	}

	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	sig := signalChan()
	for {
		select {
		case <-ticker.C:
			est, ok := node.Estimate()
			sample, sok := node.Sample()
			if !ok {
				fmt.Printf("round %3d: estimate pending, %d neighbors\n",
					node.Rounds(), len(node.Neighbors()))
				continue
			}
			line := fmt.Sprintf("round %3d: ratio=%.3f neighbors=%d", node.Rounds(), est, len(node.Neighbors()))
			if sok {
				line += fmt.Sprintf(" sample=%v", sample.ID)
			}
			fmt.Println(line)
		case s := <-sig:
			// Graceful lifecycle: stop initiating gossip, keep
			// answering in-flight exchanges until the pending table
			// drains (or the window runs out), then free the socket.
			fmt.Printf("%v: draining for up to %v...\n", s, *drain)
			if err := node.Shutdown(*drain); err != nil {
				return fmt.Errorf("shutdown: %w", err)
			}
			fmt.Println("drained; bye")
			return nil
		}
	}
}

func demo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	duration := fs.Duration("duration", 10*time.Second, "how long to run the swarm")
	metricsAddr := fs.String("metrics-addr", "", "HTTP address for /metrics and pprof (empty = disabled)")
	flood := fs.Bool("flood", false, "blast junk and oversize datagrams at one node to exercise the hardening path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv, err := deploy.ListenBootstrap("127.0.0.1:0", 10*time.Second, 1)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("bootstrap directory: %v\n", srv.Endpoint())

	cfg := croupier.DefaultConfig()
	cfg.Params = pss.Params{ViewSize: 10, ShuffleSize: 5, Period: 100 * time.Millisecond}

	reg := metrics.NewRegistry()
	if *metricsAddr != "" {
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Printf("metrics and pprof on http://%v/\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "croupier-node: metrics server:", err)
			}
		}()
	}

	var nodes []*deploy.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for i := 1; i <= 15; i++ {
		natType := addr.Private
		if i <= 5 {
			natType = addr.Public
		}
		n, err := deploy.StartNode(deploy.NodeConfig{
			Listen:         "127.0.0.1:0",
			ID:             addr.NodeID(i),
			Nat:            natType,
			Directory:      srv.Endpoint(),
			Croupier:       cfg,
			KeepaliveEvery: 10,
			Registry:       reg,
		})
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
		fmt.Printf("started node %2d (%v) on %v\n", i, natType, n.Endpoint())
		if natType == addr.Public {
			time.Sleep(120 * time.Millisecond) // let publics register first
		}
	}

	stopFlood := make(chan struct{})
	if *flood {
		// A junk blaster far beyond the per-peer budget: the victim must
		// shed the excess at the rate limiter before any decode work, and
		// reject the oversize frames at the size check.
		attacker, err := net.Dial("udp", nodes[0].Endpoint().String())
		if err != nil {
			return fmt.Errorf("flood socket: %w", err)
		}
		fmt.Printf("flooding node %v with junk datagrams...\n", nodes[0].Endpoint())
		go func() {
			defer attacker.Close()
			junk := []byte("croupier-node demo: junk flood datagram")
			oversized := make([]byte, 4096)
			for {
				select {
				case <-stopFlood:
					return
				default:
				}
				for i := 0; i < 100; i++ {
					attacker.Write(junk)
				}
				attacker.Write(oversized)
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}

	fmt.Println("\ngossiping with 100 ms rounds (true ratio 5/15 = 0.333)...")
	seconds := int(*duration / time.Second)
	if seconds < 1 {
		seconds = 1
	}
	for i := 0; i < seconds; i++ {
		time.Sleep(time.Second)
		sum, cnt := 0.0, 0
		for _, n := range nodes {
			if est, ok := n.Estimate(); ok {
				sum += est
				cnt++
			}
		}
		if cnt == 0 {
			fmt.Printf("t=%2ds: no estimates yet\n", i+1)
			continue
		}
		fmt.Printf("t=%2ds: %d/%d nodes estimating, mean ratio %.3f\n",
			i+1, cnt, len(nodes), sum/float64(cnt))
	}
	close(stopFlood)
	if *flood {
		fmt.Printf("hardening: ratelimit_dropped=%d oversize=%d decode_errors=%d\n",
			reg.Counter("deploy_ratelimit_dropped_total", "").Value(),
			reg.Counter("deploy_oversize_total", "").Value(),
			reg.Counter("deploy_decode_errors_total", "").Value())
	}
	return nil
}

func waitForSignal() { <-signalChan() }

func signalChan() chan os.Signal {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	return c
}
