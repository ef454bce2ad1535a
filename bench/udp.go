package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
	"repro/internal/croupier"
	"repro/internal/deploy"
	"repro/internal/ratelimit"
	"repro/internal/view"
)

// udpSizes are the frozen sizes of udp_serve.
type udpSizes struct {
	Clients     int     `json:"clients"`      // closed loop, one request outstanding each
	PoolSize    int     `json:"pool_size"`    // pre-encoded requests generated from the seed
	Origins     int     `json:"origins"`      // estimate origins = public IDs in the pool
	Population  int     `json:"population"`   // node IDs the pool's descriptors draw from
	TickEvery   int     `json:"tick_every"`   // client 0 drives one gossip round per this many requests
	WarmupS     float64 `json:"warmup_s"`     // untimed warm-up before the measured phase
	UnitOps     int64   `json:"unit_ops"`     // frozen unit of work: wall_s is the time to this many round trips
	TimeoutMS   int     `json:"timeout_ms"`   // a request without a valid response by then has failed
	MemconnS    float64 `json:"memconn_s"`    // traced run: length of the in-memory-conn loop
	SampleEvery int     `json:"sample_every"` // traced run: one udp.roundtrip span per this many requests
}

var (
	udpFull  = udpSizes{Clients: 2, PoolSize: 1024, Origins: 4000, Population: 20000, TickEvery: 10000, WarmupS: 3, UnitOps: 500000, TimeoutMS: 200, MemconnS: 2, SampleEvery: 1000}
	udpSmoke = udpSizes{Clients: 2, PoolSize: 64, Origins: 400, Population: 2000, TickEvery: 500, WarmupS: 0.1, UnitOps: 2000, TimeoutMS: 200, MemconnS: 0.2, SampleEvery: 100}
)

// udpTailQ is the frozen tail percentile of round-trip times.
const udpTailQ = 0.99

// serveNodeID identifies the node under load; the pool's IDs stay below
// Population, so nothing collides with it.
const serveNodeID = addr.NodeID(1 << 40)

var errNoLoopback = errors.New("loopback UDP unavailable")

// loadConn is the socket surface a load-generating client drives;
// *net.UDPConn and memConn both offer it.
type loadConn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error)
	SetReadDeadline(t time.Time) error
	Close() error
}

// requestPool builds the pre-encoded shuffle requests: a private sender,
// 5 + 5 descriptors, 10 estimates over the origins — what a 20k-world
// croupier receives. Every endpoint in it is sink, a socket of the
// benchmark's own: the node under load gossips to the descriptors it is
// fed, and those datagrams must not leave the host.
func requestPool(seed int64, sz udpSizes, sink addr.Endpoint) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	pubID := func() addr.NodeID { return addr.NodeID(1 + rng.Intn(sz.Origins)) }
	priID := func() addr.NodeID { return addr.NodeID(sz.Origins + 1 + rng.Intn(sz.Population-sz.Origins)) }
	desc := func(id addr.NodeID, nat addr.NatType) view.Descriptor {
		return view.Descriptor{ID: id, Endpoint: sink, Nat: nat, Age: int32(rng.Intn(10))}
	}
	pool := make([][]byte, sz.PoolSize)
	for i := range pool {
		from := desc(priID(), addr.Private)
		from.Age = 0
		req := &croupier.ShuffleReq{From: from}
		for k := 0; k < 5; k++ {
			req.Pub = append(req.Pub, desc(pubID(), addr.Public))
		}
		for k := 0; k < 4; k++ {
			req.Pri = append(req.Pri, desc(priID(), addr.Private))
		}
		req.Pri = append(req.Pri, from)
		for k := 0; k < 10; k++ {
			req.Estimates = append(req.Estimates, croupier.Estimate{Node: pubID(), Value: 0.2 + 0.02*(rng.Float64()-0.5), Age: rng.Intn(40)})
		}
		pool[i] = deploy.EncodeShuffleReq(req)
	}
	return pool
}

// loadClient is one closed-loop client: it sends the next request only
// after the previous response arrived (or timed out).
type loadClient struct {
	conn    loadConn
	target  netip.AddrPort
	pool    [][]byte
	next    int
	sz      udpSizes
	shuffle int
	ticks   chan<- time.Time // client 0 only
	dec     deploy.Decoder
	buf     []byte

	sent, failed int64
	rtts         latHist // measured phase only
}

// serveShared is what the clients of one measured phase share.
type serveShared struct {
	start   time.Time
	seconds float64
	done    atomic.Int64 // valid responses so far, all clients
	unitOps int64
	unitNS  atomic.Int64 // wall ns at which done reached unitOps
	tr      *tracer
	span    int
}

// valid reports whether b is a ShuffleRes from the node under load with
// at most ShuffleSize descriptors per view.
func (c *loadClient) valid(b []byte) bool {
	msg, err := c.dec.Decode(b)
	if err != nil {
		return false
	}
	res, ok := msg.(*croupier.ShuffleRes)
	if !ok {
		if r, isReq := msg.(*croupier.ShuffleReq); isReq {
			r.Release()
		}
		return false
	}
	ok = res.From.ID == serveNodeID && len(res.Pub) <= c.shuffle && len(res.Pri) <= c.shuffle
	res.Release()
	return ok
}

// loop runs the closed loop. With sh nil it is the warm-up: it lasts
// warmup and records nothing. Otherwise it measures until both sh.seconds have
// passed and the frozen unit of work is complete.
func (c *loadClient) loop(warmup time.Duration, sh *serveShared) {
	start := time.Now()
	timeout := time.Duration(c.sz.TimeoutMS) * time.Millisecond
	for i := 0; ; i++ {
		req := c.pool[c.next]
		c.next = (c.next + 1) % len(c.pool)
		if c.ticks != nil && i%c.sz.TickEvery == c.sz.TickEvery-1 {
			select {
			case c.ticks <- time.Now():
			default:
			}
		}
		t := time.Now()
		ok := false
		if _, err := c.conn.WriteToUDPAddrPort(req, c.target); err == nil {
			_ = c.conn.SetReadDeadline(t.Add(timeout)) // a failed deadline shows up as a failed read
			if n, _, err := c.conn.ReadFromUDPAddrPort(c.buf); err == nil {
				ok = c.valid(c.buf[:n])
			}
		}
		now := time.Now()
		if sh == nil {
			if now.Sub(start) >= warmup {
				return
			}
			continue
		}
		c.sent++
		if !ok {
			c.failed++
		} else {
			rtt := now.Sub(t)
			c.rtts.add(rtt.Nanoseconds())
			if sh.tr != nil && i%c.sz.SampleEvery == 0 {
				sh.tr.record(sh.span, "udp.roundtrip", t, rtt)
			}
			if sh.done.Add(1) == sh.unitOps {
				sh.unitNS.Store(now.Sub(sh.start).Nanoseconds())
			}
		}
		if now.Sub(sh.start).Seconds() >= sh.seconds && sh.done.Load() >= sh.unitOps {
			return
		}
		// A dead node must not hold the run past the contract's time cap.
		if now.Sub(sh.start).Seconds() >= sh.seconds+60 {
			return
		}
	}
}

// serveOutcome is what one closed-loop run measured.
type serveOutcome struct {
	setup, wall, unitWall float64
	sent, failed          int64
	rtts                  latHist
	phase                 phaseDelta
}

// serve starts a node on nodeConn (nil = a real loopback UDP socket),
// warms it up and drives the closed loop from the clients' sockets for
// seconds. sink is where the pool's descriptors point. The spans hang
// under env.root; a traced env also gets the measured phase's CPU shares.
func serve(env *runEnv, sz udpSizes, seconds float64, nodeConn deploy.PacketConn, conns []loadConn, sink addr.Endpoint) (serveOutcome, map[string]float64, error) {
	var out serveOutcome
	tr := env.tr
	setupSpan := tr.begin(env.root, "phase:setup")
	t0 := time.Now()
	ticks := make(chan time.Time, 1)
	const open = 1e7 // admits the legitimate load; Allow still runs
	cfg := deploy.NodeConfig{
		Listen: "127.0.0.1:0", Conn: nodeConn, ID: serveNodeID, Nat: addr.Public,
		Ticks:     ticks,
		RateLimit: ratelimit.Config{PeerRate: open, PeerBurst: open, GlobalRate: open, GlobalBurst: open},
		Seed:      env.cfg.seed,
		Registry:  env.reg,
	}
	node, err := deploy.StartNode(cfg)
	if err != nil {
		return out, nil, fmt.Errorf("%w: %v", errNoLoopback, err)
	}
	defer node.Close()
	ep := node.Endpoint()
	target := netip.AddrPortFrom(netip.AddrFrom4([4]byte{byte(ep.IP >> 24), byte(ep.IP >> 16), byte(ep.IP >> 8), byte(ep.IP)}), ep.Port)

	pool := requestPool(env.cfg.seed, sz, sink)
	shuffle := croupier.DefaultConfig().Params.ShuffleSize
	clients := make([]*loadClient, len(conns))
	for i, conn := range conns {
		clients[i] = &loadClient{conn: conn, target: target, pool: pool, next: i * len(pool) / len(conns), sz: sz, shuffle: shuffle,
			buf: make([]byte, 2048)}
	}
	clients[0].ticks = ticks

	var wg sync.WaitGroup
	each := func(fn func(c *loadClient)) {
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(c)
			}()
		}
		wg.Wait()
	}
	warm := tr.begin(setupSpan, "udp.warm_up")
	each(func(c *loadClient) { c.loop(time.Duration(sz.WarmupS*float64(time.Second)), nil) })
	tr.end(warm)
	out.setup = time.Since(t0).Seconds()
	tr.end(setupSpan)

	measureSpan := tr.begin(env.root, "phase:measure")
	stopProfile := env.startProfile()
	clock := startPhase()
	sh := &serveShared{start: clock.t0, seconds: seconds, unitOps: sz.UnitOps, tr: tr, span: measureSpan}
	each(func(c *loadClient) { c.loop(0, sh) })
	out.phase = clock.stop()
	shares := stopProfile()
	tr.end(measureSpan)

	out.wall = out.phase.wall
	out.unitWall = float64(sh.unitNS.Load()) / 1e9
	for _, c := range clients {
		out.sent += c.sent
		out.failed += c.failed
		out.rtts.merge(&c.rtts)
	}
	return out, shares, nil
}

// listenLoopback binds one UDP socket on 127.0.0.1.
func listenLoopback() (*net.UDPConn, error) {
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errNoLoopback, err)
	}
	return c, nil
}

// drain reads and discards until the socket closes: the sink for the
// gossip the node under load initiates itself.
func drain(c loadConn, wg *sync.WaitGroup) {
	defer wg.Done()
	buf := make([]byte, 2048)
	for {
		if _, _, err := c.ReadFromUDPAddrPort(buf); err != nil {
			return // closed
		}
	}
}

// runUDP is udp_serve: one public deploy.Node on a real 127.0.0.1 UDP
// socket under a closed loop of two clients — the only workload that
// runs deploy (read loop → size check → ratelimit → inbox → Decoder →
// croupier core → encode → send) and wire; no simulator layer runs.
// Traffic crosses the host's loopback interface, not a real link.
func runUDP(env *runEnv, res *result) error {
	sz := udpFull
	if env.cfg.smoke {
		sz = udpSmoke
	}
	res.Sizes["udp"] = sz

	var sinkWG sync.WaitGroup
	sinkConn, err := listenLoopback()
	if err != nil {
		return err
	}
	sinkWG.Add(1)
	go drain(sinkConn, &sinkWG)
	defer func() {
		sinkConn.Close()
		sinkWG.Wait()
	}()
	sinkPort := sinkConn.LocalAddr().(*net.UDPAddr).Port
	sink := addr.Endpoint{IP: addr.MakeIP(127, 0, 0, 1), Port: uint16(sinkPort)}

	conns := make([]loadConn, sz.Clients)
	for i := range conns {
		c, err := listenLoopback()
		if err != nil {
			return err
		}
		defer c.Close()
		conns[i] = c
	}
	deltas := env.counterDeltas()
	out, shares, err := serve(env, sz, env.cfg.seconds, nil, conns, sink)
	if err != nil {
		return err
	}
	res.Counters = deltas()

	n := int(out.rtts.n)
	p50, tail := out.rtts.quantile(0.5)/1e6, out.rtts.quantile(udpTailQ)/1e6
	res.Attempted, res.Failed = out.sent, out.failed
	failFrac := float64(out.failed) / math.Max(1, float64(out.sent))
	res.check("responses_valid", out.failed == 0 && out.sent > 0, "%d of %d requests got no valid ShuffleRes from the node within %d ms", out.failed, out.sent, sz.TimeoutMS)
	res.check("unit_complete", out.unitWall > 0, "%d round trips, frozen unit is %d", out.sent-out.failed, sz.UnitOps)
	// Responses depend on how the two clients interleave, so what repeats
	// for a seed is the input: the request pool, hashed without the sink's
	// ephemeral port.
	h := sha256.New()
	for _, b := range requestPool(env.cfg.seed, sz, addr.Endpoint{IP: sink.IP}) {
		h.Write(b)
	}
	res.Fingerprint = hex.EncodeToString(h.Sum(nil)[:12])

	okOps := float64(out.sent - out.failed)
	res.set("setup_s", out.setup, 0)
	res.set("wall_s", out.unitWall, 0)
	res.set("op_ms_p50", p50, n)
	res.set("op_ms_tail", tail, n)
	res.set("ops_per_s", okOps/out.wall, int(okOps))
	res.set("peak_rss_mb", peakRSSMB(), 0)
	res.set("allocs_per_op", float64(out.phase.mallocs)/math.Max(1, float64(out.sent)), 0)
	res.Detail["req_per_s"] = okOps / out.wall
	res.Detail["rtt_us_p50"] = p50 * 1000
	res.Detail["rtt_us_p99"] = tail * 1000
	res.Detail["fail_frac"] = failFrac
	res.Detail["measured_s"] = out.wall

	if !env.cfg.trace {
		return nil
	}
	for l, s := range shares {
		res.layer(l+".cpu_share", s)
	}
	res.layer("sim.cpu_per_wall", out.phase.cpu/out.phase.wall)
	rx := math.Max(1, float64(res.Counters["deploy_udp_rx_total"]))
	res.layer("deploy.inbox_drop_frac", float64(res.Counters["deploy_inbox_drops_total"])/rx)
	res.layer("deploy.decode_err_frac", float64(res.Counters["deploy_decode_errors_total"])/rx)
	res.layer("deploy.rl_drop_frac", float64(res.Counters["deploy_ratelimit_dropped_total"])/rx)

	// The same node and closed loop over an in-memory conn: the program's
	// receive path without the kernel's.
	memSpan := env.tr.begin(env.root, "phase:memconn")
	mn := newMemNet()
	memConns := make([]loadConn, sz.Clients)
	for i := range memConns {
		memConns[i] = mn.listen()
	}
	memSink := mn.listen()
	sinkWG.Add(1)
	go drain(memSink, &sinkWG)
	// Untraced settings (no registry, no second profile), same span log.
	memEnv := &runEnv{cfg: env.cfg, tr: env.tr, root: memSpan}
	memEnv.cfg.trace = false
	memSz := sz
	memSz.UnitOps = 1
	memSz.WarmupS = sz.WarmupS / 3
	mem, _, err := serve(memEnv, memSz, sz.MemconnS, mn.listen(), memConns, memSink.endpoint())
	for _, c := range memConns {
		c.Close()
	}
	memSink.Close()
	env.tr.end(memSpan)
	if err != nil {
		return err
	}
	memRate := float64(mem.sent-mem.failed) / mem.wall
	res.layer("deploy.memconn_req_per_s", memRate)
	if memRate > 0 {
		res.layer("deploy.udp_kernel_share", 1-(okOps/out.wall)/memRate)
	}
	return nil
}
