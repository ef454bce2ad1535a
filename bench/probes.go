package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/addr"
	"repro/internal/bootstrap"
	"repro/internal/croupier"
	"repro/internal/deploy"
	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/nat"
	"repro/internal/ratelimit"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/view"
	"repro/internal/wire"
	"repro/internal/world"
)

// The layer probes: micro-drivers that call one layer's public API at
// least 1e5 times in batches, a span per batch, and report the median
// batch's time per call. They run after every traced workload, so each
// per-layer number sits next to the workload it explains.

// probeSink keeps results alive so the compiler cannot drop the calls.
var probeSink uint64

// probeSizes scale the probes; smoke keeps tests fast.
type probeSizes struct {
	batches, per int // API probes: batches × calls per batch
	worldNodes   int // node_round_us worlds
	worldWarm    int // warm rounds before timing
	worldRounds  int // timed rounds
	origins      int // identities behind estimate, intern and bootstrap probes
	wheelEvents  int // pending events in sim.schedule_step_ns
	graphOrder   int // vertices of the graph probes' overlay
	latencyNodes int // population of latency.delay_ns pairs
}

var (
	probesFull  = probeSizes{batches: 20, per: 5000, worldNodes: 2000, worldWarm: 20, worldRounds: 10, origins: 4000, wheelEvents: 60000, graphOrder: 1000, latencyNodes: 20000}
	probesSmoke = probeSizes{batches: 3, per: 200, worldNodes: 200, worldWarm: 5, worldRounds: 3, origins: 400, wheelEvents: 2000, graphOrder: 100, latencyNodes: 2000}
)

// timeCalls runs fn in batches and returns the median batch's
// nanoseconds per call.
func timeCalls(tr *tracer, parent int, name string, batches, per int, fn func()) float64 {
	ns := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		var sp int
		if tr != nil {
			sp = tr.begin(parent, fmt.Sprintf("%s#%d", name, b))
		}
		t := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		d := time.Since(t)
		tr.end(sp)
		ns = append(ns, float64(d.Nanoseconds())/float64(per))
	}
	return median(ns)
}

// probeMsg is a payload for the simnet probes.
type probeMsg struct{}

func (probeMsg) Size() int { return 100 }

// stubTransport stands in for a socket under the croupier core: it
// remembers where the last message went and recycles it.
type stubTransport struct{ last addr.Endpoint }

func (s *stubTransport) Send(to addr.Endpoint, msg simnet.Message) {
	s.last = to
	if r, ok := msg.(simnet.Releasable); ok {
		r.Release()
	}
}

// stubProtocol is the cheapest exchange.Protocol: exchange.round_ns is
// then the engine's own round machinery (pending table, pools, expiry).
type stubProtocol struct {
	descs []view.Descriptor
	next  int
}

func (p *stubProtocol) PrepareRound(int) {}
func (p *stubProtocol) SelectPeer() (view.Descriptor, bool) {
	p.next++
	return p.descs[p.next%len(p.descs)], true
}
func (p *stubProtocol) FillRequest(_ view.Descriptor, req *exchange.Req) {
	req.From = p.descs[0]
	req.Pub = append(req.Pub, p.descs[1:6]...)
}
func (p *stubProtocol) Deliver(_ view.Descriptor, req *exchange.Req) exchange.Delivery {
	req.Release()
	return exchange.Sent
}
func (p *stubProtocol) MergeResponse(*exchange.Res, []view.Descriptor, []view.Descriptor) {}

// probeEndpoint derives an endpoint from an ID, so a stub can map a
// destination back to the node it belongs to.
func probeEndpoint(id addr.NodeID) addr.Endpoint {
	return addr.Endpoint{IP: addr.IP(id), Port: world.ProtoPort}
}

// runProbes measures every API probe into res.
func runProbes(env *runEnv, res *result) {
	ps := probesFull
	if env.cfg.smoke {
		ps = probesSmoke
	}
	tr := env.tr
	root := tr.begin(env.root, "phase:probes")
	defer tr.end(root)
	rng := rand.New(rand.NewSource(env.cfg.seed))
	probe := func(name string, fn func()) float64 {
		return timeCalls(tr, root, name, ps.batches, ps.per, fn)
	}
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "bench: probe %s skipped: %v\n", name, err)
	}

	pubDesc := func(id addr.NodeID) view.Descriptor {
		return view.Descriptor{ID: id, Endpoint: probeEndpoint(id), Nat: addr.Public}
	}
	priDesc := func(id addr.NodeID) view.Descriptor {
		return view.Descriptor{ID: id, Endpoint: probeEndpoint(id), Nat: addr.Private}
	}
	randPub := func() addr.NodeID { return addr.NodeID(1 + rng.Intn(ps.origins)) }
	randPri := func() addr.NodeID { return addr.NodeID(ps.origins + 1 + rng.Intn(4*ps.origins)) }
	estimates := func() []croupier.Estimate {
		es := make([]croupier.Estimate, 10)
		for i := range es {
			es[i] = croupier.Estimate{Node: randPub(), Value: 0.2 + 0.02*(rng.Float64()-0.5), Age: rng.Intn(40)}
		}
		return es
	}
	const poolSize = 1024
	reqs := make([]*croupier.ShuffleReq, poolSize)
	ress := make([]*croupier.ShuffleRes, poolSize)
	for i := range reqs {
		from := priDesc(randPri())
		req := &croupier.ShuffleReq{From: from, Estimates: estimates()}
		res := &croupier.ShuffleRes{Estimates: estimates()}
		for k := 0; k < 5; k++ {
			req.Pub = append(req.Pub, pubDesc(randPub()))
			res.Pub = append(res.Pub, pubDesc(randPub()))
			res.Pri = append(res.Pri, priDesc(randPri()))
		}
		for k := 0; k < 4; k++ {
			req.Pri = append(req.Pri, priDesc(randPri()))
		}
		req.Pri = append(req.Pri, from)
		reqs[i], ress[i] = req, res
	}

	// croupier: the responder path is the estimate store's merge + draw,
	// measured from outside, with the store at 20k-world occupancy.
	{
		stub := &stubTransport{}
		self := addr.NodeID(1 << 40)
		seeds := []view.Descriptor{pubDesc(1), pubDesc(2), pubDesc(3), pubDesc(4), pubDesc(5)}
		node, err := croupier.NewWithTransport(croupier.DefaultConfig(), self, rand.New(rand.NewSource(env.cfg.seed)), stub, addr.Public, probeEndpoint(self), seeds)
		if err != nil {
			fail("croupier", err)
		} else {
			i := 0
			handle := func() {
				req := reqs[i%poolSize]
				i++
				node.HandlePacket(simnet.Packet{From: req.From.Endpoint, Msg: req})
			}
			// Fill the store, ageing it a round per thousand requests as a
			// loaded croupier would.
			for k := 0; k < 20000; k++ {
				handle()
				if k%1000 == 999 {
					node.RunRound()
				}
			}
			res.layer("croupier.handle_req_ns", probe("croupier.HandlePacket", handle))
			res.layer("croupier.round_ns", probe("croupier.RunRound", func() {
				stub.last = addr.Endpoint{}
				node.RunRound()
				if stub.last.IsZero() {
					handle() // the public view ran dry; refill it
					return
				}
				r := ress[i%poolSize]
				i++
				r.From = pubDesc(addr.NodeID(stub.last.IP))
				node.HandlePacket(simnet.Packet{From: stub.last, Msg: r})
			}))
		}
	}

	// One small steady world per system: what a node-round costs, all
	// layers together, for each of the four protocols.
	for _, kind := range suiteKinds {
		name := kind.String() + ".node_round_us"
		sp := tr.begin(root, "world.steady{"+kind.String()+"}")
		w, err := world.New(world.Config{Kind: kind, Seed: env.cfg.seed, SkipNatID: true})
		if err != nil {
			fail(name, err)
			tr.end(sp)
			continue
		}
		pub := ps.worldNodes / 5
		w.MixedPoissonJoins(0, pub, ps.worldNodes-pub, time.Millisecond)
		now := time.Duration(ps.worldNodes)*time.Millisecond + time.Duration(ps.worldWarm)*time.Second
		w.RunUntil(now)
		rounds := make([]float64, 0, ps.worldRounds)
		for i := 0; i < ps.worldRounds; i++ {
			rs := tr.begin(sp, fmt.Sprintf("world.RunUntil#%d", i))
			t := time.Now()
			now += time.Second
			w.RunUntil(now)
			rounds = append(rounds, float64(time.Since(t).Microseconds()))
			tr.end(rs)
		}
		tr.end(sp)
		res.layer(name, median(rounds)/float64(len(w.AliveIDs())))
	}

	// sim: one Step that re-schedules itself, on a wheel kept at the
	// steady world's pending-event depth.
	{
		s := sim.New(env.cfg.seed)
		var again func()
		again = func() { s.Schedule(time.Second, again) }
		for i := 0; i < ps.wheelEvents; i++ {
			s.Schedule(time.Duration(rng.Int63n(int64(time.Second))), again)
		}
		res.layer("sim.schedule_step_ns", probe("sim.Step", func() { s.Step() }))
	}
	// sim.Group: windows and barriers with next to no work in them.
	if g, err := sim.NewGroup(env.cfg.seed, 2, time.Millisecond); err != nil {
		fail("sim.group_window_us", err)
	} else {
		for i := 0; i < g.NumShards(); i++ {
			sh := g.Shard(i)
			var again func()
			again = func() { sh.Schedule(time.Millisecond, again) }
			sh.Schedule(0, again)
		}
		span := time.Duration(ps.per/5) * time.Millisecond
		windows := float64(span / g.Lookahead())
		perSpan := timeCalls(tr, root, "sim.Group.RunUntil", 5, 1, func() { g.RunUntil(g.Now() + span) })
		res.layer("sim.group_window_us", perSpan/windows/1e3)
	}

	// simnet: send + delivery, direct and through each kind of gateway.
	{
		type path struct {
			metric  string
			private bool
			mapping nat.MappingPolicy
		}
		for _, p := range []path{
			{"simnet.send_deliver_ns.pub", false, 0},
			{"simnet.send_deliver_ns.cone", true, nat.MappingEndpointIndependent},
			{"simnet.send_deliver_ns.sym", true, nat.MappingAddressPortDependent},
		} {
			sched := sim.New(env.cfg.seed)
			net, err := simnet.New(sched, simnet.Config{Latency: latency.Constant(10 * time.Millisecond)})
			if err != nil {
				fail(p.metric, err)
				continue
			}
			var src, dst *simnet.Host
			if p.private {
				cfg := nat.DefaultConfig(0)
				cfg.Mapping = p.mapping
				src, err = net.AddPrivateHost(1, cfg)
			} else {
				src, err = net.AddPublicHost(1)
			}
			if err == nil {
				dst, err = net.AddPublicHost(2)
			}
			if err != nil {
				fail(p.metric, err)
				continue
			}
			replies := 0
			var dstSock *simnet.Socket
			dstSock, err = dst.Bind(world.ProtoPort, func(pkt simnet.Packet) {
				if p.private {
					dstSock.Send(pkt.From, probeMsg{})
				} else {
					replies++
				}
			})
			var srcSock *simnet.Socket
			if err == nil {
				srcSock, err = src.Bind(world.ProtoPort, func(simnet.Packet) { replies++ })
			}
			if err != nil {
				fail(p.metric, err)
				continue
			}
			to := addr.Endpoint{IP: dst.IP(), Port: world.ProtoPort}
			// Keep packets in flight, as a busy world does: a wheel that
			// drains after every delivery pays a full rotation per send.
			const inFlight = 64
			calls := inFlight
			for i := 0; i < inFlight; i++ {
				srcSock.Send(to, probeMsg{})
			}
			hops := 1
			if p.private {
				hops = 2
			}
			ns := probe(p.metric, func() {
				calls++
				srcSock.Send(to, probeMsg{})
				for h := 0; h < hops; h++ {
					sched.Step()
				}
			})
			sched.Run()
			if replies != calls {
				fail(p.metric, fmt.Errorf("%d of %d exchanges completed", replies, calls))
				continue
			}
			res.layer(p.metric, ns)
		}
	}

	// nat: the warm translation pair, and the allocation a fresh mapping
	// costs — the same layer used the way construction uses it.
	{
		var now time.Duration
		gw, err := nat.NewGateway(nat.DefaultConfig(addr.MakeIP(1, 2, 3, 4)), func() time.Duration { return now }, nil)
		if err != nil {
			fail("nat", err)
		} else {
			src := addr.Endpoint{IP: addr.MakeIP(10, 0, 0, 2), Port: world.ProtoPort}
			dst := addr.Endpoint{IP: addr.MakeIP(5, 6, 7, 8), Port: world.ProtoPort}
			pub := gw.Outbound(src, dst)
			res.layer("nat.outbound_ns", probe("nat.Outbound", func() { probeSink += uint64(gw.Outbound(src, dst).Port) }))
			res.layer("nat.inbound_ns", probe("nat.Inbound", func() {
				if _, ok := gw.Inbound(dst, pub); ok {
					probeSink++
				}
			}))
			expiry := gw.Config().MappingTimeout + time.Second
			res.layer("nat.new_mapping_ns", probe("nat.Outbound{fresh}", func() {
				now += expiry
				probeSink += uint64(gw.Outbound(src, dst).Port)
			}))
		}
	}

	// latency: random pairs, coordinates memoised as in a warm world.
	{
		k := latency.NewKingLike(env.cfg.seed)
		pairs := make([][2]addr.NodeID, 1<<14)
		for i := range pairs {
			pairs[i] = [2]addr.NodeID{addr.NodeID(1 + rng.Intn(ps.latencyNodes)), addr.NodeID(1 + rng.Intn(ps.latencyNodes))}
		}
		for _, p := range pairs {
			k.Delay(p[0], p[1])
		}
		i := 0
		res.layer("latency.delay_ns", probe("latency.Delay", func() {
			p := pairs[i&(len(pairs)-1)]
			i++
			probeSink += uint64(k.Delay(p[0], p[1]))
		}))
	}

	// view and exchange.
	{
		descs := make([]view.Descriptor, ps.origins)
		for i := range descs {
			descs[i] = pubDesc(addr.NodeID(i + 2))
		}
		v := view.New(10, 1)
		for i := 0; i < 10; i++ {
			v.Add(descs[i])
		}
		// Each merge swaps out what the previous one brought in, so the
		// view stays full and every received descriptor is new to it.
		at := 10
		sent := descs[5:10]
		res.layer("view.merge_ns", probe("view.Merge", func() {
			if at+5 > len(descs) {
				at = 0
			}
			recv := descs[at : at+5]
			at += 5
			v.Merge(sent, recv)
			sent = recv
		}))
		var dst []view.Descriptor
		res.layer("view.subset_ns", probe("view.RandomSubsetInto", func() { dst = v.RandomSubsetInto(rng, 5, dst) }))

		eng, err := exchange.NewEngine(croupier.DefaultConfig().PendingTTL)
		if err != nil {
			fail("exchange.round_ns", err)
		} else {
			p := &stubProtocol{descs: descs}
			res.layer("exchange.round_ns", probe("exchange.RunRound", func() { eng.RunRound(p) }))
		}
	}

	// intern and bootstrap: the shared tables behind estimates and joins.
	{
		o := intern.NewOrigins()
		boot := bootstrap.NewServer()
		for id := 1; id <= ps.origins; id++ {
			o.Ref(addr.NodeID(id))
			boot.Register(pubDesc(addr.NodeID(id)))
		}
		res.layer("intern.ref_ns", probe("intern.Ref", func() { probeSink += uint64(o.Ref(randPub())) }))
		var dst []view.Descriptor
		res.layer("bootstrap.publics_into_ns", probe("bootstrap.PublicsInto", func() { dst = boot.PublicsInto(rng, 5, 1, dst) }))
	}

	// graph: the analyses every probe of the paper suite runs, on a
	// random overlay shaped like two full croupier views per node.
	{
		var o graph.Overlay
		for id := 1; id <= ps.graphOrder; id++ {
			row := o.Row(addr.NodeID(id))
			for k := 0; k < 20; k++ {
				row = append(row, addr.NodeID(1+rng.Intn(ps.graphOrder)))
			}
			o.SetRow(row)
		}
		var b graph.Builder
		few := max(1, ps.batches/4)
		res.layer("graph.build_us", timeCalls(tr, root, "graph.Build", ps.batches, 20, func() { b.Build(&o) })/1e3)
		snap := b.Build(&o)
		res.layer("graph.pathlen_ms", timeCalls(tr, root, "graph.AvgPathLength", few, 1, func() {
			avg, _ := snap.AvgPathLength(ps.graphOrder, rng)
			probeSink += uint64(avg)
		})/1e6)
		res.layer("graph.clustering_ms", timeCalls(tr, root, "graph.ClusteringCoefficient", few, 2, func() { probeSink += uint64(snap.ClusteringCoefficient() * 1e6) })/1e6)
		res.layer("graph.biggest_cluster_us", timeCalls(tr, root, "graph.BiggestCluster", ps.batches, 20, func() { probeSink += uint64(snap.BiggestCluster()) })/1e3)
	}

	// deploy codec, wire and ratelimit: the receive path's stages, one by one.
	{
		req, rsp := reqs[0], ress[0]
		rsp.From = pubDesc(1)
		reqFrame, resFrame := deploy.EncodeShuffleReq(req), deploy.EncodeShuffleRes(rsp)
		res.layer("deploy.encode_req_ns", probe("deploy.EncodeShuffleReq", func() { probeSink += uint64(len(deploy.EncodeShuffleReq(req))) }))
		res.layer("deploy.encode_res_ns", probe("deploy.EncodeShuffleRes", func() { probeSink += uint64(len(deploy.EncodeShuffleRes(rsp))) }))
		var dec deploy.Decoder
		decode := func(frame []byte) func() {
			return func() {
				msg, err := dec.Decode(frame)
				if err != nil {
					return
				}
				probeSink++
				if r, ok := msg.(simnet.Releasable); ok {
					r.Release()
				}
			}
		}
		res.layer("deploy.decode_req_ns", probe("deploy.Decode{req}", decode(reqFrame)))
		res.layer("deploy.decode_res_ns", probe("deploy.Decode{res}", decode(resFrame)))
		// Hostile frames: one cut in half, one whose first list claims
		// 255 descriptors (the count byte follows kind, flags and the
		// 17-byte sender descriptor).
		truncated := reqFrame[:len(reqFrame)/2]
		inflated := append([]byte(nil), reqFrame...)
		inflated[19] = 255
		junk := [2]func(){decode(truncated), decode(inflated)}
		i := 0
		res.layer("deploy.decode_junk_ns", probe("deploy.Decode{junk}", func() {
			junk[i&1]()
			i++
		}))
		res.layer("wire.reader_ns", probe("wire.Reader", func() {
			r := wire.NewReader(reqFrame)
			probeSink += uint64(r.U8()) + uint64(r.U8()) + r.U64() + uint64(r.Endpoint().Port) + uint64(r.U8()) + uint64(r.U16())
		}))

		const open = 1e9
		var now int64
		warm := ratelimit.New(ratelimit.Config{PeerRate: open, PeerBurst: open, GlobalRate: open, GlobalBurst: open}, now)
		res.layer("ratelimit.allow_ns", probe("ratelimit.Allow{warm}", func() {
			now += 1000
			probeSink += uint64(warm.Allow(now, 42))
		}))
		tight := ratelimit.New(ratelimit.Config{PeerRate: 1, PeerBurst: 1, GlobalRate: open, GlobalBurst: open}, now)
		tight.Allow(now, 42)
		res.layer("ratelimit.shed_ns", probe("ratelimit.Allow{shed}", func() {
			now += 1000
			probeSink += uint64(tight.Allow(now, 42))
		}))
		churn := ratelimit.New(ratelimit.Config{PeerRate: open, PeerBurst: open, GlobalRate: open, GlobalBurst: open, MaxPeers: 1024}, now)
		peer := uint64(0)
		res.layer("ratelimit.evict_ns", probe("ratelimit.Allow{evict}", func() {
			now += 1000
			peer++
			probeSink += uint64(churn.Allow(now, peer))
		}))
	}

	// metrics: the unit price of the observability plane.
	{
		c := metrics.NewRegistry().Counter("bench_probe_total", "Probe counter.")
		res.layer("metrics.counter_inc_ns", probe("metrics.Counter.Inc", c.Inc))
	}
}
