// Package world assembles complete simulated deployments: a network with
// NAT gateways, a bootstrap service, NAT-type identification at join
// time, and one peer-sampling protocol instance per node. The experiment
// harness, the examples and the integration tests all build on it.
//
// A world is deterministic: the same configuration and seed replays the
// same run event-for-event.
package world

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/addr"
	"repro/internal/bootstrap"
	"repro/internal/croupier"
	"repro/internal/cyclon"
	"repro/internal/exchange"
	"repro/internal/gozar"
	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/nat"
	"repro/internal/natid"
	"repro/internal/nylon"
	"repro/internal/pss"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/view"
	"repro/internal/wire"
)

// Well-known simulated ports.
const (
	// ProtoPort carries peer-sampling traffic.
	ProtoPort = 1000
	// NatIDPort carries NAT-type identification traffic.
	NatIDPort = 2000
)

const (
	// bootstrapPublics is how many public descriptors a joiner receives
	// from the directory.
	bootstrapPublics = 5
	// natIDTimeout bounds a joiner's NAT-type identification wait.
	natIDTimeout = 1500 * time.Millisecond
)

// Kind selects the peer-sampling system a world runs.
type Kind int

// The four systems evaluated in the paper.
const (
	KindCroupier Kind = iota + 1
	KindCyclon
	KindGozar
	KindNylon
)

// String returns the system name as used in the paper's figures.
func (k Kind) String() string {
	if k > 0 && int(k) < len(kinds) {
		return kinds[k].name
	}
	return "unknown"
}

// protoArgs are the constructor arguments every system shares (see
// pss.Protocol), assembled once per node by startProtocol.
type protoArgs struct {
	id    addr.NodeID
	rng   *rand.Rand
	tr    exchange.Transport
	nat   addr.NatType
	ep    addr.Endpoint
	seeds []view.Descriptor
}

// kinds is everything the world knows about each system, one row per
// Kind: its name, and how to build one node of it from the shared
// arguments — the system's Config field (zero selects its defaults),
// its constructor, and any hook only that system has. build also
// reports the round period the world ticks the node at. Adding or
// removing a system touches one row.
var kinds = [...]struct {
	name  string
	build func(w *World, a protoArgs) (pss.Protocol, time.Duration, error)
}{
	KindCroupier: {"croupier", func(w *World, a protoArgs) (pss.Protocol, time.Duration, error) {
		cfg := w.Cfg.Croupier
		if cfg.Params.ViewSize == 0 {
			cfg = croupier.DefaultConfig()
		}
		if cfg.Origins == nil {
			cfg.Origins = w.origins
		}
		n, err := croupier.NewWithTransport(cfg, a.id, a.rng, a.tr, a.nat, a.ep, a.seeds)
		return n, cfg.Params.Period, err
	}},
	KindCyclon: {"cyclon", func(w *World, a protoArgs) (pss.Protocol, time.Duration, error) {
		cfg := w.Cfg.Cyclon
		if cfg.Params.ViewSize == 0 {
			cfg = cyclon.DefaultConfig()
		}
		n, err := cyclon.New(cfg, a.id, a.rng, a.tr, a.nat, a.ep, a.seeds)
		return n, cfg.Params.Period, err
	}},
	KindGozar: {"gozar", func(w *World, a protoArgs) (pss.Protocol, time.Duration, error) {
		cfg := w.Cfg.Gozar
		if cfg.Params.ViewSize == 0 {
			cfg = gozar.DefaultConfig()
		}
		n, err := gozar.New(cfg, a.id, a.rng, a.tr, a.nat, a.ep, a.seeds)
		if err == nil && w.failover != nil {
			n.SetRelayEvents(w.failover.OnRelayEvents)
		}
		return n, cfg.Params.Period, err
	}},
	KindNylon: {"nylon", func(w *World, a protoArgs) (pss.Protocol, time.Duration, error) {
		cfg := w.Cfg.Nylon
		if cfg.Params.ViewSize == 0 {
			cfg = nylon.DefaultConfig()
		}
		n, err := nylon.New(cfg, a.id, a.rng, a.tr, a.nat, a.ep, a.seeds)
		if err == nil && w.failover != nil {
			n.SetRVPEvents(w.failover.OnRVPEvent)
		}
		return n, cfg.Params.Period, err
	}},
}

// Config describes a deployment.
type Config struct {
	// Kind selects the protocol. Required.
	Kind Kind
	// Seed drives all randomness in the run.
	Seed int64
	// Shards selects how many kernel shards execute node events (0 and
	// 1 both mean one). The world lane — joins, churn, probes — always
	// runs on the group's global scheduler; nodes are dealt round-robin
	// onto shard schedulers by ID. For a fixed seed the run is
	// byte-identical at every shard count: sharding changes wall-clock
	// time only. More than one shard requires a latency.Bounded model
	// with a positive MinDelay (the kernel's conservative lookahead).
	Shards int
	// Latency is the delay model; defaults to the King-like model
	// seeded with Seed.
	Latency latency.Model
	// Loss is the per-packet drop probability.
	Loss float64
	// NAT is the gateway template for private nodes (PublicIP is
	// allocated per node). Defaults to nat.DefaultConfig.
	NAT *nat.Config
	// SkipNatID starts protocols immediately with their declared NAT
	// type instead of running the identification protocol first. The
	// estimation experiments enable it for speed; protocol behaviour
	// is unchanged because identification is always correct for the
	// emulated gateways.
	SkipNatID bool
	// Registry, when non-nil, instruments the network and every node
	// with world-shared counters (one instrument set for all nodes, so
	// instrumentation cost is a nil check plus an atomic add per event).
	Registry *metrics.Registry
	// SelectionTrace, when non-nil, records every node's partner
	// selections into one world-shared log — the randomness-
	// verification hook internal/randcheck analyses. Same cost contract
	// as Registry: a world built without it pays one nil check per
	// round and is event-for-event identical to one before the hook
	// existed.
	SelectionTrace *exchange.Trace

	// Exactly one of the following is consulted, per Kind. Zero values
	// select each protocol's defaults.
	Croupier croupier.Config
	Cyclon   cyclon.Config
	Gozar    gozar.Config
	Nylon    nylon.Config
}

// Node is one deployed node: its host, protocol instance and metadata.
type Node struct {
	ID   addr.NodeID
	Host *simnet.Host
	// Proto is nil until the node finished NAT-type identification and
	// started gossiping.
	Proto pss.Protocol
	// Nat is the node's effective NAT type (declared at join, refined
	// by identification — a UPnP node joins private and turns public).
	Nat addr.NatType
	// Endpoint is the advertised protocol endpoint.
	Endpoint addr.Endpoint
	// JoinedAt is the virtual time the node attached.
	JoinedAt time.Duration

	alive    bool
	natidEnv *natidEnv
	// ticker drives Proto.RunRound on the node's shard; the world owns
	// time, the protocol instance only counts rounds.
	ticker *sim.Ticker
	// shard is the kernel shard the node executes on; rng is the node's
	// private stream for event-time world draws (re-bootstrap, natid
	// forwarder picks), seeded from the world stream at join so draws
	// made mid-window never touch a shared source.
	shard int
	rng   *rand.Rand
}

// actor returns the node's kernel actor id: IDs are dense from 1, so the
// actor is the zero-based slot.
func (n *Node) actor() int32 { return int32(n.ID - 1) }

// Alive reports whether the node is attached and running.
func (n *Node) Alive() bool { return n.alive }

// Started reports whether the protocol instance is gossiping.
func (n *Node) Started() bool { return n.Proto != nil }

// worldShard is the world's per-shard state: the shard scheduler, the
// shard's view of the selection trace, private bootstrap-draw scratch
// for event-time callbacks, and the deferred protocol starts collected
// between barriers. Node n lives on shard (n.ID-1) mod shard count.
type worldShard struct {
	sched *sim.Scheduler
	// trace is the shard's recording view of Cfg.SelectionTrace — the
	// master itself when the world runs a single shard.
	trace *exchange.Trace
	// seedBuf and picks are this shard's scratch for bootstrap
	// directory draws made at event time (re-bootstrap, forwarder
	// picks), which run concurrently across shards between barriers.
	seedBuf []view.Descriptor
	picks   []int
	// pendingStarts are natid completions recorded mid-window, started
	// at the next barrier in ID order.
	pendingStarts []deferredStart
}

// deferredStart is one node whose NAT-type identification finished and
// whose protocol instance starts at the next barrier.
type deferredStart struct {
	n    *Node
	sock *simnet.Socket
	nat  addr.NatType
}

// World is a complete simulated deployment.
type World struct {
	Cfg Config
	// Sched is the world lane: the group's global scheduler, where
	// joins, churn, probes and every other harness action run. Node
	// events run on the shard schedulers.
	Sched *sim.Scheduler
	Net   *simnet.Network
	Boot  *bootstrap.Server

	// group is the sharded kernel driving the run; shards is the
	// world's per-shard state, parallel to group's shard schedulers.
	group  *sim.Group
	shards []*worldShard
	// startScratch is reusable collection space for drainStarts.
	startScratch []deferredStart

	// nodes is the dense node table: IDs are issued sequentially from
	// 1, so nodes[id-1] is the node with that ID and slice order is
	// join order. Slots survive failure (the node is marked dead), so
	// every sweep and snapshot below runs over a flat slice with no map
	// hops.
	nodes  []*Node
	nextID uint64

	// origins is the world-shared identity interner every croupier
	// node's estimate store resolves origins through (the world runs on
	// one goroutine, so sharing is safe).
	origins *intern.Origins

	// seedBuf is reusable scratch for bootstrap directory draws — join
	// seeding, probe-helper picks, re-bootstrap and forwarder picks all
	// borrow it in turn. Draws into it are consumed (copied by the
	// protocol or filtered into caller-owned storage) before the next
	// draw; nothing retains it. Single-goroutine, like the world.
	seedBuf []view.Descriptor

	// protoMetrics is the world-shared instrument set handed to every
	// node; nil when the world is uninstrumented.
	protoMetrics *pss.Metrics

	// failover translates the gozar relay-set and nylon RVP lifecycle
	// hooks into the deploy_* counter series; nil when uninstrumented.
	failover *pss.FailoverMetrics
}

// New builds an empty world.
func New(cfg Config) (*World, error) {
	if cfg.Kind <= 0 || int(cfg.Kind) >= len(kinds) {
		return nil, fmt.Errorf("world: unknown protocol kind %d (a kind is required)", cfg.Kind)
	}
	if cfg.Latency == nil {
		cfg.Latency = latency.NewKingLike(cfg.Seed)
	}
	if cfg.NAT == nil {
		c := nat.DefaultConfig(0)
		cfg.NAT = &c
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	// The window width (and the barrier alignment grid natid worlds
	// need) comes from the latency floor. A single-shard world with an
	// unbounded model falls back to a 1 ms grid: with one shard the
	// grid only paces deferred starts, and any fixed value is
	// self-consistent.
	grid := time.Millisecond
	if b, ok := cfg.Latency.(latency.Bounded); ok && b.MinDelay() > 0 {
		grid = b.MinDelay()
	} else if cfg.Shards > 1 {
		return nil, fmt.Errorf("world: %d shards require a latency.Bounded model with a positive MinDelay", cfg.Shards)
	}
	group, err := sim.NewGroup(cfg.Seed, cfg.Shards, grid)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	net, err := simnet.NewSharded(group, simnet.Config{Latency: cfg.Latency, Loss: cfg.Loss, Seed: cfg.Seed, Registry: cfg.Registry})
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	w := &World{
		Cfg:     cfg,
		Sched:   group.Global(),
		Net:     net,
		Boot:    bootstrap.NewServer(),
		group:   group,
		origins: intern.NewOrigins(),
	}
	w.shards = make([]*worldShard, cfg.Shards)
	for i := range w.shards {
		ws := &worldShard{sched: group.Shard(i)}
		if cfg.SelectionTrace != nil {
			if cfg.Shards == 1 {
				// One shard records straight into the master: the
				// merged order equals execution order (selectors fire
				// in ascending-actor order at equal times), so the two
				// paths produce identical logs.
				ws.trace = cfg.SelectionTrace
			} else {
				ws.trace = cfg.SelectionTrace.Shard(ws.sched.Now)
			}
		}
		w.shards[i] = ws
	}
	if cfg.Shards > 1 && cfg.SelectionTrace != nil {
		tr := cfg.SelectionTrace
		group.OnBarrier(func(time.Duration) { tr.MergeShards() })
	}
	if !cfg.SkipNatID {
		// Deferred protocol starts drain at barriers; aligning barriers
		// to the grid makes the drain schedule — and with it the world
		// RNG draws protocol construction performs — independent of the
		// shard count.
		group.SetAlign(grid)
		group.OnBarrier(w.drainStarts)
	}
	if cfg.Registry != nil {
		w.protoMetrics = pss.NewMetrics(cfg.Registry, cfg.Kind.String())
		w.failover = pss.NewFailoverMetrics(cfg.Registry)
	}
	return w, nil
}

// Kernel returns the sharded kernel group driving the world, for
// harnesses that report aggregate event counts or pace work by barrier.
func (w *World) Kernel() *sim.Group { return w.group }

// drainStarts runs at every window barrier: natid completions recorded
// mid-window start their protocols now, in ascending ID order. Both the
// barrier schedule (aligned to the lookahead grid) and the ID order are
// shard-count-independent, so the directory registrations and world RNG
// draws below replay identically at any shard count.
func (w *World) drainStarts(time.Duration) {
	pending := 0
	for _, ws := range w.shards {
		pending += len(ws.pendingStarts)
	}
	if pending == 0 {
		return
	}
	all := w.startScratch[:0]
	for _, ws := range w.shards {
		all = append(all, ws.pendingStarts...)
		ws.pendingStarts = ws.pendingStarts[:0]
	}
	slices.SortFunc(all, func(a, b deferredStart) int {
		return cmp.Compare(a.n.ID, b.n.ID)
	})
	for i := range all {
		if n := all[i].n; n.alive {
			w.startProtocol(n, all[i].sock, all[i].nat)
		}
		all[i] = deferredStart{}
	}
	w.startScratch = all[:0]
}

// JoinPublic attaches a node with an open global IP.
func (w *World) JoinPublic() (*Node, error) { return w.join(addr.Public, false) }

// JoinPrivate attaches a node behind a NAT gateway built from the
// configured template.
func (w *World) JoinPrivate() (*Node, error) { return w.join(addr.Private, false) }

// JoinPrivateUPnP attaches a node behind a UPnP-capable gateway; NAT-type
// identification will turn it into a public node via a port mapping.
func (w *World) JoinPrivateUPnP() (*Node, error) { return w.join(addr.Private, true) }

func (w *World) join(declared addr.NatType, upnp bool) (*Node, error) {
	// The ID is only consumed once the host attaches: a failed join must
	// not leave a gap, because the dense node table equates slot i with
	// ID i+1.
	id := addr.NodeID(w.nextID + 1)
	sh := int((uint64(id) - 1) % uint64(len(w.shards)))

	var host *simnet.Host
	var err error
	if declared == addr.Public {
		host, err = w.Net.AddPublicHostOn(id, sh)
	} else {
		natCfg := *w.Cfg.NAT
		natCfg.UPnP = upnp
		host, err = w.Net.AddPrivateHostOn(id, natCfg, sh)
	}
	if err != nil {
		return nil, fmt.Errorf("world: join: %w", err)
	}
	w.nextID++

	n := &Node{ID: id, Host: host, Nat: declared, JoinedAt: w.Sched.Now(), alive: true,
		shard: sh, rng: sim.NewRand(w.Sched.Rand().Int63())}
	w.nodes = append(w.nodes, n)
	if w.Cfg.Kind == KindCroupier {
		// Intern the identity now, at the barrier: event-time origin
		// lookups by croupier estimate stores then only ever read the
		// world-shared interner, which keeps it safe across shards.
		w.origins.Ref(id)
	}

	// Bind the protocol port now; the protocol instance arrives after
	// identification, and packets reaching the port earlier are dropped.
	protoSock, err := host.Bind(ProtoPort, func(pkt wire.Packet) {
		if n.Proto != nil {
			n.Proto.HandlePacket(pkt)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("world: bind proto: %w", err)
	}
	// Bind the NAT-type identification port. Public nodes serve it for
	// future joiners; the joiner's own client also answers here. With
	// identification disabled world-wide, no node ever sends natid
	// traffic, so the port bind and its environment are skipped
	// entirely — at 50k nodes the join wave is a hot path, and these
	// were a pure per-join construction tax.
	if !w.Cfg.SkipNatID {
		env := &natidEnv{sched: w.shards[sh].sched}
		if env.sock, err = host.Bind(NatIDPort, env.handle); err != nil {
			return nil, fmt.Errorf("world: bind natid: %w", err)
		}
		n.natidEnv = env
	}

	// Probe at most two publics, but always leave at least one public
	// unprobed: the ForwardTest forwarder must come from outside the
	// probe set (paper §V), so probing the whole directory would make
	// every run time out.
	probeN := 2
	if avail := w.Boot.Count(); avail-probeN < 1 {
		probeN = avail - 1
	}
	if w.Cfg.SkipNatID || (probeN < 1 && !upnp) {
		// Identification impossible (bootstrap era) or disabled: trust
		// the declared type. UPnP-capable joiners still install their
		// port mapping and turn public — identification is always
		// correct for the emulated gateways, so skipping it must not
		// change protocol behaviour.
		typ := declared
		if upnp && host.Gateway() != nil && host.Gateway().SupportsUPnP() {
			if _, err := mapServicePorts(host.Gateway(), host.IP()); err == nil {
				typ = addr.Public
			}
		}
		w.startProtocol(n, protoSock, typ)
		return n, nil
	}
	helpers := w.Boot.PublicsInto(w.Sched.Rand(), probeN, id, w.seedBuf)
	w.seedBuf = helpers

	probes := make([]addr.Endpoint, 0, len(helpers))
	for _, h := range helpers {
		probes = append(probes, addr.Endpoint{IP: h.Endpoint.IP, Port: NatIDPort})
	}
	var mapper natid.UPnPMapper
	if upnp && host.Gateway() != nil && host.Gateway().SupportsUPnP() {
		gw := host.Gateway()
		ip := host.IP()
		mapper = func() (addr.Endpoint, error) {
			return mapServicePorts(gw, ip)
		}
	}
	ws := w.shards[sh]
	client := natid.NewClient(n.natidEnv, natIDTimeout, func(res natid.Result) {
		if !n.alive {
			return
		}
		// Identification completes mid-window on the node's shard.
		// Protocol construction draws from the world RNG and registers
		// with the bootstrap directory, so it is deferred to the next
		// barrier, where starts drain in ID order.
		ws.pendingStarts = append(ws.pendingStarts, deferredStart{n: n, sock: protoSock, nat: res.Type})
	})
	n.natidEnv.SetClient(client)
	// The probes and the identification timeout are the node's own
	// scheduling acts on its shard.
	prev := ws.sched.SetActor(n.actor())
	client.Start(probes, mapper)
	ws.sched.SetActor(prev)
	return n, nil
}

// startProtocol constructs the node's protocol instance once its NAT
// type is known, and starts ticking it. The world stream is drawn in a
// fixed order — bootstrap seeds, the node's rng seed, the ticker phase —
// which every golden in the repository pins.
func (w *World) startProtocol(n *Node, sock *simnet.Socket, natType addr.NatType) {
	// Construction runs at a barrier (a join or a drained natid
	// completion) but schedules the node's gossip ticker: those acts
	// belong to the node's counter stream on its shard.
	ws := w.shards[n.shard]
	prevActor := ws.sched.SetActor(n.actor())
	defer ws.sched.SetActor(prevActor)

	n.Nat = natType
	n.Endpoint = advertisedEndpoint(n)

	// Seeds are drawn into the world's reusable scratch; every protocol
	// constructor copies them into its views before returning.
	seeds := w.Boot.PublicsInto(w.Sched.Rand(), bootstrapPublics, n.ID, w.seedBuf)
	w.seedBuf = seeds
	proto, period, err := kinds[w.Cfg.Kind].build(w, protoArgs{
		id: n.ID, rng: sim.NewRand(ws.sched.Rand().Int63()), tr: sock,
		nat: natType, ep: n.Endpoint, seeds: seeds,
	})
	if err != nil {
		// Joins are programmatic; a failure here is a configuration
		// bug surfaced deterministically in tests.
		panic(err)
	}
	n.Proto = proto

	// Nodes that drain their view (joined before any public existed, or
	// lost every known croupier) re-query the bootstrap directory, as
	// any real client would. The callback runs at event time on the
	// node's shard: it draws from the node's private stream into the
	// shard's scratch (the directory itself is only read). Every
	// protocol's re-bootstrap path copies the descriptors it keeps
	// before the shard's next draw can happen.
	proto.SetRebootstrap(func() []view.Descriptor {
		out, picks := w.Boot.PublicsScratch(n.rng, bootstrapPublics, n.ID, ws.seedBuf, ws.picks)
		ws.seedBuf, ws.picks = out, picks
		return out
	})
	proto.SetMetrics(w.protoMetrics)
	if ws.trace != nil {
		proto.SetSelectionTrace(ws.trace)
	}

	if natType == addr.Public {
		w.Boot.Register(view.Descriptor{ID: n.ID, Endpoint: n.Endpoint, Nat: addr.Public})
		// Serve NAT-type identification for future joiners, picking
		// forwarders from the bootstrap directory. (No environment was
		// set up when identification is disabled world-wide.)
		if n.natidEnv != nil {
			n.natidEnv.SetServer(natid.NewServer(n.natidEnv, w.pickForwarder(n)))
		}
	}
	n.ticker = sim.StartTicker(ws.sched, period, sim.RandomPhase(ws.sched, period), proto.RunRound)
}

// mapServicePorts installs UPnP mappings for both well-known service
// ports on the gateway and returns the protocol endpoint to advertise.
// Both the natid client's mapper and the SkipNatID fast path use it, so
// the two join paths cannot drift apart.
func mapServicePorts(gw *nat.Gateway, ip addr.IP) (addr.Endpoint, error) {
	if _, err := gw.MapPort(addr.Endpoint{IP: ip, Port: NatIDPort}, NatIDPort); err != nil {
		return addr.Endpoint{}, err
	}
	return gw.MapPort(addr.Endpoint{IP: ip, Port: ProtoPort}, ProtoPort)
}

// advertisedEndpoint computes the endpoint a node puts in its own
// descriptor. Public hosts use their interface address; hosts behind a
// gateway the gateway's address at the protocol port — the UPnP-mapped
// port, or the reflexive endpoint, which is stable and predictable
// under endpoint-independent mapping with port preservation (production
// systems learn it STUN-style from shuffle partners).
func advertisedEndpoint(n *Node) addr.Endpoint {
	if gw := n.Host.Gateway(); gw != nil {
		return addr.Endpoint{IP: gw.PublicIP(), Port: ProtoPort}
	}
	return addr.Endpoint{IP: n.Host.IP(), Port: ProtoPort}
}

// pickForwarder builds a natid forwarder picker backed by the bootstrap
// directory. The exclude list is a client's probe set — one or two
// endpoints — so a linear scan replaces the per-call set that used to
// be built here. Picks run at event time on the serving node's shard,
// so they draw from the node's private stream into the shard's scratch.
func (w *World) pickForwarder(n *Node) natid.ForwarderPicker {
	ws := w.shards[n.shard]
	return func(exclude []addr.Endpoint) (addr.Endpoint, bool) {
		cands, picks := w.Boot.PublicsScratch(n.rng, 8, n.ID, ws.seedBuf, ws.picks)
		ws.seedBuf, ws.picks = cands, picks
	candidates:
		for _, d := range cands {
			ep := addr.Endpoint{IP: d.Endpoint.IP, Port: NatIDPort}
			for _, banned := range exclude {
				if ep == banned {
					continue candidates
				}
			}
			return ep, true
		}
		return addr.Endpoint{}, false
	}
}

// Fail crashes a node: it vanishes from the network and the bootstrap
// directory without any goodbye traffic.
func (w *World) Fail(id addr.NodeID) {
	n, ok := w.Node(id)
	if !ok || !n.alive {
		return
	}
	n.alive = false
	if n.Proto != nil {
		n.ticker.Stop()
		n.Proto.Stop()
	}
	w.Net.Remove(id)
	w.Boot.Unregister(id)
}

// Node returns a node by ID.
func (w *World) Node(id addr.NodeID) (*Node, bool) {
	if id < 1 || uint64(id) > uint64(len(w.nodes)) {
		return nil, false
	}
	return w.nodes[id-1], true
}

// Nodes returns all nodes in join order, dead ones included.
func (w *World) Nodes() []*Node {
	out := make([]*Node, 0, len(w.nodes))
	out = append(out, w.nodes...)
	return out
}

// AliveNodes returns running nodes in join order.
func (w *World) AliveNodes() []*Node {
	out := make([]*Node, 0, len(w.nodes))
	for _, n := range w.nodes {
		if n.alive {
			out = append(out, n)
		}
	}
	return out
}

// AliveIDs returns the sorted identifiers of running nodes. Join order
// is ID order, so the flat sweep is already sorted.
func (w *World) AliveIDs() []addr.NodeID {
	out := make([]addr.NodeID, 0, len(w.nodes))
	for _, n := range w.nodes {
		if n.alive {
			out = append(out, n.ID)
		}
	}
	return out
}

// ActualRatio returns ω, the live fraction of public nodes (equation 1).
func (w *World) ActualRatio() float64 {
	pub, total := 0, 0
	for _, n := range w.nodes {
		if !n.alive {
			continue
		}
		total++
		if n.Nat == addr.Public {
			pub++
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(pub) / float64(total)
}

// MeasureEstimationError computes the paper's ω̂ error metrics at the
// current instant: the node-averaged and node-maximum absolute
// estimation error against the current true ratio ω, over Croupier
// nodes that have run ≥ 2 rounds (the grace period for joiners, paper
// equations 10-13). avg and max are NaN when no node qualifies — in
// particular for the three baseline systems, which do not estimate.
// Both the figure reproduction and the scenario engine report this
// exact metric.
func (w *World) MeasureEstimationError() (avg, max, ratio float64) {
	ratio = w.ActualRatio()
	var sum float64
	var n int
	max = math.NaN()
	for _, node := range w.AliveNodes() {
		c, ok := node.Proto.(*croupier.Node)
		if !ok || c.Rounds() < 2 {
			continue
		}
		est, ok := c.Estimate()
		if !ok {
			continue
		}
		e := math.Abs(ratio - est)
		sum += e
		n++
		if math.IsNaN(max) || e > max {
			max = e
		}
	}
	if n == 0 {
		return math.NaN(), math.NaN(), ratio
	}
	return sum / float64(n), max, ratio
}

// Overlay snapshots the current overlay adjacency: node → neighbor IDs
// from every started, live protocol instance.
func (w *World) Overlay() map[addr.NodeID][]addr.NodeID {
	adj := make(map[addr.NodeID][]addr.NodeID, len(w.nodes))
	for _, n := range w.nodes {
		if !n.alive || n.Proto == nil {
			continue
		}
		neigh := n.Proto.Neighbors()
		ids := make([]addr.NodeID, 0, len(neigh))
		for _, d := range neigh {
			ids = append(ids, d.ID)
		}
		adj[n.ID] = ids
	}
	return adj
}

// SnapshotOverlay fills o with the current overlay adjacency, reusing
// o's backing storage — the allocation-light path scenario probes take
// at scale, where rebuilding per-node maps per probe dominates probe
// cost. With effective set, edges the network cannot currently carry
// (cross-partition links) are dropped, mirroring EffectiveOverlay.
func (w *World) SnapshotOverlay(o *graph.Overlay, effective bool) {
	o.Reset()
	checkPart := effective && w.Net.Partitioned()
	for _, n := range w.nodes {
		if !n.alive || n.Proto == nil {
			continue
		}
		row := o.Row(n.ID)
		for _, d := range n.Proto.Neighbors() {
			if checkPart {
				if peer, ok := w.Node(d.ID); !ok || !w.Net.ReachableHosts(n.Host, peer.Host) {
					continue
				}
			}
			row = append(row, d.ID)
		}
		o.SetRow(row)
	}
}

// RunUntil advances the simulation to virtual time t: the world lane
// and every shard reach t with all events at or before t fired. On
// return the shards are quiescent, so snapshots (Overlay,
// MeasureEstimationError, probe sweeps) read protocol state without any
// synchronisation.
func (w *World) RunUntil(t time.Duration) { w.group.RunUntil(t) }

// joinAs attaches one fresh node of the given declared type. Scheduled
// joins are programmatic, so a failure here is a configuration bug
// surfaced deterministically.
func (w *World) joinAs(natType addr.NatType, upnp bool) {
	var err error
	switch {
	case natType == addr.Public:
		_, err = w.JoinPublic()
	case upnp:
		_, err = w.JoinPrivateUPnP()
	default:
		_, err = w.JoinPrivate()
	}
	if err != nil {
		panic(err)
	}
}

// PoissonJoins schedules n joins starting at start with exponentially
// distributed inter-arrival gaps of the given mean — the paper's join
// process ("nodes join following a Poisson distribution with an
// inter-arrival time of X ms").
func (w *World) PoissonJoins(start time.Duration, n int, meanGap time.Duration, natType addr.NatType) {
	t := start
	for i := 0; i < n; i++ {
		w.Sched.At(t, func() { w.joinAs(natType, false) })
		gap := time.Duration(w.Sched.Rand().ExpFloat64() * float64(meanGap))
		t += gap
	}
}

// MixedPoissonJoins schedules nPub public and nPriv private joins in a
// single exponentially spaced arrival stream with the given mean gap,
// with NAT types shuffled uniformly over the stream (the join process of
// the paper's 1000-node experiments: "nodes join following a Poisson
// distribution with an inter-arrival time of 10 ms").
func (w *World) MixedPoissonJoins(start time.Duration, nPub, nPriv int, meanGap time.Duration) {
	types := make([]addr.NatType, 0, nPub+nPriv)
	for i := 0; i < nPub; i++ {
		types = append(types, addr.Public)
	}
	for i := 0; i < nPriv; i++ {
		types = append(types, addr.Private)
	}
	rng := w.Sched.Rand()
	rng.Shuffle(len(types), func(i, j int) { types[i], types[j] = types[j], types[i] })
	t := start
	for _, natType := range types {
		natType := natType
		w.Sched.At(t, func() { w.joinAs(natType, false) })
		t += time.Duration(rng.ExpFloat64() * float64(meanGap))
	}
}

// ReplacementChurn replaces `fraction` of the live population every
// round from start to end: victims crash and an equal number of fresh
// nodes of the same NAT type join immediately, keeping the ratio stable
// (the paper's churn model, §VII-B).
func (w *World) ReplacementChurn(start, end, period time.Duration, fraction float64) {
	w.churn(start, end, period, fraction, func(victim *Node) addr.NatType {
		return victim.Nat
	})
}

// churn is the shared replacement-churn scaffold: every period from
// start to end, `fraction` of started live nodes crash and are replaced
// by fresh joiners whose NAT type replacementType chooses per victim.
func (w *World) churn(start, end, period time.Duration, fraction float64, replacementType func(victim *Node) addr.NatType) {
	var tick func()
	next := start
	tick = func() {
		if w.Sched.Now() > end {
			return
		}
		alive := w.AliveNodes()
		started := make([]*Node, 0, len(alive))
		for _, n := range alive {
			if n.Started() {
				started = append(started, n)
			}
		}
		k := int(math.Round(fraction * float64(len(started))))
		perm := w.Sched.Rand().Perm(len(started))
		for i := 0; i < k && i < len(perm); i++ {
			victim := started[perm[i]]
			natType := replacementType(victim)
			w.Fail(victim.ID)
			w.joinAs(natType, false)
		}
		next += period
		w.Sched.At(next, tick)
	}
	w.Sched.At(next, tick)
}

// CatastrophicFailure kills `fraction` of the live population at time t,
// chosen uniformly at random (the paper's massive-failure scenario).
func (w *World) CatastrophicFailure(t time.Duration, fraction float64) {
	w.Sched.At(t, func() {
		alive := w.AliveNodes()
		k := int(math.Round(fraction * float64(len(alive))))
		perm := w.Sched.Rand().Perm(len(alive))
		for i := 0; i < k && i < len(perm); i++ {
			w.Fail(alive[perm[i]].ID)
		}
	})
}

// Partition splits the live population in two: a random `fraction` of
// live nodes moves to side 1, everyone else (and every later joiner)
// stays on side 0. Cross-side packets die in the network until Heal.
// It returns the identifiers moved to the minority side, so callers can
// track cross-side mixing afterwards.
// Fractions are clamped to [0, 1]; fraction ≤ 0 partitions nobody.
func (w *World) Partition(fraction float64) []addr.NodeID {
	alive := w.AliveNodes()
	k := int(math.Round(fraction * float64(len(alive))))
	if k < 0 {
		k = 0
	}
	if k > len(alive) {
		k = len(alive)
	}
	perm := w.Sched.Rand().Perm(len(alive))
	minority := make([]addr.NodeID, 0, k)
	for i := 0; i < k; i++ {
		minority = append(minority, alive[perm[i]].ID)
	}
	if err := w.Net.Partition([][]addr.NodeID{nil, minority}, 0); err != nil {
		// Group 0 always exists; a failure here is a programming bug.
		panic(err)
	}
	return minority
}

// EffectiveOverlay snapshots the overlay like Overlay, but drops edges
// the network cannot currently carry (cross-partition links). During a
// partition this is the graph that actually routes gossip; stale view
// entries pointing across the cut are excluded.
func (w *World) EffectiveOverlay() map[addr.NodeID][]addr.NodeID {
	adj := w.Overlay()
	for id, neigh := range adj {
		kept := neigh[:0]
		for _, nb := range neigh {
			if w.Net.Reachable(id, nb) {
				kept = append(kept, nb)
			}
		}
		adj[id] = kept
	}
	return adj
}

// Heal removes an active partition.
func (w *World) Heal() { w.Net.Heal() }

// SetLoss changes the network-wide packet-loss probability mid-run.
func (w *World) SetLoss(p float64) error { return w.Net.SetLoss(p) }

// SetExtraDelay adds network-wide one-way delay on top of the latency
// model — a congestion episode.
func (w *World) SetExtraDelay(d time.Duration) { w.Net.SetExtraDelay(d) }

// SetLink degrades the specific path between two nodes (extra one-way
// delay and/or a loss override) — targeted experiments like "the link
// between these two croupiers is bad" that network-wide knobs cannot
// express.
func (w *World) SetLink(a, b addr.NodeID, o simnet.LinkOverride) error {
	return w.Net.SetLink(a, b, o)
}

// ClearLink removes a per-link override installed with SetLink.
func (w *World) ClearLink(a, b addr.NodeID) { w.Net.ClearLink(a, b) }

// SetMappingTimeout changes the UDP mapping expiry of every live NAT
// gateway and of the template used for future private joiners.
func (w *World) SetMappingTimeout(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("world: mapping timeout must be positive, got %v", d)
	}
	natCfg := *w.Cfg.NAT
	natCfg.MappingTimeout = d
	w.Cfg.NAT = &natCfg
	for _, n := range w.nodes {
		if !n.alive || n.Host.Gateway() == nil {
			continue
		}
		if err := n.Host.Gateway().SetMappingTimeout(d); err != nil {
			return fmt.Errorf("world: set mapping timeout: %w", err)
		}
	}
	return nil
}

// FlashCrowd schedules a join burst: n nodes arrive from start with
// exponentially distributed gaps of mean meanGap (zero packs the whole
// crowd into one instant). Each joiner is public with probability
// pubFrac; private joiners are UPnP-capable with probability upnpFrac.
func (w *World) FlashCrowd(start time.Duration, n int, pubFrac, upnpFrac float64, meanGap time.Duration) {
	rng := w.Sched.Rand()
	t := start
	for i := 0; i < n; i++ {
		natType := addr.Private
		if rng.Float64() < pubFrac {
			natType = addr.Public
		}
		upnp := natType == addr.Private && rng.Float64() < upnpFrac
		w.Sched.At(t, func() { w.joinAs(natType, upnp) })
		if meanGap > 0 {
			t += time.Duration(rng.ExpFloat64() * float64(meanGap))
		}
	}
}

// MixChurn replaces `fraction` of the live population every period from
// start to end, like ReplacementChurn, except replacements are drawn
// public with probability pubFrac instead of inheriting the victim's
// type — so the public/private ratio drifts toward pubFrac over time
// (NAT-type distribution drift).
func (w *World) MixChurn(start, end, period time.Duration, fraction, pubFrac float64) {
	w.churn(start, end, period, fraction, func(*Node) addr.NatType {
		if w.Sched.Rand().Float64() < pubFrac {
			return addr.Public
		}
		return addr.Private
	})
}
