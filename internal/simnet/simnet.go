// Package simnet simulates the internet the protocols run over: hosts
// with UDP-style sockets, NAT gateways in front of private hosts,
// pairwise latency, probabilistic loss, and per-node traffic accounting.
//
// The network is intentionally datagram-only and unreliable, like the
// UDP substrate the paper's protocols use. A packet sent to a private
// host is checked against that host's NAT gateway *at delivery time*, so
// hole-punching and mapping expiry behave exactly as they would on a
// real gateway.
//
// Hosts are issued dense indexes at registration, and all per-packet
// state (host table, partition sides, IP resolution) lives in slices
// indexed by them; the remaining ID-keyed map is consulted only on
// registration-time and measurement paths, so packet delivery performs
// no map lookups and the network scales to tens of thousands of nodes.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/addr"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/nat"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The message contract lives in internal/wire, below every carrier.
type Message = wire.Message       // bench/ is the only remaining user of this alias
type Packet = wire.Packet         // bench/ is the only remaining user of this alias
type Releasable = wire.Releasable // bench/ is the only remaining user of this alias

// Handler consumes packets delivered to a bound socket.
type Handler func(pkt wire.Packet)

// release recycles a pooled message at the end of its flight.
func release(msg wire.Message) {
	if r, ok := msg.(wire.Releasable); ok {
		r.Release()
	}
}

// Config parameterises the network.
type Config struct {
	// Latency supplies one-way delays between hosts. Required.
	Latency latency.Model
	// Loss is the independent per-packet drop probability in [0, 1).
	Loss float64
	// Seed salts the stateless per-packet loss draws. Loss decisions
	// are a hash of (Seed, sender, per-sender send count) rather than a
	// draw from the scheduler stream, so they are identical at every
	// shard count.
	Seed int64
	// HeaderBytes is the per-packet framing overhead added to every
	// message for traffic accounting. Defaults to 28 (IPv4 + UDP).
	HeaderBytes int
	// Registry, when non-nil, receives the network's packet-path
	// instruments (sends, deliveries, drops by cause, delay and size
	// histograms). The instrumented path costs one atomic add per
	// event and allocates nothing.
	Registry *metrics.Registry
}

// netMetrics holds the network's instruments, resolved once at
// construction so the packet path never consults the registry.
type netMetrics struct {
	sends     *metrics.Counter
	delivered *metrics.Counter

	dropLoss      *metrics.Counter
	dropNoRoute   *metrics.Counter
	dropDeadHost  *metrics.Counter
	dropPartition *metrics.Counter
	dropNAT       *metrics.Counter
	dropStaleIP   *metrics.Counter
	dropUnbound   *metrics.Counter

	delayUS     *metrics.Histogram
	packetBytes *metrics.Histogram
}

// newNetMetrics registers the simnet instruments. Deliveries register
// before sends so an ordered snapshot read can never observe more
// deliveries than sends.
func newNetMetrics(r *metrics.Registry) *netMetrics {
	drop := func(cause string) *metrics.Counter {
		return r.Counter(`simnet_dropped_total{cause="`+cause+`"}`,
			"Packets dropped, by cause.")
	}
	return &netMetrics{
		delivered:     r.Counter("simnet_delivered_total", "Packets handed to socket handlers."),
		dropLoss:      drop("loss"),
		dropNoRoute:   drop("no_route"),
		dropDeadHost:  drop("dead_host"),
		dropPartition: drop("partition"),
		dropNAT:       drop("nat"),
		dropStaleIP:   drop("stale_ip"),
		dropUnbound:   drop("unbound_port"),
		delayUS:       r.Histogram("simnet_delay_us", "One-way packet delay in microseconds."),
		packetBytes:   r.Histogram("simnet_packet_bytes", "On-wire packet size including framing."),
		sends:         r.Counter("simnet_sends_total", "Packets accepted from live sockets."),
	}
}

// Traffic accumulates a node's network usage. Relayed traffic counts on
// both legs, which is what makes relaying overhead visible in the
// Fig 7(a) experiment.
type Traffic struct {
	BytesSent uint64
	BytesRecv uint64
	MsgsSent  uint64
	MsgsRecv  uint64
}

// LinkOverride replaces a link's default loss and adds extra one-way
// delay on top of the latency model, letting scenarios degrade specific
// paths at runtime.
type LinkOverride struct {
	// Loss is the per-packet drop probability for the link. Ignored
	// unless HasLoss is set, so an override can change only the delay.
	Loss    float64
	HasLoss bool
	// ExtraDelay is added to the model delay in both directions.
	ExtraDelay time.Duration
}

// linkKey identifies an undirected host pair.
type linkKey struct{ a, b addr.NodeID }

func makeLinkKey(a, b addr.NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// noSide marks a dense index not assigned to any partition group.
const noSide = int32(-1)

// shardCtx is the per-shard half of the network: the shard's scheduler,
// its private latency-model clone (the King-like model memoises, so
// concurrent Delay lookups must not share an instance), its delivery
// pool, its outboxes toward every other shard, and its slice of the
// packet counters. Hosts point at the ctx of the shard they execute
// on; everything a host's events touch here is single-writer.
type shardCtx struct {
	idx   int
	sched *sim.Scheduler
	lat   latency.Model
	// free pools in-flight packet records (and their pre-built run
	// closures) so unicast delivery allocates nothing once warm.
	free []*delivery
	// outbox[d] accumulates packets sent from this shard to shard d
	// during a window; the barrier flush converts them into pooled
	// deliveries on the destination shard. Entries carry the ordering
	// key claimed from the sender's scheduler, so the flush order is
	// irrelevant to the destination's pop order.
	outbox [][]xfer
	// Packet accounting cells, summed by the Network-level accessors.
	sends       uint64
	delivered   uint64
	dropped     uint64
	partDropped uint64
}

// xfer is one cross-shard packet parked in an outbox between send and
// barrier flush.
type xfer struct {
	at      time.Duration
	actor   int32
	seq     uint64
	srcHost *Host
	dstHost *Host
	src, to addr.Endpoint
	msg     wire.Message
	size    uint64
}

// Network is the simulated internet. Mutating calls (joins, removal,
// partitions, condition changes) must happen on the world lane —
// between windows under the sharded kernel; the packet path runs on
// the per-shard contexts.
type Network struct {
	sched *sim.Scheduler
	cfg   Config

	// ctxs holds one shard context per kernel shard (exactly one for a
	// sequential network).
	ctxs []*shardCtx
	// seedSrc is the world-seeding random stream used for join-time
	// derivations (per-gateway RNG seeds). It is only drawn from on
	// the world lane.
	seedSrc *rand.Rand
	// lossSeed salts the stateless per-packet loss hash.
	lossSeed uint64

	// hosts is the dense host table: hosts[i] is the host issued index
	// i at registration. Slots survive removal (the host is marked
	// down), so in-flight packets and post-mortem traffic accounting
	// resolve without map lookups.
	hosts []*Host
	// idToIdx maps a node to its dense index. Registration, removal and
	// measurement go through it; the packet path never does. Entries
	// survive removal so traffic counters stay reachable; re-attaching
	// a node ID repoints the entry at the new host.
	idToIdx map[addr.NodeID]int32
	// ipToIdx resolves an allocated public IP (a public host's own
	// address or a gateway's) to its host index, as an offset table
	// from ipBase: public IPs are handed out sequentially, so the table
	// is dense. -1 marks unallocated or released addresses.
	ipToIdx []int32
	ipBase  uint32

	// Runtime condition state, mutable mid-run by scenarios.
	loss        float64
	extraDelay  time.Duration
	links       map[linkKey]LinkOverride
	partitioned bool
	// partSide holds each dense index's partition group, noSide for
	// hosts in no declared group (they fall into partDefault, as do
	// hosts joining after the partition struck).
	partSide    []int32
	partDefault int32

	nextPublicIP uint32

	// m holds the registered instruments, nil when no Registry was
	// configured; every use is nil-guarded so the uninstrumented path
	// pays one predictable branch.
	m *netMetrics
}

// delivery is one packet in flight between send and deliver. The run
// closure is built once per pooled record — it captures only the record
// pointer — so scheduling a delivery costs no allocation. Source and
// destination travel as host pointers: slots are never reused, so a
// host removed mid-flight is observed down at delivery time. A record
// belongs to the destination shard's pool: it is created, fired and
// recycled there.
type delivery struct {
	net     *Network
	ctx     *shardCtx
	srcHost *Host
	dstHost *Host
	src, to addr.Endpoint
	msg     wire.Message
	size    uint64
	run     func()
}

// newDelivery takes a pooled record or builds one with its reusable run
// closure.
func (c *shardCtx) newDelivery(n *Network) *delivery {
	if k := len(c.free); k > 0 {
		d := c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
		return d
	}
	d := &delivery{net: n, ctx: c}
	d.run = func() {
		d.net.deliver(d)
		d.msg = nil // do not retain the payload while pooled
		d.srcHost, d.dstHost = nil, nil
		d.ctx.free = append(d.ctx.free, d)
	}
	return d
}

// newNetwork is the shared construction core.
func newNetwork(sched *sim.Scheduler, cfg Config) (*Network, error) {
	if cfg.Latency == nil {
		return nil, fmt.Errorf("simnet: latency model is required")
	}
	if cfg.Loss < 0 || cfg.Loss >= 1 {
		return nil, fmt.Errorf("simnet: loss %v outside [0, 1)", cfg.Loss)
	}
	if cfg.HeaderBytes == 0 {
		cfg.HeaderBytes = 28
	}
	base := uint32(addr.MakeIP(2, 0, 0, 1))
	n := &Network{
		sched:        sched,
		cfg:          cfg,
		seedSrc:      sched.Rand(),
		lossSeed:     splitmix(uint64(cfg.Seed) ^ 0x6c737364726177), // "lossdraw" salt
		idToIdx:      make(map[addr.NodeID]int32),
		ipBase:       base,
		loss:         cfg.Loss,
		links:        make(map[linkKey]LinkOverride),
		nextPublicIP: base,
	}
	if cfg.Registry != nil {
		n.m = newNetMetrics(cfg.Registry)
	}
	return n, nil
}

// New builds a sequential network on the given scheduler: one shard
// context, no barriers needed.
func New(sched *sim.Scheduler, cfg Config) (*Network, error) {
	n, err := newNetwork(sched, cfg)
	if err != nil {
		return nil, err
	}
	n.ctxs = []*shardCtx{{idx: 0, sched: sched, lat: cfg.Latency}}
	return n, nil
}

// NewSharded builds a network over a sharded kernel: one shard context
// per kernel shard, each with a private latency-model clone when the
// model supports cloning, and a barrier hook that flushes cross-shard
// outboxes. cfg.Latency must be Bounded by at least the group's
// lookahead, or cross-shard packets could violate causality.
func NewSharded(g *sim.Group, cfg Config) (*Network, error) {
	n, err := newNetwork(g.Global(), cfg)
	if err != nil {
		return nil, err
	}
	if g.NumShards() > 1 {
		b, ok := cfg.Latency.(latency.Bounded)
		if !ok {
			return nil, fmt.Errorf("simnet: sharded network needs a latency.Bounded model")
		}
		if b.MinDelay() < g.Lookahead() {
			return nil, fmt.Errorf("simnet: latency floor %v below kernel lookahead %v", b.MinDelay(), g.Lookahead())
		}
	}
	n.ctxs = make([]*shardCtx, g.NumShards())
	for i := range n.ctxs {
		lat := cfg.Latency
		if cl, ok := lat.(latency.Cloner); ok && g.NumShards() > 1 {
			lat = cl.Clone()
		}
		n.ctxs[i] = &shardCtx{
			idx:    i,
			sched:  g.Shard(i),
			lat:    lat,
			outbox: make([][]xfer, g.NumShards()),
		}
	}
	g.OnBarrier(n.flush)
	return n, nil
}

// splitmix is the splitmix64 finaliser, the hash behind the stateless
// loss draws.
func splitmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// lossDraw decides a packet drop from a hash of (network seed, sender,
// per-sender draw count) — no scheduler stream involved, so the
// decision sequence is a pure function of each sender's own send
// history and identical at every shard count.
func (n *Network) lossDraw(h *Host, loss float64) bool {
	h.lossSeq++
	x := splitmix(n.lossSeed + uint64(h.id)*0x9e3779b97f4a7c15 + h.lossSeq*0xc2b2ae3d27d4eb4f)
	return float64(x>>11)/(1<<53) < loss
}

// flush is the barrier hook: it converts every outboxed cross-shard
// packet into a pooled delivery on its destination shard. Arrival
// times are asserted against the barrier — the latency floor
// guarantees a packet sent inside a window lands at or after the
// window's end.
func (n *Network) flush(end time.Duration) {
	for _, src := range n.ctxs {
		for di := range src.outbox {
			box := src.outbox[di]
			if len(box) == 0 {
				continue
			}
			dst := n.ctxs[di]
			for i := range box {
				x := &box[i]
				if x.at < end {
					panic("simnet: cross-shard packet violates lookahead")
				}
				d := dst.newDelivery(n)
				d.srcHost, d.dstHost = x.srcHost, x.dstHost
				d.src, d.to = x.src, x.to
				d.msg, d.size = x.msg, x.size
				dst.sched.PushForeign(x.at, x.actor, x.seq, d.run)
				box[i] = xfer{} // drop the payload reference
			}
			src.outbox[di] = box[:0]
		}
	}
}

// Loss returns the current default per-packet drop probability.
func (n *Network) Loss() float64 { return n.loss }

// SetLoss changes the default per-packet drop probability mid-run.
// Per-link overrides keep precedence.
func (n *Network) SetLoss(p float64) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("simnet: loss %v outside [0, 1)", p)
	}
	n.loss = p
	return nil
}

// ExtraDelay returns the network-wide additional one-way delay.
func (n *Network) ExtraDelay() time.Duration { return n.extraDelay }

// SetExtraDelay adds d of one-way delay to every packet on top of the
// latency model — a network-wide congestion episode. Negative values
// are clamped to zero.
func (n *Network) SetExtraDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n.extraDelay = d
}

// SetLink installs an override for the undirected link between a and b.
func (n *Network) SetLink(a, b addr.NodeID, o LinkOverride) error {
	if o.HasLoss && (o.Loss < 0 || o.Loss >= 1) {
		return fmt.Errorf("simnet: link loss %v outside [0, 1)", o.Loss)
	}
	if o.ExtraDelay < 0 {
		return fmt.Errorf("simnet: link extra delay %v negative", o.ExtraDelay)
	}
	n.links[makeLinkKey(a, b)] = o
	return nil
}

// ClearLink removes the override for the link between a and b.
func (n *Network) ClearLink(a, b addr.NodeID) {
	delete(n.links, makeLinkKey(a, b))
}

// ClearLinks removes every link override.
func (n *Network) ClearLinks() {
	clear(n.links)
}

// Partition splits the network: every node is assigned to the side given
// by groups (group i holds the IDs on side i); nodes absent from every
// group — including ones that join later — fall into defaultGroup.
// Packets crossing sides are dropped at delivery time, so a heal lets
// traffic already in flight arrive. Calling Partition again replaces the
// previous partition.
func (n *Network) Partition(groups [][]addr.NodeID, defaultGroup int) error {
	if defaultGroup < 0 || defaultGroup >= len(groups) {
		return fmt.Errorf("simnet: default group %d outside the %d declared groups", defaultGroup, len(groups))
	}
	n.partitioned = true
	n.partDefault = int32(defaultGroup)
	if cap(n.partSide) < len(n.hosts) {
		n.partSide = make([]int32, len(n.hosts))
	}
	n.partSide = n.partSide[:len(n.hosts)]
	for i := range n.partSide {
		n.partSide[i] = noSide
	}
	for side, ids := range groups {
		for _, id := range ids {
			if i, ok := n.idToIdx[id]; ok {
				n.partSide[i] = int32(side)
			}
		}
	}
	return nil
}

// Heal removes the active partition.
func (n *Network) Heal() {
	n.partitioned = false
	n.partSide = n.partSide[:0]
}

// Partitioned reports whether a partition is active.
func (n *Network) Partitioned() bool { return n.partitioned }

// sideOf returns the partition group of a dense host index. Hosts that
// joined after the partition struck sit past the end of partSide.
func (n *Network) sideOf(idx int32) int32 {
	if int(idx) < len(n.partSide) {
		if s := n.partSide[idx]; s != noSide {
			return s
		}
	}
	return n.partDefault
}

// reachableIdx is the partition check on dense indexes — the form the
// packet path and the overlay snapshots use.
func (n *Network) reachableIdx(src, dst int32) bool {
	return !n.partitioned || n.sideOf(src) == n.sideOf(dst)
}

// Reachable reports whether the active partition (if any) lets a packet
// travel from src to dst. Without a partition every pair is reachable.
// Unknown nodes fall into the default group.
func (n *Network) Reachable(src, dst addr.NodeID) bool {
	if !n.partitioned {
		return true
	}
	si, sok := n.idToIdx[src]
	di, dok := n.idToIdx[dst]
	var ss, ds int32
	ss, ds = n.partDefault, n.partDefault
	if sok {
		ss = n.sideOf(si)
	}
	if dok {
		ds = n.sideOf(di)
	}
	return ss == ds
}

// ReachableHosts is Reachable on two attached hosts, skipping the ID
// lookups — the form overlay snapshots use per edge.
func (n *Network) ReachableHosts(src, dst *Host) bool {
	return n.reachableIdx(src.idx, dst.idx)
}

// linkConditions resolves the effective loss probability and extra delay
// for the undirected link between a and b. The common case — no link
// overrides installed at all — skips key construction and the map
// lookup entirely, keeping the per-packet path cheap.
func (n *Network) linkConditions(a, b addr.NodeID) (loss float64, extra time.Duration) {
	loss, extra = n.loss, n.extraDelay
	if len(n.links) == 0 {
		return loss, extra
	}
	if o, ok := n.links[makeLinkKey(a, b)]; ok {
		if o.HasLoss {
			loss = o.Loss
		}
		extra += o.ExtraDelay
	}
	return loss, extra
}

// Scheduler returns the simulation scheduler the network runs on.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// portBinding is one bound socket on a host. Hosts bind at most a
// handful of well-known ports, so a linear slice beats a map on the
// per-packet dispatch path.
type portBinding struct {
	port uint16
	fn   Handler
}

// Host is a machine attached to the network. Public hosts own a global
// IP; private hosts sit behind a dedicated NAT gateway.
type Host struct {
	net *Network
	// ctx is the shard context the host executes on: its events fire
	// on ctx.sched, its sends draw from ctx's pools and outboxes.
	ctx   *shardCtx
	id    addr.NodeID
	idx   int32
	ip    addr.IP
	gw    *nat.Gateway
	ports []portBinding
	up    bool
	// lossSeq counts this host's loss draws, the per-sender input to
	// the stateless loss hash.
	lossSeq uint64
	// traffic points at the node's counters, saving any lookup on
	// every send and delivery. Counters outlive removal. Sent fields
	// are written by the owner shard, received fields by the
	// deliverer's shard — disjoint words, so no write is concurrent
	// with another to the same location.
	traffic *Traffic
}

// allocPublicIP hands out the next unused global address, skipping the
// 10.0.0.0/8 private range.
func (n *Network) allocPublicIP() addr.IP {
	for {
		ip := addr.IP(n.nextPublicIP)
		n.nextPublicIP++
		if ip.Private() || ip.IsZero() {
			continue
		}
		if idx, ok := n.lookupIP(ip); ok && idx >= 0 {
			continue
		}
		return ip
	}
}

// lookupIP resolves an allocated public IP to its host index.
func (n *Network) lookupIP(ip addr.IP) (int32, bool) {
	off := uint32(ip) - n.ipBase
	if off >= uint32(len(n.ipToIdx)) {
		return -1, false
	}
	idx := n.ipToIdx[off]
	return idx, idx >= 0
}

// claimIP points an allocated public IP at a host index.
func (n *Network) claimIP(ip addr.IP, idx int32) {
	off := uint32(ip) - n.ipBase
	for uint32(len(n.ipToIdx)) <= off {
		n.ipToIdx = append(n.ipToIdx, -1)
	}
	n.ipToIdx[off] = idx
}

// releaseIP detaches an allocated public IP.
func (n *Network) releaseIP(ip addr.IP) {
	off := uint32(ip) - n.ipBase
	if off < uint32(len(n.ipToIdx)) {
		n.ipToIdx[off] = -1
	}
}

// attach registers a host, issuing its dense index.
func (n *Network) attach(h *Host) {
	h.idx = int32(len(n.hosts))
	n.hosts = append(n.hosts, h)
	n.idToIdx[h.id] = h.idx
}

// liveHost returns the attached, running host for id.
func (n *Network) liveHost(id addr.NodeID) (*Host, bool) {
	i, ok := n.idToIdx[id]
	if !ok {
		return nil, false
	}
	h := n.hosts[i]
	if !h.up {
		return nil, false
	}
	return h, true
}

// AddPublicHost attaches a host with a fresh global IP on shard 0.
func (n *Network) AddPublicHost(id addr.NodeID) (*Host, error) {
	return n.AddPublicHostOn(id, 0)
}

// AddPublicHostOn attaches a public host whose events run on the given
// kernel shard.
func (n *Network) AddPublicHostOn(id addr.NodeID, shard int) (*Host, error) {
	if _, dup := n.liveHost(id); dup {
		return nil, fmt.Errorf("simnet: node %v already attached", id)
	}
	h := &Host{
		net:     n,
		ctx:     n.ctxs[shard],
		id:      id,
		ip:      n.allocPublicIP(),
		up:      true,
		traffic: &Traffic{},
	}
	n.attach(h)
	n.claimIP(h.ip, h.idx)
	return h, nil
}

// AddPrivateHost attaches a host behind a fresh NAT gateway on shard 0.
// natCfg's PublicIP field is ignored and replaced with a newly
// allocated global address for the gateway.
func (n *Network) AddPrivateHost(id addr.NodeID, natCfg nat.Config) (*Host, error) {
	return n.AddPrivateHostOn(id, natCfg, 0)
}

// AddPrivateHostOn attaches a NATed host whose events run on the given
// kernel shard. The gateway gets a private random stream seeded from
// the world stream at join time and reads the owning shard's clock, so
// its port allocations and mapping expiries are local to the shard
// that drives the host.
func (n *Network) AddPrivateHostOn(id addr.NodeID, natCfg nat.Config, shard int) (*Host, error) {
	if _, dup := n.liveHost(id); dup {
		return nil, fmt.Errorf("simnet: node %v already attached", id)
	}
	ctx := n.ctxs[shard]
	natCfg.PublicIP = n.allocPublicIP()
	gw, err := nat.NewGateway(natCfg, ctx.sched.Now, sim.NewRand(n.seedSrc.Int63()))
	if err != nil {
		return nil, fmt.Errorf("simnet: add private host: %w", err)
	}
	h := &Host{
		net:     n,
		ctx:     ctx,
		id:      id,
		ip:      addr.MakeIP(10, 0, 0, 2),
		gw:      gw,
		up:      true,
		traffic: &Traffic{},
	}
	n.attach(h)
	n.claimIP(gw.PublicIP(), h.idx)
	return h, nil
}

// Remove detaches a host, simulating a crash: queued packets to it are
// dropped at delivery time and its gateway disappears with it. Its
// traffic counters survive for post-mortem accounting.
func (n *Network) Remove(id addr.NodeID) {
	h, ok := n.liveHost(id)
	if !ok {
		return
	}
	h.up = false
	if h.gw != nil {
		n.releaseIP(h.gw.PublicIP())
	} else {
		n.releaseIP(h.ip)
	}
}

// Host returns the attached host for a node, if it exists and is up.
func (n *Network) Host(id addr.NodeID) (*Host, bool) {
	return n.liveHost(id)
}

// TrafficFor returns a copy of the node's accumulated counters. Counters
// survive host removal so post-mortem accounting works.
func (n *Network) TrafficFor(id addr.NodeID) Traffic {
	if i, ok := n.idToIdx[id]; ok {
		return *n.hosts[i].traffic
	}
	return Traffic{}
}

// ResetTraffic zeroes every node's counters, marking the start of a
// measurement window.
func (n *Network) ResetTraffic() {
	for _, h := range n.hosts {
		*h.traffic = Traffic{}
	}
}

// Sends returns the number of packets accepted from live sockets,
// summed over shard contexts. Every accepted packet is eventually
// delivered, dropped, or still in flight, so between windows
// Delivered()+Dropped() never exceeds Sends().
func (n *Network) Sends() uint64 {
	var t uint64
	for _, c := range n.ctxs {
		t += c.sends
	}
	return t
}

// Delivered returns the number of packets handed to socket handlers,
// summed over shard contexts. Like every measurement call it must run
// between windows.
func (n *Network) Delivered() uint64 {
	var t uint64
	for _, c := range n.ctxs {
		t += c.delivered
	}
	return t
}

// Dropped returns the number of packets lost to random loss, NAT
// filtering, partitions, or dead hosts, summed over shard contexts.
func (n *Network) Dropped() uint64 {
	var t uint64
	for _, c := range n.ctxs {
		t += c.dropped
	}
	return t
}

// PartitionDropped returns the number of packets killed by partitions,
// summed over shard contexts.
func (n *Network) PartitionDropped() uint64 {
	var t uint64
	for _, c := range n.ctxs {
		t += c.partDropped
	}
	return t
}

// ID returns the node this host belongs to.
func (h *Host) ID() addr.NodeID { return h.id }

// Index returns the host's dense network index, issued at registration.
// Indexes are never reused; overlay snapshots key per-node scratch by
// them.
func (h *Host) Index() int32 { return h.idx }

// IP returns the host's own interface address (private for NATed hosts).
func (h *Host) IP() addr.IP { return h.ip }

// Gateway returns the host's NAT gateway, or nil for public hosts.
func (h *Host) Gateway() *nat.Gateway { return h.gw }

// Up reports whether the host is attached and running.
func (h *Host) Up() bool { return h.up }

// handlerFor returns the handler bound to a local port.
func (h *Host) handlerFor(port uint16) (Handler, bool) {
	for i := range h.ports {
		if h.ports[i].port == port {
			return h.ports[i].fn, true
		}
	}
	return nil, false
}

// Bind attaches a handler to a local UDP-style port and returns the
// bound socket.
func (h *Host) Bind(port uint16, fn Handler) (*Socket, error) {
	if port == 0 {
		return nil, fmt.Errorf("simnet: cannot bind port 0")
	}
	if _, taken := h.handlerFor(port); taken {
		return nil, fmt.Errorf("simnet: %v port %d already bound", h.id, port)
	}
	h.ports = append(h.ports, portBinding{port: port, fn: fn})
	return &Socket{host: h, port: port}, nil
}

// Socket is a bound port on a host; the unit protocols send from.
type Socket struct {
	host *Host
	port uint16
}

// LocalEndpoint returns the socket's address on its own host.
func (s *Socket) LocalEndpoint() addr.Endpoint {
	return addr.Endpoint{IP: s.host.ip, Port: s.port}
}

// Host returns the socket's host.
func (s *Socket) Host() *Host { return s.host }

// Send transmits msg to the destination endpoint. Sends from dead hosts
// vanish; everything else is accounted and scheduled for delivery.
func (s *Socket) Send(to addr.Endpoint, msg wire.Message) {
	s.host.net.send(s.host, s.LocalEndpoint(), to, msg)
}

func (n *Network) send(h *Host, from, to addr.Endpoint, msg wire.Message) {
	if !h.up {
		release(msg)
		return
	}
	ctx := h.ctx
	src := from
	if h.gw != nil {
		src = h.gw.Outbound(from, to)
	}
	size := uint64(msg.Size() + n.cfg.HeaderBytes)
	h.traffic.BytesSent += size
	h.traffic.MsgsSent++
	ctx.sends++
	if m := n.m; m != nil {
		m.sends.Inc()
		m.packetBytes.Observe(size)
	}

	// Resolve the physical destination host for latency lookup. The NAT
	// admission decision is postponed to delivery time.
	dstIdx, ok := n.lookupIP(to.IP)
	if !ok {
		ctx.dropped++
		if m := n.m; m != nil {
			m.dropNoRoute.Inc()
		}
		release(msg)
		return
	}
	dst := n.hosts[dstIdx]
	loss, extra := n.linkConditions(h.id, dst.id)
	if loss > 0 && n.lossDraw(h, loss) {
		ctx.dropped++
		if m := n.m; m != nil {
			m.dropLoss.Inc()
		}
		release(msg)
		return
	}
	delay := ctx.lat.Delay(h.id, dst.id) + extra
	if m := n.m; m != nil {
		m.delayUS.Observe(uint64(delay / time.Microsecond))
	}
	if dst.ctx == ctx {
		d := ctx.newDelivery(n)
		d.srcHost, d.dstHost = h, dst
		d.src, d.to = src, to
		d.msg, d.size = msg, size
		ctx.sched.Schedule(delay, d.run)
		return
	}
	// Cross-shard: park the packet in the outbox with an ordering key
	// claimed from the sender's own counter stream. The barrier flush
	// hands it to the destination shard; the key — not the flush order
	// — decides where it pops.
	actor, seq := ctx.sched.ClaimKey()
	ctx.outbox[dst.ctx.idx] = append(ctx.outbox[dst.ctx.idx], xfer{
		at:      ctx.sched.Now() + delay,
		actor:   actor,
		seq:     seq,
		srcHost: h,
		dstHost: dst,
		src:     src,
		to:      to,
		msg:     msg,
		size:    size,
	})
}

func (n *Network) deliver(d *delivery) {
	msg := d.msg
	// Pooled messages go back to their free list however the flight
	// ends: dropped here, or once the receive handler has returned.
	defer release(msg)
	h := d.dstHost
	ctx := d.ctx
	if !h.up {
		ctx.dropped++
		if m := n.m; m != nil {
			m.dropDeadHost.Inc()
		}
		return
	}
	// The partition check happens at delivery time against the current
	// partition state: a partition struck mid-flight kills the packet, a
	// heal lets queued traffic through.
	if !n.reachableIdx(d.srcHost.idx, h.idx) {
		ctx.dropped++
		ctx.partDropped++
		if m := n.m; m != nil {
			m.dropPartition.Inc()
		}
		return
	}
	src, to := d.src, d.to
	local := to
	if h.gw != nil {
		translated, admitted := h.gw.Inbound(src, to)
		if !admitted {
			ctx.dropped++
			if m := n.m; m != nil {
				m.dropNAT.Inc()
			}
			return
		}
		local = translated
	} else if h.ip != to.IP {
		// Host changed identity between send and delivery.
		ctx.dropped++
		if m := n.m; m != nil {
			m.dropStaleIP.Inc()
		}
		return
	}
	fn, bound := h.handlerFor(local.Port)
	if !bound {
		ctx.dropped++
		if m := n.m; m != nil {
			m.dropUnbound.Inc()
		}
		return
	}
	h.traffic.BytesRecv += d.size
	h.traffic.MsgsRecv++
	ctx.delivered++
	if m := n.m; m != nil {
		m.delivered.Inc()
	}
	// The handler executes as the receiving node: every scheduling act
	// it performs (response sends, timers) must claim from the
	// receiver's own counter stream. The delivery event itself carries
	// the sender's key, so without this switch the handler would claim
	// under the sender's actor on the receiver's shard — and per-actor
	// sequence numbers would depend on the shard layout.
	ctx.sched.SetActor(int32(h.id - 1))
	fn(wire.Packet{From: src, To: to, Msg: msg})
}
