package deploy

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/croupier"
	"repro/internal/metrics"
	"repro/internal/pss"
	"repro/internal/ratelimit"
	"repro/internal/view"
	"repro/internal/wire"
)

// PacketConn is the socket surface the node runtime drives.
// *net.UDPConn satisfies it (via the wrapper StartNode applies);
// tests inject in-memory fault-injecting implementations to run
// compressed deployments with loss, junk floods and dead directories
// without touching a real socket. WriteToUDPAddrPort must not retain b
// after it returns: the node encodes every shuffle message into one
// reused buffer.
type PacketConn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error)
	LocalAddrPort() netip.AddrPort
	Close() error
}

// udpConn adapts *net.UDPConn to PacketConn.
type udpConn struct{ *net.UDPConn }

func (c udpConn) LocalAddrPort() netip.AddrPort {
	a, ok := c.LocalAddr().(*net.UDPAddr)
	if !ok {
		return netip.AddrPort{}
	}
	return a.AddrPort()
}

// NodeConfig describes one deployed Croupier node.
type NodeConfig struct {
	// Listen is the UDP address to bind ("ip:port"; port 0 allowed).
	// Ignored when Conn is set.
	Listen string
	// Conn, when non-nil, is a pre-bound socket the node takes
	// ownership of (closed on Close). Nil binds Listen over UDP.
	Conn PacketConn
	// ID must be unique in the deployment (e.g. random 64-bit).
	ID addr.NodeID
	// Nat declares the node's NAT type, as determined out-of-band or
	// by the natid protocol (cmd/natprobe).
	Nat addr.NatType
	// Advertise is the endpoint put into the node's own descriptor;
	// zero means the bound socket address (open-internet hosts).
	Advertise addr.Endpoint
	// Directory is the bootstrap server's endpoint.
	Directory addr.Endpoint
	// FetchSeeds, when non-nil, replaces the UDP directory query used
	// for the initial seed fetch and every re-bootstrap. It is called
	// from a background goroutine and must be safe to call repeatedly.
	FetchSeeds func() ([]view.Descriptor, error)
	// Croupier holds the protocol parameters; zero means defaults.
	// The Params.Period also drives the real-time gossip ticker.
	Croupier croupier.Config
	// Ticks, when non-nil, replaces the internal round ticker: every
	// receive drives one gossip round. Tests use it to run compressed
	// deployments on a manual clock.
	Ticks <-chan time.Time
	// Now supplies the rate limiter's clock in nanoseconds; nil means
	// real time. Tests driving compressed time through Ticks supply a
	// matching fake clock so per-second budgets track simulated
	// rounds. Called concurrently from the receive goroutine.
	Now func() int64
	// RateLimit bounds the receive path per source and in aggregate
	// before any datagram is decoded; the zero value applies the
	// package defaults (generous next to legitimate gossip cadence).
	RateLimit ratelimit.Config
	// MaxDatagram rejects received datagrams larger than this many
	// bytes before decoding (deploy_oversize_total); 0 means 2048,
	// comfortably above the largest legitimate shuffle message.
	MaxDatagram int
	// MaxPending caps the protocol core's pending-exchange table;
	// beyond it the oldest record is evicted. 0 means 64, negative
	// leaves the table bounded by TTL alone (the simulator behaviour).
	MaxPending int
	// KeepaliveEvery, when positive, makes a NATed (non-public) node
	// send a tiny keepalive datagram to each public-view peer every
	// that many rounds, refreshing its NAT port mapping between
	// shuffles. 0 disables keepalives.
	KeepaliveEvery int
	// Seed drives protocol randomness; 0 derives one from the ID.
	Seed int64
	// Registry, when non-nil, instruments the node: UDP traffic, decode
	// errors, pending-exchange depth and the full protocol counter set
	// accumulate into it for scraping (cmd/croupier-node -metrics-addr).
	Registry *metrics.Registry
}

// nodeMetrics is the deploy-layer instrument set; nil on uninstrumented
// nodes.
type nodeMetrics struct {
	udpRx       *metrics.Counter
	udpRxBytes  *metrics.Counter
	udpTx       *metrics.Counter
	udpTxBytes  *metrics.Counter
	decodeErrs  *metrics.Counter
	inboxDrops  *metrics.Counter
	rlDropped   *metrics.Counter
	oversize    *metrics.Counter
	keepaliveTx *metrics.Counter
	keepaliveRx *metrics.Counter
	reseeds     *metrics.Counter
	reseedErrs  *metrics.Counter
	pending     *metrics.Gauge
}

func newNodeMetrics(r *metrics.Registry) *nodeMetrics {
	return &nodeMetrics{
		udpRx:       r.Counter("deploy_udp_rx_total", "UDP datagrams received."),
		udpRxBytes:  r.Counter("deploy_udp_rx_bytes_total", "UDP payload bytes received."),
		udpTx:       r.Counter("deploy_udp_tx_total", "UDP datagrams sent."),
		udpTxBytes:  r.Counter("deploy_udp_tx_bytes_total", "UDP payload bytes sent."),
		decodeErrs:  r.Counter("deploy_decode_errors_total", "Datagrams dropped as undecodable."),
		inboxDrops:  r.Counter("deploy_inbox_drops_total", "Datagrams dropped because the driver inbox was full."),
		rlDropped:   r.Counter("deploy_ratelimit_dropped_total", "Datagrams dropped by the receive-path rate limiter."),
		oversize:    r.Counter("deploy_oversize_total", "Datagrams rejected as larger than the configured maximum."),
		keepaliveTx: r.Counter("deploy_keepalives_sent_total", "NAT-mapping keepalive datagrams sent."),
		keepaliveRx: r.Counter("deploy_keepalives_recv_total", "NAT-mapping keepalive datagrams received."),
		reseeds:     r.Counter("deploy_rebootstrap_total", "Background seed fetches started."),
		reseedErrs:  r.Counter("deploy_rebootstrap_failures_total", "Background seed fetches that failed or came back empty."),
		pending:     r.Gauge("deploy_pending_exchanges", "Shuffle requests awaiting a response or TTL expiry."),
	}
}

// inboxDepth bounds the datagram queue between the receive and driver
// goroutines; when full the oldest queued datagram is dropped
// (deploy_inbox_drops_total).
const inboxDepth = 256

// Node is a Croupier instance gossiping over real UDP. All protocol
// state is confined to one driver goroutine; public methods communicate
// with it through channels, so Node is safe for concurrent use.
//
// The receive path is allocation-free once warm and hardened against
// hostile traffic: oversize datagrams and sources exceeding the rate
// limit are rejected before any decoding, the inbox between the read
// and driver goroutines drops oldest-first under overload, and the
// driver decodes through a pooled Decoder whose messages are released
// after handling — mirroring the simulator's zero-alloc exchange path.
type Node struct {
	cfg  NodeConfig
	conn PacketConn
	core *croupier.Node
	dec  Decoder
	m    *nodeMetrics

	limiter *ratelimit.Limiter // owned by readLoop
	now     func() int64       // rate-limit clock

	inbox chan datagram
	query chan func(*croupier.Node)
	// bufs recycles datagram buffers between the read loop and the
	// driver loop. It holds *recvBuf, not []byte, so Put/Get move a
	// pointer instead of boxing a slice header per packet.
	bufs sync.Pool

	// Re-bootstrap state. fetchSeeds runs on short-lived background
	// goroutines (never the driver); completed fetches land in
	// reseedCh for the driver-side hook to serve. The backoff counters
	// are driver-owned.
	fetchSeeds     func() ([]view.Descriptor, error)
	reseedCh       chan []view.Descriptor
	reseedInflight bool
	reseedBackoff  int // rounds between attempts after a failure
	reseedWait     int // countdown until the next attempt

	draining bool // driver-owned: registration and keepalives stop

	closeOnce sync.Once
	closeErr  error
	done      chan struct{}
	wg        sync.WaitGroup
}

// recvBuf is one pooled receive buffer.
type recvBuf struct {
	b []byte
}

// datagram is one received UDP payload on its way to the driver loop.
type datagram struct {
	buf  *recvBuf
	n    int
	from addr.Endpoint
}

// transport implements exchange.Transport over the node's socket. buf
// is the encoding buffer every send reuses: the protocol core calls
// Send only from the driver goroutine, and the socket does not retain
// what it writes (see PacketConn).
type transport struct {
	conn PacketConn
	m    *nodeMetrics
	buf  []byte
}

// Send implements exchange.Transport. Encoding errors cannot happen
// (both message types are always encodable); write errors are dropped
// like any UDP loss. Send owns the pooled message: once serialised it
// is released back to the protocol core's pool, mirroring the simulated
// network's recycle-after-flight contract.
func (t *transport) Send(to addr.Endpoint, msg wire.Message) {
	switch m := msg.(type) {
	case *croupier.ShuffleReq:
		t.buf = encodeShuffle(t.buf[:0], kindShuffleReq, m.From, m.Pub, m.Pri, m.Estimates)
	case *croupier.ShuffleRes:
		t.buf = encodeShuffle(t.buf[:0], kindShuffleRes, m.From, m.Pub, m.Pri, m.Estimates)
	default:
		return
	}
	_, _ = t.conn.WriteToUDPAddrPort(t.buf, to.AddrPort())
	if m := t.m; m != nil {
		m.udpTx.Inc()
		m.udpTxBytes.Add(uint64(len(t.buf)))
	}
	if r, ok := msg.(wire.Releasable); ok {
		r.Release()
	}
}

// StartNode binds the socket, fetches seeds from the bootstrap
// directory, registers (public nodes), and starts gossiping.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Nat == addr.NatUnknown {
		return nil, fmt.Errorf("deploy: node %v needs a NAT type (run natprobe)", cfg.ID)
	}
	if cfg.Croupier.Params.ViewSize == 0 {
		cfg.Croupier = croupier.DefaultConfig()
	}
	if cfg.Seed == 0 {
		cfg.Seed = int64(cfg.ID)
	}
	if err := cfg.RateLimit.Validate(); err != nil {
		return nil, fmt.Errorf("deploy: node %v: %w", cfg.ID, err)
	}
	if cfg.MaxDatagram == 0 {
		cfg.MaxDatagram = 2048
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = 64
	}

	conn := cfg.Conn
	if conn == nil {
		udpAddr, err := net.ResolveUDPAddr("udp4", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("deploy: resolve %q: %w", cfg.Listen, err)
		}
		uc, err := net.ListenUDP("udp4", udpAddr)
		if err != nil {
			return nil, fmt.Errorf("deploy: listen %q: %w", cfg.Listen, err)
		}
		conn = udpConn{uc}
	}
	if cfg.Advertise.IsZero() {
		cfg.Advertise = addr.FromAddrPort(conn.LocalAddrPort())
	}

	fetch := cfg.FetchSeeds
	if fetch == nil && !cfg.Directory.IsZero() {
		directory := cfg.Directory
		fetch = func() ([]view.Descriptor, error) {
			return FetchPublics(directory, 5, 2*time.Second)
		}
	}
	var seeds []view.Descriptor
	if fetch != nil {
		var err error
		seeds, err = fetch()
		if err != nil && cfg.Nat != addr.Public {
			// Private nodes cannot start without croupiers to talk
			// to; public nodes may legitimately be first.
			conn.Close()
			return nil, fmt.Errorf("deploy: node %v: %w", cfg.ID, err)
		}
	}

	var nm *nodeMetrics
	if cfg.Registry != nil {
		nm = newNodeMetrics(cfg.Registry)
	}
	core, err := croupier.NewWithTransport(cfg.Croupier, cfg.ID,
		rand.New(rand.NewSource(cfg.Seed)), &transport{conn: conn, m: nm},
		cfg.Nat, cfg.Advertise, seeds)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if cfg.MaxPending > 0 {
		core.SetMaxPending(cfg.MaxPending)
	}
	if cfg.Registry != nil {
		core.SetMetrics(pss.NewMetrics(cfg.Registry, "croupier"))
	}
	now := cfg.Now
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	n := &Node{
		cfg:        cfg,
		conn:       conn,
		core:       core,
		m:          nm,
		limiter:    ratelimit.New(cfg.RateLimit, now()),
		now:        now,
		inbox:      make(chan datagram, inboxDepth),
		query:      make(chan func(*croupier.Node)),
		fetchSeeds: fetch,
		reseedCh:   make(chan []view.Descriptor, 1),
		done:       make(chan struct{}),
	}
	core.SetRebootstrap(n.reseedHook)
	n.bufs.New = func() any { return &recvBuf{b: make([]byte, 64*1024)} }
	n.wg.Add(2)
	go n.readLoop()
	go n.driverLoop()
	return n, nil
}

// Endpoint returns the bound socket endpoint.
func (n *Node) Endpoint() addr.Endpoint {
	return addr.FromAddrPort(n.conn.LocalAddrPort())
}

// ID returns the node's identifier.
func (n *Node) ID() addr.NodeID { return n.cfg.ID }

// Close stops gossiping immediately and releases the socket, dropping
// any in-flight exchange state. Safe to call concurrently and
// repeatedly: every caller returns after shutdown has completed, with
// the socket-close result of the first.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		n.closeErr = n.conn.Close()
		n.wg.Wait()
	})
	return n.closeErr
}

// Shutdown stops the node gracefully: gossip initiation, registration
// refreshes and keepalives stop immediately, while incoming responses
// keep merging and pending exchanges keep expiring on the round clock
// until the pending table empties or grace elapses. Then the socket is
// released. Safe to call concurrently with Close and itself.
func (n *Node) Shutdown(grace time.Duration) error {
	n.do(func(c *croupier.Node) {
		c.SetDraining(true)
		n.draining = true
	})
	deadline := time.Now().Add(grace)
	for {
		pending := -1
		n.do(func(c *croupier.Node) { pending = c.PendingExchanges() })
		if pending <= 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return n.Close()
}

// Estimate returns the node's current public/private ratio estimate.
func (n *Node) Estimate() (est float64, ok bool) {
	n.do(func(c *croupier.Node) { est, ok = c.Estimate() })
	return est, ok
}

// Sample draws one peer from the node's views.
func (n *Node) Sample() (d view.Descriptor, ok bool) {
	n.do(func(c *croupier.Node) { d, ok = c.Sample() })
	return d, ok
}

// Neighbors snapshots the node's current views.
func (n *Node) Neighbors() (ds []view.Descriptor) {
	n.do(func(c *croupier.Node) { ds = c.Neighbors() })
	return ds
}

// Rounds returns the number of gossip rounds executed so far.
func (n *Node) Rounds() (r int) {
	n.do(func(c *croupier.Node) { r = c.Rounds() })
	return r
}

// PendingExchanges returns the depth of the core's pending table.
func (n *Node) PendingExchanges() (p int) {
	n.do(func(c *croupier.Node) { p = c.PendingExchanges() })
	return p
}

// do runs fn on the driver goroutine and waits for it, keeping all
// protocol state single-threaded. After Close, fn does not run.
func (n *Node) do(fn func(*croupier.Node)) {
	doneCh := make(chan struct{})
	select {
	case n.query <- func(c *croupier.Node) {
		fn(c)
		close(doneCh)
	}:
		<-doneCh
	case <-n.done:
	}
}

// admit applies the pre-decode admission checks to one received
// datagram: size ceiling first, then the per-source and global rate
// limits, attributing drops to their counters.
func (n *Node) admit(size int, from addr.Endpoint) bool {
	if size > n.cfg.MaxDatagram {
		if m := n.m; m != nil {
			m.oversize.Inc()
		}
		return false
	}
	key := uint64(from.IP)<<16 | uint64(from.Port)
	if v := n.limiter.Allow(n.now(), key); v != ratelimit.Admit {
		if m := n.m; m != nil {
			m.rlDropped.Inc()
		}
		return false
	}
	return true
}

// readLoop moves raw datagrams off the socket into the driver's inbox.
// Hostile traffic is shed here — oversize rejection and rate limiting
// run before a datagram costs anything beyond the read — and decoding
// happens on the driver goroutine, where the pooled decoder's
// single-goroutine contract holds; buffers travel through a free list
// so the loop allocates nothing once warm.
func (n *Node) readLoop() {
	defer n.wg.Done()
	for {
		buf, _ := n.bufs.Get().(*recvBuf)
		size, from, err := n.conn.ReadFromUDPAddrPort(buf.b)
		if err != nil {
			n.bufs.Put(buf)
			select {
			case <-n.done:
				return
			default:
				continue
			}
		}
		if m := n.m; m != nil {
			m.udpRx.Inc()
			m.udpRxBytes.Add(uint64(size))
		}
		d := datagram{buf: buf, n: size, from: addr.FromAddrPort(from)}
		if !n.admit(d.n, d.from) {
			n.bufs.Put(buf)
			continue
		}
		select {
		case n.inbox <- d:
		case <-n.done:
			n.bufs.Put(buf)
			return
		default:
			// Inbox full: evict the oldest queued datagram — staler
			// gossip is worth less than fresher gossip — then retry
			// once (the driver may also have drained concurrently).
			select {
			case old := <-n.inbox:
				n.bufs.Put(old.buf)
				if m := n.m; m != nil {
					m.inboxDrops.Inc()
				}
			default:
			}
			select {
			case n.inbox <- d:
			default:
				n.bufs.Put(buf)
				if m := n.m; m != nil {
					m.inboxDrops.Inc()
				}
			}
		}
	}
}

// handleDatagram decodes and dispatches one datagram on the driver
// goroutine, returning the buffer to the pool and releasing the pooled
// message once the protocol handler is done with it.
func (n *Node) handleDatagram(d datagram) {
	msg, err := n.dec.Decode(d.buf.b[:d.n])
	n.bufs.Put(d.buf)
	if err != nil {
		if m := n.m; m != nil {
			m.decodeErrs.Inc()
		}
		return
	}
	var payload wire.Message
	switch m := msg.(type) {
	case *croupier.ShuffleReq:
		payload = m
	case *croupier.ShuffleRes:
		payload = m
	case Keepalive:
		if nm := n.m; nm != nil {
			nm.keepaliveRx.Inc()
		}
		return
	default:
		return
	}
	n.core.HandlePacket(wire.Packet{From: d.from, Msg: payload})
	if r, ok := payload.(wire.Releasable); ok {
		r.Release()
	}
}

// driverLoop owns the protocol core: packets, rounds, registration
// refreshes, keepalives and state queries all execute here
// sequentially.
func (n *Node) driverLoop() {
	defer n.wg.Done()
	ticks := n.cfg.Ticks
	if ticks == nil {
		ticker := time.NewTicker(n.cfg.Croupier.Params.Period)
		defer ticker.Stop()
		ticks = ticker.C
	}

	registerEvery := 5
	rounds := 0
	n.maybeRegister()
	for {
		select {
		case d := <-n.inbox:
			n.handleDatagram(d)
		case <-ticks:
			n.core.RunRound()
			rounds++
			if m := n.m; m != nil {
				m.pending.Set(int64(n.core.PendingExchanges()))
			}
			if rounds%registerEvery == 0 {
				n.maybeRegister()
			}
			n.maybeKeepalive(rounds)
		case fn := <-n.query:
			fn(n.core)
		case <-n.done:
			return
		}
	}
}

// reseedHook is the protocol core's rebootstrap callback, called on
// the driver goroutine whenever the public view runs empty (and on the
// periodic anti-entropy schedule, if configured). The actual directory
// query runs on a background goroutine so a slow or dead directory
// never stalls the round loop; failures back off exponentially (1, 2,
// 4, … 64 rounds) and any completed fetch is served on a later call.
func (n *Node) reseedHook() []view.Descriptor {
	select {
	case seeds := <-n.reseedCh:
		n.reseedInflight = false
		if len(seeds) > 0 {
			n.reseedBackoff = 0
			return seeds
		}
		if m := n.m; m != nil {
			m.reseedErrs.Inc()
		}
		if n.reseedBackoff < 64 {
			if n.reseedBackoff == 0 {
				n.reseedBackoff = 1
			} else {
				n.reseedBackoff *= 2
			}
		}
		n.reseedWait = n.reseedBackoff
	default:
	}
	if n.fetchSeeds == nil || n.reseedInflight {
		return nil
	}
	if n.reseedWait > 0 {
		n.reseedWait--
		return nil
	}
	n.reseedInflight = true
	if m := n.m; m != nil {
		m.reseeds.Inc()
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		seeds, err := n.fetchSeeds()
		if err != nil {
			seeds = nil
		}
		select {
		case n.reseedCh <- seeds:
		case <-n.done:
		}
	}()
	return nil
}

// maybeRegister refreshes the bootstrap registration for public nodes.
func (n *Node) maybeRegister() {
	if n.cfg.Nat != addr.Public || n.cfg.Directory.IsZero() || n.draining {
		return
	}
	d := view.Descriptor{ID: n.cfg.ID, Endpoint: n.cfg.Advertise, Nat: addr.Public}
	b := EncodeBootRegister(BootRegister{Desc: d})
	_, _ = n.conn.WriteToUDPAddrPort(b, n.cfg.Directory.AddrPort())
	if m := n.m; m != nil {
		m.udpTx.Inc()
		m.udpTxBytes.Add(uint64(len(b)))
	}
}

// maybeKeepalive sends NAT-mapping keepalives from a NATed node to its
// public-view peers on the configured round schedule, so the mapping
// that lets croupiers reach back stays open between shuffles.
func (n *Node) maybeKeepalive(rounds int) {
	every := n.cfg.KeepaliveEvery
	if every <= 0 || n.cfg.Nat == addr.Public || n.draining || rounds%every != 0 {
		return
	}
	b := EncodeKeepalive(Keepalive{From: n.cfg.ID})
	for _, d := range n.core.PublicView() {
		_, _ = n.conn.WriteToUDPAddrPort(b, d.Endpoint.AddrPort())
		if m := n.m; m != nil {
			m.keepaliveTx.Inc()
			m.udpTx.Inc()
			m.udpTxBytes.Add(uint64(len(b)))
		}
	}
}
