package natid

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/addr"
)

// UDPNode runs the identification protocol over a real UDP socket, for
// deployments and the cmd/natprobe tool. One UDPNode may host a client,
// a server, or both. Handler callbacks are serialised by an internal
// mutex, so the transport gives the protocol the same single-threaded
// discipline the simulator does.
type UDPNode struct {
	conn *net.UDPConn

	mu  sync.Mutex
	mux Mux // guarded by mu

	// localIP is read by protocol handlers that already run under mu
	// (LocalIP must therefore not take mu itself), so it is atomic.
	localIP atomic.Uint32

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// ListenUDP binds a UDP socket on address (e.g. "127.0.0.1:0") and
// starts the receive loop. Callers must Close the node when finished.
func ListenUDP(address string) (*UDPNode, error) {
	udpAddr, err := net.ResolveUDPAddr("udp4", address)
	if err != nil {
		return nil, fmt.Errorf("natid: resolve %q: %w", address, err)
	}
	conn, err := net.ListenUDP("udp4", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("natid: listen %q: %w", address, err)
	}
	local, ok := conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		conn.Close()
		return nil, errors.New("natid: unexpected local address type")
	}
	n := &UDPNode{
		conn: conn,
		done: make(chan struct{}),
	}
	n.localIP.Store(uint32(addr.FromAddrPort(local.AddrPort()).IP))
	n.wg.Add(1)
	go n.readLoop()
	return n, nil
}

// Endpoint returns the socket's bound endpoint.
func (n *UDPNode) Endpoint() addr.Endpoint {
	local, ok := n.conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		return addr.Endpoint{}
	}
	return addr.FromAddrPort(local.AddrPort())
}

// SetClient attaches a client to receive ForwardResp messages.
func (n *UDPNode) SetClient(c *Client) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mux.SetClient(c)
}

// StartClient attaches the client and starts its run while holding the
// node's handler lock, so the run cannot race with incoming packets or
// timer callbacks. The client's done callback must not call Close
// synchronously (it runs on the receive/timer path); signal another
// goroutine instead.
func (n *UDPNode) StartClient(c *Client, publics []addr.Endpoint, upnp UPnPMapper) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mux.SetClient(c)
	c.Start(publics, upnp)
}

// StartMappingClient attaches the mapping client and starts its run
// under the node's handler lock, mirroring StartClient.
func (n *UDPNode) StartMappingClient(c *MappingClient, helpers []addr.Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mux.SetMappingClient(c)
	c.Start(helpers)
}

// SetServer attaches a server to receive test messages.
func (n *UDPNode) SetServer(s *Server) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mux.SetServer(s)
}

// SetLocalIP overrides the IP reported to the protocol logic. Tests use
// this to exercise the address-mismatch (private) verdict without a NAT.
func (n *UDPNode) SetLocalIP(ip addr.IP) {
	n.localIP.Store(uint32(ip))
}

// Close shuts the socket down and waits for the receive loop to exit.
func (n *UDPNode) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.done)
		err = n.conn.Close()
		n.wg.Wait()
	})
	return err
}

// Send implements Env. Transmission errors are dropped silently — UDP
// gives no delivery guarantee either way, and the protocol's timeout
// covers losses.
func (n *UDPNode) Send(to addr.Endpoint, m Msg) {
	_, _ = n.conn.WriteToUDPAddrPort(Encode(m), to.AddrPort())
}

// After implements Env with a real timer whose callback is serialised
// with packet handling.
func (n *UDPNode) After(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		select {
		case <-n.done:
			return
		default:
		}
		fn()
	})
	return func() { t.Stop() }
}

// LocalIP implements Env. It is called from handlers that already hold
// the node's handler lock, so it must not (and does not) take it.
func (n *UDPNode) LocalIP() addr.IP {
	return addr.IP(n.localIP.Load())
}

func (n *UDPNode) readLoop() {
	defer n.wg.Done()
	buf := make([]byte, 2048)
	for {
		size, from, err := n.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-n.done:
				return
			default:
			}
			// Transient errors: keep serving unless closed.
			continue
		}
		msg, err := Decode(buf[:size])
		if err != nil {
			continue // malformed datagram
		}
		n.mu.Lock()
		n.mux.Dispatch(addr.FromAddrPort(from), msg)
		n.mu.Unlock()
	}
}

// Classification bundles the two probe outcomes a deployment wants
// before it starts gossiping: the paper's reachability verdict plus the
// mapping behaviour separating cone from symmetric NATs.
type Classification struct {
	Result  Result
	Mapping MappingResult
}

// Classify runs both probes over the node's socket and blocks until
// each concludes or times out: first the reachability test (Algorithm
// 1) against probes — keep at least one helper out of this set, because
// the forwarder must not be probed — then the mapping comparison
// against every helper. The probes may be nil to skip the reachability
// test (Result.Type stays NatUnknown).
func (n *UDPNode) Classify(probes, helpers []addr.Endpoint, timeout time.Duration, upnp UPnPMapper) Classification {
	var cls Classification
	if probes != nil {
		resCh := make(chan Result, 1)
		c := NewClient(n, timeout, func(r Result) { resCh <- r })
		n.StartClient(c, probes, upnp)
		cls.Result = <-resCh
	}
	mapCh := make(chan MappingResult, 1)
	token := uint32(time.Now().UnixNano())
	mc := NewMappingClient(n, timeout, token, func(r MappingResult) { mapCh <- r })
	n.StartMappingClient(mc, helpers)
	cls.Mapping = <-mapCh
	return cls
}
