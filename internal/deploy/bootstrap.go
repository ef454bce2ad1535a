package deploy

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/bootstrap"
	"repro/internal/view"
)

// BootstrapServer is the UDP-facing bootstrap directory: public nodes
// register (and periodically refresh), joiners ask for a handful of
// public descriptors. Registrations expire after TTL without a refresh.
type BootstrapServer struct {
	conn *net.UDPConn
	ttl  time.Duration

	mu       sync.Mutex
	dir      *bootstrap.Server
	lastSeen map[addr.NodeID]time.Time
	rng      *rand.Rand

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// ListenBootstrap starts a directory on the given UDP address.
func ListenBootstrap(address string, ttl time.Duration, seed int64) (*BootstrapServer, error) {
	udpAddr, err := net.ResolveUDPAddr("udp4", address)
	if err != nil {
		return nil, fmt.Errorf("deploy: resolve %q: %w", address, err)
	}
	conn, err := net.ListenUDP("udp4", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("deploy: listen %q: %w", address, err)
	}
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	s := &BootstrapServer{
		conn:     conn,
		ttl:      ttl,
		dir:      bootstrap.NewServer(),
		lastSeen: make(map[addr.NodeID]time.Time),
		rng:      rand.New(rand.NewSource(seed)),
		done:     make(chan struct{}),
	}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Endpoint returns the directory's UDP endpoint.
func (s *BootstrapServer) Endpoint() addr.Endpoint {
	return addr.FromAddrPort(udpConn{s.conn}.LocalAddrPort())
}

// Count returns the number of live registrations.
func (s *BootstrapServer) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	return s.dir.Count()
}

// Close stops the directory.
func (s *BootstrapServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		err = s.conn.Close()
		s.wg.Wait()
	})
	return err
}

func (s *BootstrapServer) serve() {
	defer s.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		size, from, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		msg, err := Decode(buf[:size])
		if err != nil {
			continue
		}
		switch m := msg.(type) {
		case BootRegister:
			s.register(m.Desc, from)
		case BootList:
			s.answerList(m, from)
		}
	}
}

func (s *BootstrapServer) register(d view.Descriptor, from netip.AddrPort) {
	// Trust the observed source address over the claimed one: a node
	// behind a misconfigured NAT must not poison the directory.
	observed := addr.FromAddrPort(from)
	observed.Port = d.Endpoint.Port
	d.Endpoint = observed
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dir.Register(d)
	s.lastSeen[d.ID] = time.Now()
}

func (s *BootstrapServer) answerList(m BootList, from netip.AddrPort) {
	s.mu.Lock()
	s.expireLocked()
	n := int(m.Max)
	if n == 0 {
		n = 5
	}
	descs := s.dir.Publics(s.rng, n, 0)
	s.mu.Unlock()
	_, _ = s.conn.WriteToUDPAddrPort(EncodeBootListRes(BootListRes{Descs: descs}), from)
}

func (s *BootstrapServer) expireLocked() {
	cutoff := time.Now().Add(-s.ttl)
	for id, seen := range s.lastSeen {
		if seen.Before(cutoff) {
			s.dir.Unregister(id)
			delete(s.lastSeen, id)
		}
	}
}

// FetchPublics queries a bootstrap directory once and returns up to max
// public descriptors, or an error after the timeout.
func FetchPublics(directory addr.Endpoint, max int, timeout time.Duration) ([]view.Descriptor, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return nil, fmt.Errorf("deploy: fetch publics: %w", err)
	}
	defer conn.Close()
	if max <= 0 || max > 255 {
		max = 5
	}
	if _, err := conn.WriteToUDPAddrPort(EncodeBootList(BootList{Max: uint8(max)}), directory.AddrPort()); err != nil {
		return nil, fmt.Errorf("deploy: query directory: %w", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	buf := make([]byte, 64*1024)
	size, _, err := conn.ReadFromUDP(buf)
	if err != nil {
		return nil, fmt.Errorf("deploy: directory answer: %w", err)
	}
	msg, err := Decode(buf[:size])
	if err != nil {
		return nil, err
	}
	res, ok := msg.(BootListRes)
	if !ok {
		return nil, fmt.Errorf("deploy: unexpected answer %T", msg)
	}
	return res.Descs, nil
}
