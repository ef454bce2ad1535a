package main

import (
	"errors"
	"net/netip"
	"os"
	"sync"
	"time"

	"repro/internal/addr"
)

var errMemClosed = errors.New("memconn: closed")

// memNet is an in-memory datagram fabric: the benchmark's own PacketConn
// for running a deploy.Node without kernel sockets. Like UDP it drops a
// datagram whose receiver's queue is full.
type memNet struct {
	mu    sync.RWMutex
	conns map[netip.AddrPort]*memConn
	next  uint16
}

func newMemNet() *memNet {
	return &memNet{conns: map[netip.AddrPort]*memConn{}, next: 40000}
}

type memPacket struct {
	b    []byte
	from netip.AddrPort
}

// memConn is one bound endpoint of a memNet. Reads take one goroutine at
// a time, like the sockets it stands in for are used here.
type memConn struct {
	net    *memNet
	local  netip.AddrPort
	in     chan memPacket
	closed chan struct{}
	once   sync.Once
	// deadline is owned by the reading goroutine; timer is reused across
	// reads so the closed loop allocates nothing per request.
	deadline time.Time
	timer    *time.Timer
}

// listen binds the next free port on 127.0.0.1.
func (n *memNet) listen() *memConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.next++
	c := &memConn{
		net:   n,
		local: netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), n.next),
		// 256 matches the node's default inbox depth.
		in:     make(chan memPacket, 256),
		closed: make(chan struct{}),
	}
	n.conns[c.local] = c
	return c
}

func (c *memConn) endpoint() addr.Endpoint {
	return addr.Endpoint{IP: addr.MakeIP(127, 0, 0, 1), Port: c.local.Port()}
}

// LocalAddrPort implements deploy.PacketConn.
func (c *memConn) LocalAddrPort() netip.AddrPort { return c.local }

// WriteToUDPAddrPort implements deploy.PacketConn: the datagram is copied
// and queued at the destination, or dropped when nobody listens there or
// the queue is full.
func (c *memConn) WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error) {
	select {
	case <-c.closed:
		return 0, errMemClosed
	default:
	}
	c.net.mu.RLock()
	dst := c.net.conns[to]
	c.net.mu.RUnlock()
	if dst != nil {
		select {
		case dst.in <- memPacket{b: append([]byte(nil), b...), from: c.local}:
		default:
		}
	}
	return len(b), nil
}

// SetReadDeadline bounds the next reads; the zero time means no deadline.
func (c *memConn) SetReadDeadline(t time.Time) error {
	c.deadline = t
	return nil
}

// ReadFromUDPAddrPort implements deploy.PacketConn.
func (c *memConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	var expire <-chan time.Time
	if !c.deadline.IsZero() {
		if c.timer == nil {
			c.timer = time.NewTimer(time.Until(c.deadline))
		} else {
			c.timer.Reset(time.Until(c.deadline))
		}
		expire = c.timer.C
	}
	select {
	case p := <-c.in:
		return copy(b, p.b), p.from, nil
	case <-c.closed:
		return 0, netip.AddrPort{}, errMemClosed
	case <-expire:
		return 0, netip.AddrPort{}, os.ErrDeadlineExceeded
	}
}

// Close implements deploy.PacketConn; it unblocks a pending read.
func (c *memConn) Close() error {
	c.once.Do(func() {
		close(c.closed)
		c.net.mu.Lock()
		delete(c.net.conns, c.local)
		c.net.mu.Unlock()
	})
	return nil
}
