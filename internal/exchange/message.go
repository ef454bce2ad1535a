// Package exchange is the shared shuffle-exchange engine behind all
// four peer-sampling protocols (croupier, cyclon, gozar, nylon).
//
// Every protocol in this repository runs the same request/response
// cycle: once per round a node selects a shuffle partner, sends it a
// bounded subset of its view(s), remembers what it sent, and merges the
// partner's response against that record — dropping the record if no
// response arrives within a TTL. This package owns that machinery once:
// a pooled message layer (pointer messages whose payload slices are
// recycled through free lists instead of reallocated every exchange)
// and a round driver with a pending-request table. The protocols keep
// only their genuinely distinct policies — target selection, subset
// construction, merge semantics, and how a request physically reaches a
// NATed peer (directly, via a relay, or over a punched hole) — supplied
// to the engine as strategy hooks.
package exchange

import (
	"sync"

	"repro/internal/addr"
	"repro/internal/view"
	"repro/internal/wire"
)

// Estimate is one public node's local public/private ratio estimation,
// piggybacked on Croupier shuffle messages. Age counts gossip rounds
// since the estimate was produced; lower is fresher.
type Estimate struct {
	Node  addr.NodeID
	Value float64
	Age   int
}

// Req is a shuffle request. Croupier fills both view subsets and the
// estimate piggyback; the single-view protocols use Pub alone.
//
// Requests are pooled: the engine hands them out with NewReq, payload
// slices keep their backing arrays across reuses, and the network layer
// returns a request to its pool once the receive handler has run (or
// the packet is dropped). Handlers must therefore copy anything they
// want to keep — retaining a payload slice past handler exit aliases
// the next exchange's buffer.
type Req struct {
	From view.Descriptor
	// Pub and Pri are bounded subsets of the sender's views. Single-view
	// protocols leave Pri empty.
	Pub []view.Descriptor
	Pri []view.Descriptor
	// Estimates carries Croupier's ratio-estimation piggyback.
	Estimates []Estimate

	pool *Pool
	free bool
}

// Size implements wire.Message. Empty optional sections cost nothing
// on the accounted wire: the single-view protocols' messages keep the
// header + sender + one-subset format of their original papers, and
// are not charged for Croupier's private-view and estimate sections
// they never carry. The deployment codec (internal/deploy) elides
// empty sections the same way via its presence flags.
func (m *Req) Size() int {
	return messageSize(m.From, m.Pub, m.Pri, m.Estimates)
}

func messageSize(from view.Descriptor, pub, pri []view.Descriptor, ests []Estimate) int {
	n := wire.MsgHeaderSize + wire.DescriptorSize(from) + wire.DescriptorsSize(pub)
	if len(pri) > 0 {
		n += wire.DescriptorsSize(pri)
	}
	if len(ests) > 0 {
		n += wire.EstimatesSize(len(ests))
	}
	return n
}

// Release returns the request to its pool. The network layer calls it
// when the packet has been handled or dropped; owners of never-sent
// requests (a hole punch that timed out) call it themselves. Messages
// built literally (tests, the wire decoder) have no pool and Release is
// a no-op.
func (m *Req) Release() {
	if m.pool == nil || m.free {
		return
	}
	m.free = true
	m.pool.mu.Lock()
	m.pool.freeReqs = append(m.pool.freeReqs, m)
	m.pool.mu.Unlock()
	if mm := m.pool.m; mm != nil {
		mm.Recycled.Inc()
	}
}

// Res answers a Req, mirroring its layout.
type Res struct {
	From      view.Descriptor
	Pub       []view.Descriptor
	Pri       []view.Descriptor
	Estimates []Estimate

	pool *Pool
	free bool
}

// Size implements wire.Message; see Req.Size for the section rules.
func (m *Res) Size() int {
	return messageSize(m.From, m.Pub, m.Pri, m.Estimates)
}

// Release returns the response to its pool; see Req.Release.
func (m *Res) Release() {
	if m.pool == nil || m.free {
		return
	}
	m.free = true
	m.pool.mu.Lock()
	m.pool.freeRess = append(m.pool.freeRess, m)
	m.pool.mu.Unlock()
	if mm := m.pool.m; mm != nil {
		mm.Recycled.Inc()
	}
}

// Pool recycles request and response messages. Each protocol node owns
// one, but a message released by the receiving node's handler returns
// to the *sending* node's pool — under the sharded kernel sender and
// receiver can execute on different shards, so the free lists are
// guarded by a mutex. The lock is uncontended in sequential worlds and
// held for a single append or pop, and it allocates nothing, so the
// pooled paths keep their allocation guards. The zero value is ready
// to use.
type Pool struct {
	mu       sync.Mutex
	freeReqs []*Req
	freeRess []*Res

	// m counts recycles when the owning engine is instrumented; see
	// Engine.SetMetrics.
	m *Metrics
}

// NewReq returns a cleared request whose payload slices retain their
// capacity from earlier exchanges.
func (p *Pool) NewReq() *Req {
	p.mu.Lock()
	if n := len(p.freeReqs); n > 0 {
		m := p.freeReqs[n-1]
		p.freeReqs[n-1] = nil
		p.freeReqs = p.freeReqs[:n-1]
		p.mu.Unlock()
		m.From = view.Descriptor{}
		m.Pub = m.Pub[:0]
		m.Pri = m.Pri[:0]
		m.Estimates = m.Estimates[:0]
		m.free = false
		return m
	}
	p.mu.Unlock()
	return &Req{pool: p}
}

// NewRes returns a cleared response; see NewReq.
func (p *Pool) NewRes() *Res {
	p.mu.Lock()
	if n := len(p.freeRess); n > 0 {
		m := p.freeRess[n-1]
		p.freeRess[n-1] = nil
		p.freeRess = p.freeRess[:n-1]
		p.mu.Unlock()
		m.From = view.Descriptor{}
		m.Pub = m.Pub[:0]
		m.Pri = m.Pri[:0]
		m.Estimates = m.Estimates[:0]
		m.free = false
		return m
	}
	p.mu.Unlock()
	return &Res{pool: p}
}

// FreeList recycles protocol-specific auxiliary messages (relay
// wrappers, hole-punch requests and confirmations) the same way Pool
// recycles requests and responses. Like Pool it is mutex-guarded:
// auxiliary messages released by the network after a relay handled
// them return to their origin's list, which may live on another shard.
// The zero value is ready to use; the owning protocol resets recycled
// values itself.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns a recycled value or a fresh zero one.
func (f *FreeList[T]) Get() *T {
	f.mu.Lock()
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		f.mu.Unlock()
		return x
	}
	f.mu.Unlock()
	return new(T)
}

// Put returns a value to the list. Callers must not use x afterwards.
func (f *FreeList[T]) Put(x *T) {
	f.mu.Lock()
	f.free = append(f.free, x)
	f.mu.Unlock()
}

// DropNode filters descriptors for id out of ds in place — the "never
// advertise the peer back to itself" rule every protocol applies to its
// shuffle subsets.
func DropNode(ds []view.Descriptor, id addr.NodeID) []view.Descriptor {
	out := ds[:0]
	for _, d := range ds {
		if d.ID != id {
			out = append(out, d)
		}
	}
	return out
}
