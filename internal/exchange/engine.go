package exchange

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/view"
	"repro/internal/wire"
)

// Transport carries protocol messages for one node: *simnet.Socket
// inside simulations, internal/deploy's UDP sender in deployments. Send
// transfers ownership of pooled messages to the transport (see
// wire.Releasable).
type Transport interface {
	Send(to addr.Endpoint, msg wire.Message)
}

// Delivery is a Protocol's verdict on how a request left the node.
type Delivery uint8

const (
	// Sent means the request is on the wire; the engine records the
	// pending exchange immediately.
	Sent Delivery = iota
	// Deferred means the protocol stashed the request until a path
	// opens (nylon's hole punch); the protocol calls Open itself when
	// it finally transmits, and releases the request if it never does.
	Deferred
	// Failed means no route existed; the engine releases the request
	// and no exchange is recorded.
	Failed
)

// Protocol is the strategy surface a peer-sampling implementation plugs
// into the engine: everything protocol-specific about one shuffle
// round, with the shared initiate → pending → merge machinery left to
// the engine.
type Protocol interface {
	// PrepareRound runs protocol upkeep at the top of a round: view
	// aging, estimate or relay maintenance, re-bootstrap of drained
	// views. expired is how many pending exchanges the engine just
	// dropped as lost.
	PrepareRound(expired int)
	// SelectPeer picks this round's shuffle target (typically removing
	// the oldest view entry). Returning false skips the round.
	SelectPeer() (view.Descriptor, bool)
	// FillRequest populates the pooled request for the target by
	// appending into its payload slices; the request owns its storage.
	FillRequest(target view.Descriptor, req *Req)
	// Deliver transmits the request — directly, via a relay, or not at
	// all — and reports which of those happened.
	Deliver(target view.Descriptor, req *Req) Delivery
	// MergeResponse folds an accepted response into local state.
	// sentPub and sentPri are the subsets recorded when the exchange
	// was opened; neither they nor res may be retained past the call.
	MergeResponse(res *Res, sentPub, sentPri []view.Descriptor)
}

// record remembers what a requester sent, so the response merge can
// apply swapper semantics. Records are pooled alongside the messages.
type record struct {
	peer     addr.NodeID
	pub, pri []view.Descriptor
	round    int
}

// Engine is the shared shuffle machinery of one protocol node: the
// message pool and the table of sent-but-unanswered exchanges with
// their per-request TTL. All methods must be called from the node's
// single driving goroutine.
//
// The pending table is a small slice, not a map: a node opens at most
// one exchange per round and entries expire after a few rounds, so the
// table holds a handful of records and a linear scan beats hashing —
// the per-round expiry walk in particular costs nothing when the table
// is empty, where even iterating an empty map does not.
type Engine struct {
	pool    Pool
	pending []*record
	recPool FreeList[record]
	ttl     int
	rounds  int
	// maxPending, when positive, hard-caps the pending table: opening
	// an exchange past it evicts the oldest record first. The table is
	// naturally bounded at ttl+1 records when the engine's own RunRound
	// is the only opener, but deployment nodes pin the invariant so no
	// future opener (or bug) can grow it under hostile traffic.
	maxPending int

	// checks arms the PeerSwap-style exchange invariants (see
	// EnableChecks); checkSelf is the owning node's identity, which the
	// engine otherwise never needs to know.
	checks    bool
	checkSelf addr.NodeID

	// m holds the engine instruments, usually shared across a whole
	// world's engines; nil when uninstrumented.
	m *Metrics

	// trace, when non-nil, records every partner selection under
	// traceSelf's identity — the randomness-verification hook
	// (internal/randcheck). Same cost contract as m: one nil check per
	// round when absent.
	trace     *Trace
	traceSelf addr.NodeID
}

// SetMetrics installs (typically shared) instruments on the engine and
// its message pool. Call before the node starts exchanging.
func (e *Engine) SetMetrics(m *Metrics) {
	e.m = m
	e.pool.m = m
}

// SetTrace installs a (typically world-shared) selection trace on the
// engine, recording self as the selector of every subsequent pick. Call
// before the node starts exchanging; a nil trace detaches the hook.
func (e *Engine) SetTrace(self addr.NodeID, t *Trace) {
	e.trace = t
	e.traceSelf = self
}

// EnableChecks arms debug assertions over the exchange machinery,
// inspired by the randomness/soundness invariants PeerSwap
// (arXiv:2408.03829) states for atomic view exchanges:
//
//   - no self-swap: a node never opens a shuffle exchange with itself
//     (a self-exchange would double-count state and bias sampling);
//   - exchange atomicity: a response only ever merges against the
//     pending record of its own exchange — same peer (structurally
//     guaranteed by the peer-keyed lookup today, asserted so a future
//     refactor of the pending table cannot silently break it) and
//     opened within the TTL window — so merged state came from the
//     recorded pending exchange and not from a stale or foreign one.
//
// A violation panics with a diagnostic: these are programming-error
// assertions for tests and debug runs (they sit on the per-round hot
// path, so production configurations leave them off; the croupier
// round test exercises a full deployment with them armed).
func (e *Engine) EnableChecks(self addr.NodeID) {
	e.checks = true
	e.checkSelf = self
}

// verifyOpen asserts the no-self-swap invariant at exchange-open time.
func (e *Engine) verifyOpen(peer addr.NodeID) {
	if peer == e.checkSelf {
		panic(fmt.Sprintf("exchange: invariant violation: node %v opened a shuffle exchange with itself", peer))
	}
}

// verifyMerge asserts exchange atomicity just before a response merge.
// The peer-identity check cannot fire while HandleResponse looks the
// record up by res.From.ID — it pins that contract against refactors;
// the TTL-age and not-self checks are the assertions with teeth today.
func (e *Engine) verifyMerge(r *record, res *Res) {
	if r.peer != res.From.ID {
		panic(fmt.Sprintf("exchange: invariant violation: merging response from %v against exchange recorded for %v",
			res.From.ID, r.peer))
	}
	if res.From.ID == e.checkSelf {
		panic(fmt.Sprintf("exchange: invariant violation: node %v merging a response from itself", e.checkSelf))
	}
	if age := e.rounds - r.round; age < 0 || age > e.ttl {
		panic(fmt.Sprintf("exchange: invariant violation: merging against a record aged %d rounds (TTL %d)", age, e.ttl))
	}
}

// NewEngine builds an engine whose pending exchanges expire after
// pendingTTL rounds without a response.
func NewEngine(pendingTTL int) (*Engine, error) {
	if pendingTTL <= 0 {
		return nil, fmt.Errorf("exchange: pending TTL must be positive, got %d", pendingTTL)
	}
	return &Engine{ttl: pendingTTL}, nil
}

// InitEngine initialises a zero engine in place, for owners that embed
// the engine by value. The engine contains mutex-guarded pools, so a
// constructed engine cannot be copied into its final home; in-place
// initialisation keeps the value embed legal.
func InitEngine(e *Engine, pendingTTL int) error {
	if pendingTTL <= 0 {
		return fmt.Errorf("exchange: pending TTL must be positive, got %d", pendingTTL)
	}
	e.ttl = pendingTTL
	return nil
}

// SetMaxPending hard-caps the pending table at n records (0 restores
// the default: bounded only by the per-record TTL). When an open would
// exceed the cap, the oldest record is evicted and counted as expired
// plus evicted in the engine metrics.
func (e *Engine) SetMaxPending(n int) { e.maxPending = n }

// enforcePendingCap evicts oldest records until an append stays within
// the cap.
func (e *Engine) enforcePendingCap() {
	if e.maxPending <= 0 {
		return
	}
	for len(e.pending) >= e.maxPending {
		r := e.pending[0]
		e.removePending(0)
		e.putRecord(r)
		if e.m != nil {
			e.m.Evicted.Inc()
		}
	}
}

// Rounds returns the number of rounds driven so far.
func (e *Engine) Rounds() int { return e.rounds }

// PendingLen returns the number of open exchanges, for tests and
// diagnostics.
func (e *Engine) PendingLen() int { return len(e.pending) }

// findPending returns the position of peer's open exchange, or -1.
func (e *Engine) findPending(peer addr.NodeID) int {
	for i, r := range e.pending {
		if r.peer == peer {
			return i
		}
	}
	return -1
}

// removePending deletes the record at position i, preserving order so
// expiry scans stay deterministic.
func (e *Engine) removePending(i int) {
	copy(e.pending[i:], e.pending[i+1:])
	e.pending[len(e.pending)-1] = nil
	e.pending = e.pending[:len(e.pending)-1]
}

// Pending reports whether an exchange with peer is awaiting a response.
func (e *Engine) Pending(peer addr.NodeID) bool {
	return e.findPending(peer) >= 0
}

// NewReq hands out a pooled request.
func (e *Engine) NewReq() *Req { return e.pool.NewReq() }

// NewRes hands out a pooled response.
func (e *Engine) NewRes() *Res { return e.pool.NewRes() }

// RunRound executes one round of the generic shuffle driver: advance
// the round counter, expire stale pending exchanges, let the protocol
// run its upkeep, select a target, build the request into a pooled
// message, and hand it to the protocol's dispatcher — recording the
// pending exchange when the request actually left.
func (e *Engine) RunRound(p Protocol) {
	e.rounds++
	expired := 0
	for i := 0; i < len(e.pending); {
		if r := e.pending[i]; e.rounds-r.round > e.ttl {
			e.removePending(i)
			e.putRecord(r)
			expired++
			continue
		}
		i++
	}
	if expired > 0 && e.m != nil {
		e.m.Expired.Add(uint64(expired))
	}
	p.PrepareRound(expired)
	target, ok := p.SelectPeer()
	if !ok {
		return // nobody to shuffle with this round
	}
	if e.trace != nil {
		e.trace.Record(e.traceSelf, target.ID)
	}
	req := e.NewReq()
	p.FillRequest(target, req)
	// The sent subsets are staged into a detached record before
	// dispatch — a transport may recycle the request synchronously (the
	// UDP deployment encodes and releases in Send) — but the record is
	// only installed on a Sent verdict: a deferred or failed dispatch
	// must leave any still-open exchange with the same peer from an
	// earlier round intact, so its in-flight response can still merge.
	r := e.getRecord()
	r.peer = target.ID
	r.pub = append(r.pub[:0], req.Pub...)
	r.pri = append(r.pri[:0], req.Pri...)
	r.round = e.rounds
	switch p.Deliver(target, req) {
	case Sent:
		if e.checks {
			e.verifyOpen(target.ID)
		}
		if e.m != nil {
			e.m.Requests.Inc()
		}
		if i := e.findPending(target.ID); i >= 0 {
			e.putRecord(e.pending[i])
			e.removePending(i)
		}
		e.enforcePendingCap()
		e.pending = append(e.pending, r)
	case Deferred:
		// The protocol stashed the request and opens the exchange
		// itself once the path is punched.
		e.putRecord(r)
	case Failed:
		e.putRecord(r)
		req.Release()
	}
}

// Open records a pending exchange with peer: the sent subsets are
// copied into a pooled record (the request's own slices travel with the
// packet and cannot be retained), replacing any earlier record for the
// same peer.
func (e *Engine) Open(peer addr.NodeID, sentPub, sentPri []view.Descriptor) {
	if e.checks {
		e.verifyOpen(peer)
	}
	if e.m != nil {
		e.m.Requests.Inc()
	}
	var r *record
	if i := e.findPending(peer); i >= 0 {
		r = e.pending[i]
	} else {
		e.enforcePendingCap()
		r = e.getRecord()
		r.peer = peer
		e.pending = append(e.pending, r)
	}
	r.pub = append(r.pub[:0], sentPub...)
	r.pri = append(r.pri[:0], sentPri...)
	r.round = e.rounds
}

// HandleResponse resolves a response against the pending table. An
// accepted response is merged through the protocol hook with the
// recorded sent subsets and the record is recycled; late or duplicate
// responses report false and are ignored.
func (e *Engine) HandleResponse(p Protocol, res *Res) bool {
	i := e.findPending(res.From.ID)
	if i < 0 {
		if e.m != nil {
			e.m.Late.Inc()
		}
		return false
	}
	r := e.pending[i]
	e.removePending(i)
	if e.checks {
		e.verifyMerge(r, res)
	}
	if e.m != nil {
		e.m.Responses.Inc()
	}
	p.MergeResponse(res, r.pub, r.pri)
	e.putRecord(r)
	return true
}

func (e *Engine) getRecord() *record { return e.recPool.Get() }

func (e *Engine) putRecord(r *record) {
	r.pub = r.pub[:0]
	r.pri = r.pri[:0]
	e.recPool.Put(r)
}
