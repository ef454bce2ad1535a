package exchange

import (
	"time"

	"repro/internal/addr"
)

// SelectionEvent is one recorded partner selection: at shuffle-initiate
// time, Selector chose Selected as this round's exchange target. The
// event is recorded when SelectPeer returns, before delivery — partner
// *selection* is the property under test (PeerSwap-style sampling
// randomness), independent of whether the request then survives NAT
// traversal, so failed and deferred deliveries are traced too.
type SelectionEvent struct {
	Selector addr.NodeID
	Selected addr.NodeID
}

// Trace is an append-only log of partner selections, shared by every
// engine in one world the way a pss.Metrics instance is. It follows the
// observability plane's nil-pointer contract: an engine with no trace
// installed pays exactly one nil check per round, and a world built
// without a trace is byte-identical to one before this hook existed.
//
// A Trace is single-goroutine, like the world lane that owns it. Under
// the sharded kernel each shard records through its own Shard view — a
// private append buffer tagging every event with its virtual time —
// and the views are k-way merged into the master in (time, selector)
// order at window barriers. A selector makes at most one selection per
// instant, so that key is total, and at equal times the sequential
// kernel fires selectors in ascending-actor (= ascending-ID) order —
// exactly the merge order — which is why the merged log is byte-
// identical at every shard count, the property the randcheck
// shard-equivalence test pins.
//
// Recording can be gated with Enable/Disable so a harness can install
// the trace at world construction (the only moment protocol wiring
// happens) but skip the warmup phase; a disabled trace costs one extra
// branch per round on top of the nil check. Enable/Disable/Reset/Len
// act on the master and must be called between windows, when every
// shard is quiescent.
type Trace struct {
	events   []SelectionEvent
	disabled bool

	// Master-side sharding state: the shard views handed out by Shard.
	shards []*Trace
	// Shard-view state: the owning master, the shard's clock for time
	// tagging, and the pending tagged buffer MergeShards drains.
	master *Trace
	now    func() time.Duration
	tagged []taggedSelection
}

// taggedSelection is one shard-recorded selection with its virtual
// time, the merge key at barriers.
type taggedSelection struct {
	at time.Duration
	ev SelectionEvent
}

// NewTrace returns an enabled trace with capacity for sizeHint events
// pre-reserved, so a measurement phase of known length appends without
// growing the log.
func NewTrace(sizeHint int) *Trace {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Trace{events: make([]SelectionEvent, 0, sizeHint)}
}

// Record appends one selection. Engines call it through their installed
// trace pointer; harnesses may also feed synthetic selections (the
// biased canary path) through the same entry point. On a shard view the
// event lands in the shard's private buffer, time-tagged, until the
// next barrier merge.
func (t *Trace) Record(selector, selected addr.NodeID) {
	if t.master != nil {
		if t.master.disabled {
			return
		}
		t.tagged = append(t.tagged, taggedSelection{
			at: t.now(),
			ev: SelectionEvent{Selector: selector, Selected: selected},
		})
		return
	}
	if t.disabled {
		return
	}
	t.events = append(t.events, SelectionEvent{Selector: selector, Selected: selected})
}

// Shard returns a per-shard view of the trace that tags events with
// the given clock (the shard scheduler's Now). Worlds hand each node
// the view of the shard it runs on and call MergeShards at every
// barrier.
func (t *Trace) Shard(now func() time.Duration) *Trace {
	v := &Trace{master: t, now: now}
	t.shards = append(t.shards, v)
	return v
}

// MergeShards drains every shard view's buffer into the master log in
// (time, selector) order and empties the buffers. It must run at a
// barrier, with all shards quiescent.
func (t *Trace) MergeShards() {
	// Each buffer is already time-ordered (a shard records in its own
	// execution order), so a k-way head merge suffices.
	idx := make([]int, 0, 8)
	var scratch [8]int
	if len(t.shards) <= len(scratch) {
		idx = scratch[:len(t.shards)]
		for i := range idx {
			idx[i] = 0
		}
	} else {
		idx = make([]int, len(t.shards))
	}
	for {
		best := -1
		var bestAt time.Duration
		var bestSel addr.NodeID
		for i, v := range t.shards {
			if idx[i] >= len(v.tagged) {
				continue
			}
			e := &v.tagged[idx[i]]
			if best < 0 || e.at < bestAt || (e.at == bestAt && e.ev.Selector < bestSel) {
				best, bestAt, bestSel = i, e.at, e.ev.Selector
			}
		}
		if best < 0 {
			break
		}
		t.events = append(t.events, t.shards[best].tagged[idx[best]].ev)
		idx[best]++
	}
	for _, v := range t.shards {
		v.tagged = v.tagged[:0]
	}
}

// Enable resumes recording.
func (t *Trace) Enable() { t.disabled = false }

// Disable pauses recording without detaching the trace from engines.
func (t *Trace) Disable() { t.disabled = true }

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.events) }

// Events returns the recorded log. The slice is the trace's own backing
// store: callers must not modify it and must not retain it across
// further recording.
func (t *Trace) Events() []SelectionEvent { return t.events }

// Reset discards all recorded events, keeping capacity.
func (t *Trace) Reset() { t.events = t.events[:0] }
