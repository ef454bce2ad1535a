// Package view implements node descriptors and the bounded, aged partial
// views every gossip protocol in this repository maintains.
//
// The merge logic follows the swapper policy of Algorithm 2's updateView
// procedure: known descriptors are refreshed if the incoming copy is
// newer, new descriptors fill free slots, and when the view is full they
// replace descriptors that were sent to the peer in the same exchange —
// minimising information loss in the system (Jelasity et al. 2007).
package view

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/addr"
)

// Relay identifies a public node relaying for a private node (used by
// Gozar descriptors, which cache relay addresses).
type Relay struct {
	ID       addr.NodeID
	Endpoint addr.Endpoint
}

// Ext is the optional baseline-specific descriptor extension: the relay
// set Gozar caches inside private descriptors and the RVP next hop
// Nylon stamps on them. Croupier and Cyclon descriptors never carry
// one, so the extension lives behind a pointer instead of widening
// every copy of every descriptor in every view, payload and pending
// record (it used to ride inline and tripled the descriptor).
//
// An Ext is immutable once attached: descriptor copies in views and
// in-flight messages share the pointer, so writers that need different
// extension state attach a fresh Ext (or drop to nil) rather than
// mutating through the pointer. Gozar already rebuilds its advertised
// relay set this way; Nylon stamps one shared Ext per exchange over
// every private descriptor it learned from that partner.
type Ext struct {
	// Relays caches the private node's relay set (Gozar).
	Relays []Relay
	// Via records the neighbour this descriptor was received from, the
	// next hop of Nylon's RVP chains.
	Via addr.NodeID
	// ViaEndpoint is Via's address, so the chain can be followed.
	ViaEndpoint addr.Endpoint
}

// Descriptor advertises a node in partial views. The compact core — the
// node's address, NAT type and an age counted in gossip rounds since
// creation (paper §VI) — is all the croupier and cyclon planes ever
// copy; the Gozar/Nylon extension sits behind Ext and is nil for them.
// The core's size is pinned by TestDescriptorStaysCompact: descriptors
// are the unit of state every shuffle copies, so regrowth here is a
// memory-plane regression at 50k nodes.
type Descriptor struct {
	ID       addr.NodeID
	Endpoint addr.Endpoint
	Nat      addr.NatType
	Age      int32
	// Ext is the optional Gozar/Nylon extension; nil means none.
	Ext *Ext
}

// Relays returns the cached relay set (Gozar), nil without extension.
func (d Descriptor) Relays() []Relay {
	if d.Ext == nil {
		return nil
	}
	return d.Ext.Relays
}

// Via returns the RVP next hop (Nylon), zero without extension.
func (d Descriptor) Via() addr.NodeID {
	if d.Ext == nil {
		return 0
	}
	return d.Ext.Via
}

// ViaEndpoint returns the next hop's address, zero without extension.
func (d Descriptor) ViaEndpoint() addr.Endpoint {
	if d.Ext == nil {
		return addr.Endpoint{}
	}
	return d.Ext.ViaEndpoint
}

// String renders a compact human-readable descriptor.
func (d Descriptor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v(%v,%v,age=%d", d.ID, d.Endpoint, d.Nat, d.Age)
	if rs := d.Relays(); len(rs) > 0 {
		fmt.Fprintf(&b, ",relays=%d", len(rs))
	}
	if via := d.Via(); via != 0 {
		fmt.Fprintf(&b, ",via=%v", via)
	}
	b.WriteString(")")
	return b.String()
}

// View is a bounded set of descriptors, at most one per node, excluding
// the owner. The zero value is unusable; construct with New.
type View struct {
	self     addr.NodeID
	capacity int
	items    []Descriptor
	// permBuf and queueBuf are scratch space reused across shuffles so
	// subset selection (RandomSubsetInto) and Merge stop allocating on
	// the per-round hot path. Neither survives a call; no state leaks
	// between shuffles.
	permBuf  []int
	queueBuf []Descriptor
}

// New returns an empty view with the given capacity. Descriptors for
// self are silently ignored on insertion, so a node never lists itself.
func New(capacity int, self addr.NodeID) *View {
	if capacity < 0 {
		capacity = 0
	}
	return &View{self: self, capacity: capacity, items: make([]Descriptor, 0, capacity)}
}

// Len returns the number of descriptors held.
func (v *View) Len() int { return len(v.items) }

// Cap returns the view's capacity.
func (v *View) Cap() int { return v.capacity }

// Full reports whether the view has no free slots.
func (v *View) Full() bool { return len(v.items) >= v.capacity }

// Contains reports whether a descriptor for the node is present.
func (v *View) Contains(id addr.NodeID) bool { return v.find(id) >= 0 }

// Get returns the descriptor for the node, if present.
func (v *View) Get(id addr.NodeID) (Descriptor, bool) {
	if i := v.find(id); i >= 0 {
		return v.items[i], true
	}
	return Descriptor{}, false
}

func (v *View) find(id addr.NodeID) int {
	for i := range v.items {
		if v.items[i].ID == id {
			return i
		}
	}
	return -1
}

// Add inserts a descriptor if there is free space and no entry for the
// node exists yet. It reports whether the descriptor was inserted.
func (v *View) Add(d Descriptor) bool {
	if d.ID == v.self || v.Full() || v.Contains(d.ID) {
		return false
	}
	v.items = append(v.items, d)
	return true
}

// Remove deletes the node's descriptor, reporting whether it was present.
func (v *View) Remove(id addr.NodeID) bool {
	i := v.find(id)
	if i < 0 {
		return false
	}
	v.items = append(v.items[:i], v.items[i+1:]...)
	return true
}

// UpdateIfNewer replaces the stored descriptor for d.ID when d has a
// strictly lower age (is fresher). It reports whether a replacement
// happened. Nodes not in the view are left untouched.
func (v *View) UpdateIfNewer(d Descriptor) bool {
	i := v.find(d.ID)
	if i < 0 || d.Age >= v.items[i].Age {
		return false
	}
	v.items[i] = d
	return true
}

// IncrementAges ages every descriptor by one round.
func (v *View) IncrementAges() {
	for i := range v.items {
		v.items[i].Age++
	}
}

// Oldest returns the descriptor with the highest age without removing
// it. Ties break towards the earliest-inserted entry, keeping runs
// deterministic.
func (v *View) Oldest() (Descriptor, bool) {
	if len(v.items) == 0 {
		return Descriptor{}, false
	}
	best := 0
	for i := 1; i < len(v.items); i++ {
		if v.items[i].Age > v.items[best].Age {
			best = i
		}
	}
	return v.items[best], true
}

// TakeOldest removes and returns the oldest descriptor — the tail
// selection policy of Algorithm 2 (line 12-13).
func (v *View) TakeOldest() (Descriptor, bool) {
	d, ok := v.Oldest()
	if ok {
		v.Remove(d.ID)
	}
	return d, ok
}

// Random returns a uniformly random descriptor.
func (v *View) Random(rng *rand.Rand) (Descriptor, bool) {
	if len(v.items) == 0 {
		return Descriptor{}, false
	}
	return v.items[rng.Intn(len(v.items))], true
}

// RandomSubset returns up to n distinct descriptors drawn uniformly at
// random, in random order. The returned slice is freshly allocated;
// shuffle payloads that travel through the simulated network must own
// their storage, because packets outlive the sender's round.
func (v *View) RandomSubset(rng *rand.Rand, n int) []Descriptor {
	if n <= 0 || len(v.items) == 0 {
		return nil
	}
	if n > len(v.items) {
		n = len(v.items)
	}
	return v.RandomSubsetInto(rng, n, make([]Descriptor, 0, n))
}

// sampleIndices partially Fisher–Yates-shuffles scratch so that its
// first min(k, n) entries are distinct indices drawn uniformly at
// random from [0, n), and returns the (possibly grown) scratch together
// with the number of drawn indices. With a reused scratch buffer the
// draw is allocation-free — it never materialises a full permutation.
// It draws the view subsets; croupier's estimate piggyback draws
// rejection-sample their own store instead.
func sampleIndices(rng *rand.Rand, k, n int, scratch []int) ([]int, int) {
	if k > n {
		k = n
	}
	if k <= 0 {
		return scratch, 0
	}
	if cap(scratch) < n {
		scratch = make([]int, n)
	}
	scratch = scratch[:cap(scratch)]
	idx := scratch[:n]
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return scratch, k
}

// RandomSubsetInto is RandomSubset appending into dst (reset to length
// zero first): with a caller-reused dst of sufficient capacity the
// selection is allocation-free.
func (v *View) RandomSubsetInto(rng *rand.Rand, n int, dst []Descriptor) []Descriptor {
	dst = dst[:0]
	if len(v.items) == 0 {
		return dst
	}
	var k int
	v.permBuf, k = sampleIndices(rng, n, len(v.items), v.permBuf)
	for _, i := range v.permBuf[:k] {
		dst = append(dst, v.items[i])
	}
	return dst
}

// Descriptors returns a copy of the view's contents.
func (v *View) Descriptors() []Descriptor {
	out := make([]Descriptor, len(v.items))
	copy(out, v.items)
	return out
}

// IDs returns the node identifiers in the view, sorted for deterministic
// iteration by callers.
func (v *View) IDs() []addr.NodeID {
	out := make([]addr.NodeID, 0, len(v.items))
	for i := range v.items {
		out = append(out, v.items[i].ID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MergeHealer applies the healer policy from Jelasity et al. (2007) as
// an ablation alternative to the paper's swapper: known descriptors are
// refreshed, free slots are filled, and on a full view the incoming
// descriptor replaces the oldest stored one when it is strictly
// fresher — biasing views towards recent information instead of
// preserving in-flight state.
func (v *View) MergeHealer(received []Descriptor) {
	for _, d := range received {
		if d.ID == v.self {
			continue
		}
		if v.Contains(d.ID) {
			v.UpdateIfNewer(d)
			continue
		}
		if v.Add(d) {
			continue
		}
		oldest, ok := v.Oldest()
		if ok && oldest.Age > d.Age {
			v.Remove(oldest.ID)
			v.Add(d)
		}
	}
}

// Merge applies Algorithm 2's updateView: for every received descriptor,
// refresh it if already known, otherwise add it to free space, otherwise
// swap out a descriptor that was sent to the peer in this exchange
// (swapper policy). Descriptors for self are skipped. sent is consumed
// front-to-back and not modified.
func (v *View) Merge(sent, received []Descriptor) {
	// The eviction queue lives in reusable scratch space; it is
	// consumed by index so the buffer survives for the next merge.
	v.queueBuf = append(v.queueBuf[:0], sent...)
	qi := 0
	for _, d := range received {
		if d.ID == v.self {
			continue
		}
		if i := v.find(d.ID); i >= 0 {
			// Known node: refresh if the received descriptor is fresher
			// (UpdateIfNewer, with the lookup already done).
			if d.Age < v.items[i].Age {
				v.items[i] = d
			}
			continue
		}
		if !v.Full() {
			v.items = append(v.items, d)
			continue
		}
		// View full: evict a sent descriptor to make room.
		for qi < len(v.queueBuf) {
			victim := v.queueBuf[qi]
			qi++
			if victim.ID == d.ID {
				continue
			}
			if v.Remove(victim.ID) {
				v.Add(d)
				break
			}
		}
	}
}
