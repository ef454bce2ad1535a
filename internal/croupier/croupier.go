// Package croupier implements the paper's primary contribution: the
// Croupier NAT-aware peer-sampling service (Algorithms 2 and 3).
//
// Every node maintains two bounded views — a public view and a private
// view. All nodes initiate one shuffle per round, but shuffle requests
// are only ever sent to public nodes (the croupiers), which shuffle both
// views on behalf of everyone; no relaying or hole-punching is needed.
// Croupiers count the shuffle requests they receive from public and
// private senders over a sliding window of α rounds; the ratio of those
// counts estimates the global public/private ratio ω (equations 1–7).
// Estimates are piggybacked on shuffle traffic, cached for γ rounds, and
// averaged locally (equations 8–9) to steer sampling between the two
// views (Algorithm 3).
//
// The request/response machinery — pooled pointer messages, the
// pending-exchange table with its per-request TTL, and the round driver
// — lives in internal/exchange; this package supplies Croupier's
// policies (tail selection over the public view, swapper merging of
// both views, and the estimate piggyback) as the engine's strategy
// hooks.
package croupier

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/addr"
	"repro/internal/exchange"
	"repro/internal/intern"
	"repro/internal/pss"
	"repro/internal/view"
	"repro/internal/wire"
)

// SelectionPolicy chooses the shuffle target from the public view.
type SelectionPolicy uint8

const (
	// SelectTail picks the oldest descriptor (the paper's policy).
	// It is the zero value.
	SelectTail SelectionPolicy = iota
	// SelectRandom picks uniformly at random — an ablation alternative.
	SelectRandom
	// SelectBiasedByID picks from the public view with probability
	// proportional to the candidate's numeric node ID — a deliberately
	// broken selector whose partner frequencies skew toward high IDs.
	// It exists so internal/randcheck can prove its test battery has
	// statistical power: a suite that fails to reject this canary at
	// its configured significance level is not testing anything. Never
	// use it outside randomness verification.
	SelectBiasedByID
)

// MergePolicy chooses how received descriptors enter a full view.
type MergePolicy uint8

const (
	// MergeSwapper replaces descriptors that were sent to the peer
	// (the paper's policy). It is the zero value.
	MergeSwapper MergePolicy = iota
	// MergeHealer replaces the oldest descriptor with fresher ones —
	// an ablation alternative.
	MergeHealer
)

// Config parameterises one Croupier node.
type Config struct {
	// Params holds the shared gossip parameters (view size 10, shuffle
	// size 5, 1 s rounds in the paper).
	Params pss.Params
	// LocalHistory is α: how many rounds of shuffle-request hits a
	// croupier aggregates into its local estimate (25 by default).
	LocalHistory int
	// NeighbourHistory is γ: cached estimates older than this many
	// rounds are discarded (50 by default).
	NeighbourHistory int
	// EstimateSubset bounds the number of cached estimates piggybacked
	// per shuffle message (10 in the paper, 5 bytes each).
	EstimateSubset int
	// PendingTTL is how many rounds a record of sent-but-unanswered
	// shuffle state is kept for the swapper merge before being dropped
	// as lost.
	PendingTTL int
	// RebootstrapEvery, when positive, re-queries the bootstrap
	// directory every that many rounds and anti-entropy-merges the
	// returned croupiers into the public view even when it is not
	// empty. A partition that outlives the view purge horizon
	// permanently segregates public views (re-bootstrap normally fires
	// only on an empty view); this knob lets static deployments heal
	// after such an episode at the cost of periodic directory traffic.
	// Zero (the default) disables it.
	RebootstrapEvery int
	// Selection and Merge default to the paper's tail + swapper
	// policies; the alternatives exist for ablation studies.
	Selection SelectionPolicy
	Merge     MergePolicy
	// Origins is the interner the node's estimate store resolves
	// estimate-origin identities through. A simulated world passes one
	// shared interner to every node it builds, so 10k+ stores do not
	// each duplicate the same origin identities; nil (the default)
	// gives the node a private interner, which standalone deployments
	// use. Interners are single-goroutine and must only be shared
	// between nodes driven by the same loop. They are also append-only
	// between epochs: the table grows with every distinct origin ever
	// seen (unlike the store's own entries, which expire), a deliberate
	// trade-off that is bounded by population in simulations but
	// unbounded over a months-long deployment under churn — which is
	// what CompactOriginsEvery exists for.
	Origins *intern.Origins
	// CompactOriginsEvery, when positive, periodically compacts the
	// node's private origin interner: every that many rounds the
	// estimate store marks the references it still holds, dead
	// identities are dropped, and the survivors are remapped (see
	// intern.Origins.Compact). The epoch only actually runs when the
	// interner has grown to more than twice the live estimate count, so
	// a stable network never pays for rebuilds. Zero (the default)
	// keeps the append-only behaviour simulations rely on. Requires a
	// private interner: compaction invalidates references held by every
	// other store sharing the table, so setting this together with
	// Origins is a configuration error.
	CompactOriginsEvery int
	// CheckExchangeInvariants arms the exchange engine's PeerSwap-style
	// debug assertions (no self-swap, merge-from-recorded-exchange
	// atomicity; see exchange.Engine.EnableChecks). A violation panics.
	// Off by default: the checks ride the per-round hot path and exist
	// for tests and debug runs.
	CheckExchangeInvariants bool
}

// DefaultConfig returns the paper's experimental setup with the medium
// history windows (α=25, γ=50) used for all PSS experiments.
func DefaultConfig() Config {
	return Config{
		Params:           pss.DefaultParams(),
		LocalHistory:     25,
		NeighbourHistory: 50,
		EstimateSubset:   10,
		PendingTTL:       5,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.LocalHistory <= 0 {
		return fmt.Errorf("croupier: local history (alpha) must be positive, got %d", c.LocalHistory)
	}
	if c.NeighbourHistory <= 0 {
		return fmt.Errorf("croupier: neighbour history (gamma) must be positive, got %d", c.NeighbourHistory)
	}
	if c.EstimateSubset < 0 {
		return fmt.Errorf("croupier: estimate subset must be non-negative, got %d", c.EstimateSubset)
	}
	if c.PendingTTL <= 0 {
		return fmt.Errorf("croupier: pending TTL must be positive, got %d", c.PendingTTL)
	}
	if c.RebootstrapEvery < 0 {
		return fmt.Errorf("croupier: rebootstrap period must be non-negative, got %d", c.RebootstrapEvery)
	}
	if c.CompactOriginsEvery < 0 {
		return fmt.Errorf("croupier: origin compaction period must be non-negative, got %d", c.CompactOriginsEvery)
	}
	if c.CompactOriginsEvery > 0 && c.Origins != nil {
		return fmt.Errorf("croupier: origin compaction requires a private interner (Origins must be nil)")
	}
	return nil
}

// Estimate is one public node's local public/private ratio estimation,
// as disseminated on shuffle messages.
type Estimate = exchange.Estimate

// ShuffleReq is sent once per round by every node to the oldest node in
// its public view (Algorithm 2 line 22). It is the engine's pooled
// request: Pub and Pri are bounded random subsets of the sender's
// views, with the sender itself added to the subset matching its type,
// and Estimates carries the ratio-estimation piggyback.
type ShuffleReq = exchange.Req

// ShuffleRes answers a ShuffleReq (Algorithm 2 line 37).
type ShuffleRes = exchange.Res

// storedEstimate is one M_p entry, 16 bytes packed. The origin
// identity is a world-shared interned reference (intern.Origins), not
// a 64-bit NodeID: ten thousand stores no longer each duplicate the
// same few thousand origin identities, and the slot table the merge
// probe walks packs four entries per cache line instead of two. The
// age is kept implicitly as the round at which the estimate was fresh
// (birth = rounds − Age at receive time), so entries never need a
// per-round aging sweep: an entry's age at round r is simply
// r − birth, arithmetic identical to incrementing an explicit counter
// once per round.
type storedEstimate struct {
	value  float64
	origin int32 // interned origin reference; 0 marks an empty slot
	birth  int32
}

// estHash spreads an interned origin reference over the slot table
// (splitmix64 finaliser).
func estHash(ref int32) uint64 {
	x := uint64(uint32(ref)) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// estimateStore holds M_p as a single open-addressed slot table with
// the entries stored inline: the merge path's probe — the hottest
// lookup in a large deployment, where each node's store is hundreds of
// cold entries — lands directly on the entry it needs, one memory
// touch instead of an index hop plus a slab hop. Reference 0 marks an
// empty slot (the interner never issues it).
//
// Ages are implicit (birth rounds) and expiry is cohort-counted: the
// store keeps one live-entry counter per birth round in a small ring,
// so a round boundary retires the cohort falling out of the history
// window in O(1) with no sweep. Entries that age out stay in place as
// dead slots — every read path treats them as absent, and probe chains
// still pass through them — until dead slots outnumber live ones, when
// a rebuild reclaims them.
type estimateStore struct {
	maxAge int
	// origins is the world-shared interner resolving slot references
	// back to node identities (and interning fresh origins on merge).
	origins *intern.Origins
	slots   []storedEstimate // power-of-two open-addressed table
	used    int              // occupied slots, live and dead
	live    int
	// cohorts[b mod len] counts live entries with birth round b; the
	// ring is maxAge+2 long so active birth rounds never collide.
	cohorts []int32
	round   int // the last round boundary processed by expire
	// picks is scratch for the piggyback subset draw; spare is the
	// rebuild scratch, swapped with slots so rebuilds stop allocating
	// once the table reaches steady size; remap is the compaction
	// scratch (old ref → mark, then old ref → new ref).
	picks []int32
	spare []storedEstimate
	remap []int32
}

func newEstimateStore(maxAge int, origins *intern.Origins) *estimateStore {
	return &estimateStore{maxAge: maxAge, origins: origins, cohorts: make([]int32, maxAge+2)}
}

// cohortPtr returns the ring counter for birth round b, which may be
// negative (an estimate received with age a at round r has birth r−a).
func (s *estimateStore) cohortPtr(b int) *int32 {
	i := b % len(s.cohorts)
	if i < 0 {
		i += len(s.cohorts)
	}
	return &s.cohorts[i]
}

// liveAt reports whether the entry is inside the history window.
func (s *estimateStore) liveAt(e storedEstimate) bool {
	return s.round-int(e.birth) <= s.maxAge
}

// len returns the number of live entries.
func (s *estimateStore) len() int { return s.live }

// probe returns the slot holding ref, or the empty slot where ref
// would be inserted. found distinguishes the two.
func (s *estimateStore) probe(ref int32) (pos int, found bool) {
	mask := uint64(len(s.slots) - 1)
	for h := estHash(ref); ; h++ {
		i := int(h & mask)
		switch s.slots[i].origin {
		case ref:
			return i, true
		case 0:
			return i, false
		}
	}
}

// materialise converts a stored entry to its wire form at round
// rounds, resolving the interned origin back to its identity.
func (s *estimateStore) materialise(e storedEstimate, rounds int) Estimate {
	return Estimate{Node: s.origins.Lookup(e.origin), Value: e.value, Age: rounds - int(e.birth)}
}

// ensureSpace rebuilds the table when an insert would push occupancy
// past 3/4, growing as the live population demands and dropping dead
// slots (whose cohorts were already retired) along the way.
func (s *estimateStore) ensureSpace() {
	if (s.used+1)*4 <= len(s.slots)*3 {
		return
	}
	n := 16
	for (s.live+1)*4 > n*3 {
		n *= 2
	}
	old := s.slots
	if cap(s.spare) >= n {
		s.slots = s.spare[:n]
		clear(s.slots)
	} else {
		s.slots = make([]storedEstimate, n)
	}
	s.spare = old[:0]
	mask := uint64(n - 1)
	s.used = 0
	for i := range old {
		e := old[i]
		if e.origin == 0 || !s.liveAt(e) {
			continue
		}
		h := estHash(e.origin)
		for s.slots[h&mask].origin != 0 {
			h++
		}
		s.slots[h&mask] = e
		s.used++
	}
}

// replace overwrites the live-or-dead entry at slot i with e, keeping
// the cohort counters and live count correct.
func (s *estimateStore) replace(i int, ref int32, e Estimate, rounds int) {
	old := s.slots[i]
	if s.liveAt(old) {
		*s.cohortPtr(int(old.birth))--
	} else {
		// Reviving a dead slot: the origin re-enters the window.
		s.live++
	}
	birth := int32(rounds - e.Age)
	s.slots[i] = storedEstimate{origin: ref, value: e.Value, birth: birth}
	*s.cohortPtr(int(birth))++
}

// insert claims an empty slot for e. The caller has run ensureSpace.
func (s *estimateStore) insert(ref int32, e Estimate, rounds int) {
	i, found := s.probe(ref)
	if found {
		s.replace(i, ref, e, rounds)
		return
	}
	birth := int32(rounds - e.Age)
	s.slots[i] = storedEstimate{origin: ref, value: e.Value, birth: birth}
	s.used++
	s.live++
	*s.cohortPtr(int(birth))++
}

// mergeFresher inserts e, or replaces the held estimate from the same
// origin when e is fresher — the merge rule of paper equation 9 — with
// a single table probe. A dead slot for the origin counts as absent.
func (s *estimateStore) mergeFresher(e Estimate, rounds int) {
	if e.Node == 0 {
		return
	}
	ref := s.origins.Ref(e.Node)
	if len(s.slots) != 0 {
		if i, ok := s.probe(ref); ok {
			if old := s.slots[i]; !s.liveAt(old) || int32(rounds-e.Age) > old.birth {
				s.replace(i, ref, e, rounds)
			}
			return
		}
	}
	s.ensureSpace()
	s.insert(ref, e, rounds)
}

// expire advances the store to the given round boundary, retiring the
// cohorts that fall out of the history window in O(1) per round, and
// rebuilds the table once dead slots outnumber live entries (so the
// rejection-sampled draws keep a high live density).
func (s *estimateStore) expire(rounds int) {
	for s.round < rounds {
		s.round++
		c := s.cohortPtr(s.round - s.maxAge - 1)
		s.live -= int(*c)
		*c = 0
	}
	if s.used >= 32 && s.used > 2*s.live {
		s.used = len(s.slots) // force the rebuild path
		s.ensureSpace()
	}
}

// compactOrigins runs an interner epoch for a store that privately
// owns its interner: references still held by live entries survive,
// every other identity ever interned is dropped, and the slot table is
// rebuilt under the remapped references (the slot hash is a function of
// the reference value, so positions change wholesale). Dead slots do
// not pin their identities — they fall out with the rebuild.
func (s *estimateStore) compactOrigins() {
	n := s.origins.Len()
	if cap(s.remap) <= n {
		s.remap = make([]int32, n+1)
	} else {
		s.remap = s.remap[:n+1]
		clear(s.remap)
	}
	for i := range s.slots {
		if e := s.slots[i]; e.origin != 0 && s.liveAt(e) {
			s.remap[e.origin] = 1
		}
	}
	s.origins.Compact(
		func(ref int32) bool { return s.remap[ref] != 0 },
		func(old, new int32) { s.remap[old] = new },
	)
	if len(s.slots) == 0 {
		return
	}
	// Rewrite the surviving slots in place (dead slots map to 0 and
	// read as empty), then force a rebuild to restore probe invariants.
	for i := range s.slots {
		if r := s.slots[i].origin; r != 0 {
			s.slots[i].origin = s.remap[r]
		}
	}
	s.used = len(s.slots)
	s.ensureSpace()
}

// sum returns the total of all live estimate values in slot order.
func (s *estimateStore) sum() float64 {
	total := 0.0
	for i := range s.slots {
		if s.slots[i].origin != 0 && s.liveAt(s.slots[i]) {
			total += s.slots[i].value
		}
	}
	return total
}

// appendRandomSubset appends up to k live entries drawn uniformly at
// random (all of them when k covers the store) to dst. The draw is
// rejection sampling over the slot table — empty and dead slots and
// repeats redraw — which is uniform over the live entries and touches
// only the slots it inspects. Live density stays above roughly a third
// (ensureSpace packs to ≤ 3/4, expire rebuilds past 50% dead), so the
// expected redraws per pick are a small constant; the deterministic
// fallback scan exists only to bound the pathological case.
func (s *estimateStore) appendRandomSubset(rng *rand.Rand, k int, dst []Estimate, rounds int) []Estimate {
	if s.live <= k {
		for i := range s.slots {
			if s.slots[i].origin != 0 && s.liveAt(s.slots[i]) {
				dst = append(dst, s.materialise(s.slots[i], rounds))
			}
		}
		return dst
	}
	picks := s.picks[:0]
	attempts := 0
draw:
	for len(picks) < k && attempts < 32*k {
		attempts++
		j := int32(rng.Intn(len(s.slots)))
		if s.slots[j].origin == 0 || !s.liveAt(s.slots[j]) {
			continue
		}
		for _, p := range picks {
			if p == j {
				continue draw
			}
		}
		picks = append(picks, j)
	}
	// Pathological rejection streak: fill deterministically from the
	// front of the table.
	for j := int32(0); len(picks) < k && int(j) < len(s.slots); j++ {
		if s.slots[j].origin == 0 || !s.liveAt(s.slots[j]) {
			continue
		}
		dup := false
		for _, p := range picks {
			if p == j {
				dup = true
				break
			}
		}
		if !dup {
			picks = append(picks, j)
		}
	}
	s.picks = picks
	for _, i := range picks {
		dst = append(dst, s.materialise(s.slots[i], rounds))
	}
	return dst
}

// Node is one Croupier protocol instance: a state machine its driver
// advances with RunRound and HandlePacket (see pss.Protocol). All
// methods must be called on a single goroutine: the simulation event
// loop, or the deployment runtime's driver loop.
type Node struct {
	cfg  Config
	sock exchange.Transport

	self addr.NodeID
	ep   addr.Endpoint
	nat  addr.NatType

	// The per-round working state — rand wrapper, exchange engine,
	// both views and the estimate store — is embedded by value, so a
	// node's round starts from one contiguous struct instead of
	// chasing separately allocated headers; this matters when tens of
	// thousands of cold node states are touched per simulated second.
	// (The rand.Rand embed saves only the wrapper hop: the xoshiro
	// source itself still sits behind the Source interface.)
	rng rand.Rand
	eng exchange.Engine
	pub view.View
	pri view.View

	// Ratio-estimation state (Algorithm 3). The two hit histories share
	// one backing array (allocated once at construction) and count in
	// int32 — per-round hit counts at realistic fan-ins are tiny, and a
	// 50k-node world carries one pair of histories per node.
	estimates estimateStore // M_p, keyed by interned origin
	localEst  float64       // E_p (croupiers only)
	hasLocal  bool
	cu, cv    int32   // current-round hit counters
	histU     []int32 // per-round public hits, ≤ α entries (ring once full)
	histV     []int32 // per-round private hits
	histPos   int     // ring write position once the history is full

	draining    bool // graceful shutdown: expire, don't initiate
	rebootstrap func() []view.Descriptor
	reseedBuf   []view.Descriptor // scratch for filtering rebootstrap seeds
	ownsOrigins bool              // private interner: compaction epochs allowed

	// Diagnostics.
	sentReqs, recvReqs, recvRess uint64

	// m is the (typically world-shared) instrument set; nil when
	// uninstrumented. lastEstLen and lastOriginsLen are the occupancies
	// this node last reported into the shared gauges, so round
	// boundaries and Stop can publish deltas instead of sweeping.
	m              *pss.Metrics
	lastEstLen     int
	lastOriginsLen int
}

// SetMetrics implements pss.Protocol, installing shared instruments on
// the node and its exchange engine.
func (n *Node) SetMetrics(m *pss.Metrics) {
	n.m = m
	if m != nil {
		n.eng.SetMetrics(m.Exchange)
	}
}

// SetSelectionTrace implements pss.Protocol, recording this node's
// partner selections into the shared trace.
func (n *Node) SetSelectionTrace(t *exchange.Trace) { n.eng.SetTrace(n.self, t) }

// NewWithTransport constructs a Croupier node — the package's one
// constructor. rng is the node's private random stream (copied in),
// selfEP its advertised endpoint (its own address for public nodes,
// the NAT-mapped endpoint discovered during NAT-type identification for
// private nodes), and seeds initialises the views (from the bootstrap
// service). The node owns no clock: its driver calls RunRound once per
// gossip period and HandlePacket for every received message, all from
// one goroutine.
func NewWithTransport(cfg Config, id addr.NodeID, rng *rand.Rand, tr exchange.Transport,
	natType addr.NatType, selfEP addr.Endpoint, seeds []view.Descriptor) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if natType == addr.NatUnknown {
		return nil, fmt.Errorf("croupier: node %v has unknown NAT type; run natid first", id)
	}
	hist := make([]int32, 2*cfg.LocalHistory)
	n := &Node{
		cfg:   cfg,
		sock:  tr,
		rng:   *rng,
		self:  id,
		ep:    selfEP,
		nat:   natType,
		histU: hist[:0:cfg.LocalHistory],
		histV: hist[cfg.LocalHistory : cfg.LocalHistory : 2*cfg.LocalHistory],
	}
	// The engine embeds mutex-guarded pools, so it is initialised in
	// its final home rather than copied into it.
	if err := exchange.InitEngine(&n.eng, cfg.PendingTTL); err != nil {
		return nil, err
	}
	if cfg.CheckExchangeInvariants {
		n.eng.EnableChecks(id)
	}
	origins := cfg.Origins
	if origins == nil {
		origins = intern.NewOrigins()
		n.ownsOrigins = true
	}
	n.estimates = *newEstimateStore(cfg.NeighbourHistory, origins)
	n.pub = *view.New(cfg.Params.ViewSize, n.self)
	n.pri = *view.New(cfg.Params.ViewSize, n.self)
	for _, d := range seeds {
		if d.Nat == addr.Public {
			n.pub.Add(d)
		} else {
			n.pri.Add(d)
		}
	}
	return n, nil
}

// RunRound implements pss.Protocol: one gossip round through the
// exchange engine.
func (n *Node) RunRound() { n.eng.RunRound((*policy)(n)) }

// SetMaxPending caps the exchange engine's pending table: once the cap
// is reached, opening a new exchange evicts the oldest pending record
// (counted as exchange_pending_evicted_total). Zero, the default,
// leaves the table bounded only by TTL — fine for simulations, where
// one exchange leaves per round; deployments under hostile traffic set
// a hard cap instead.
func (n *Node) SetMaxPending(k int) { n.eng.SetMaxPending(k) }

// SetDraining switches graceful-shutdown mode: a draining node stops
// initiating shuffles and re-bootstrapping but keeps answering
// requests, merging responses, and expiring pending exchanges on its
// round clock, so in-flight state winds down instead of being cut off.
func (n *Node) SetDraining(d bool) { n.draining = d }

// SetRebootstrap installs a callback queried for fresh public-node
// descriptors whenever the public view runs empty — the standard client
// behaviour of re-contacting the bootstrap service rather than staying
// isolated (e.g. when a node joined before any croupier existed, or all
// known croupiers died) — and, with Config.RebootstrapEvery set, on the
// periodic anti-entropy schedule.
func (n *Node) SetRebootstrap(fn func() []view.Descriptor) { n.rebootstrap = fn }

// ID implements pss.Protocol.
func (n *Node) ID() addr.NodeID { return n.self }

// NatType implements pss.Protocol.
func (n *Node) NatType() addr.NatType { return n.nat }

// Endpoint returns the node's advertised endpoint.
func (n *Node) Endpoint() addr.Endpoint { return n.ep }

// Rounds returns the number of gossip rounds executed, used by the
// evaluation to apply the paper's two-round grace period to joiners.
func (n *Node) Rounds() int { return n.eng.Rounds() }

// PendingExchanges returns the number of shuffle requests awaiting a
// response or TTL expiry — the exchange engine's pending-table depth.
func (n *Node) PendingExchanges() int { return n.eng.PendingLen() }

// OriginsLen returns the number of identities held by the node's
// origin interner — the quantity Config.CompactOriginsEvery bounds.
func (n *Node) OriginsLen() int { return n.estimates.origins.Len() }

// OriginEpochs returns the number of interner compaction epochs the
// node has run (always 0 with a shared or uncompacted interner).
func (n *Node) OriginEpochs() int { return n.estimates.origins.Epochs() }

// PublicView returns a snapshot of the public view.
func (n *Node) PublicView() []view.Descriptor { return n.pub.Descriptors() }

// PrivateView returns a snapshot of the private view.
func (n *Node) PrivateView() []view.Descriptor { return n.pri.Descriptors() }

// Neighbors implements pss.Protocol: the union of both views.
func (n *Node) Neighbors() []view.Descriptor {
	out := n.pub.Descriptors()
	return append(out, n.pri.Descriptors()...)
}

// Stop implements pss.Protocol, retiring this node's residue from the
// shared occupancy gauges.
func (n *Node) Stop() {
	if m := n.m; m != nil {
		if n.lastEstLen != 0 {
			m.EstimateEntries.Add(int64(-n.lastEstLen))
			n.lastEstLen = 0
		}
		if n.lastOriginsLen != 0 {
			m.OriginEntries.Add(int64(-n.lastOriginsLen))
			n.lastOriginsLen = 0
		}
	}
}

// selfDescriptor builds a fresh (age 0) descriptor for this node.
func (n *Node) selfDescriptor() view.Descriptor {
	return view.Descriptor{ID: n.self, Endpoint: n.ep, Nat: n.nat}
}

// policy adapts a Node to the exchange engine's strategy hooks without
// widening the package API; the engine drives Algorithm 2's Round
// procedure through it.
type policy Node

// PrepareRound implements exchange.Protocol: Algorithm 2 lines 3-11
// plus the re-bootstrap paths.
func (p *policy) PrepareRound(int) {
	n := (*Node)(p)
	// Lines 3-5: age views and estimations, expire old estimations.
	n.pub.IncrementAges()
	n.pri.IncrementAges()
	n.estimates.expire(n.eng.Rounds())
	// Deployment-grade eviction for the otherwise append-only interner:
	// on the configured schedule, and only once the table has outgrown
	// the live estimate set enough to be worth a rebuild (hysteresis —
	// a stable population never compacts), run an epoch. Guarded to
	// privately owned interners by Config.Validate.
	if n.ownsOrigins && n.cfg.CompactOriginsEvery > 0 &&
		n.eng.Rounds()%n.cfg.CompactOriginsEvery == 0 {
		if ol := n.estimates.origins.Len(); ol >= 32 && ol > 2*n.estimates.len() {
			n.estimates.compactOrigins()
			if n.m != nil {
				n.m.OriginCompactions.Inc()
			}
		}
	}
	if m := n.m; m != nil {
		m.Rounds.Inc()
		if cur := n.estimates.len(); cur != n.lastEstLen {
			m.EstimateEntries.Add(int64(cur - n.lastEstLen))
			n.lastEstLen = cur
		}
		if n.ownsOrigins {
			if cur := n.estimates.origins.Len(); cur != n.lastOriginsLen {
				m.OriginEntries.Add(int64(cur - n.lastOriginsLen))
				n.lastOriginsLen = cur
			}
		}
	}
	// Lines 6-8: croupiers recompute their local estimate from the
	// current hit history.
	if n.nat == addr.Public {
		if est, ok := n.calcHitsRatio(); ok {
			n.localEst = est
			n.hasLocal = true
		}
	}
	// Lines 9-11: archive this round's hit counters.
	n.pushHits()
	// Re-seed an empty public view from the bootstrap service (without
	// croupiers the node cannot gossip at all), and — with the
	// anti-entropy knob on — periodically fold fresh directory entries
	// over the stalest view slots so views segregated by a long
	// partition can re-mix after the heal.
	empty := n.pub.Len() == 0
	periodic := n.cfg.RebootstrapEvery > 0 && n.eng.Rounds()%n.cfg.RebootstrapEvery == 0
	if (empty || periodic) && n.rebootstrap != nil && !n.draining {
		// Filter the returned seeds to publics in node-owned scratch
		// (the callback may return a cached slice) and healer-merge:
		// free slots fill, and on a full view the fresh age-0 croupiers
		// fold over the stalest entries — the anti-entropy that
		// re-mixes views segregated by a long partition.
		n.reseedBuf = n.reseedBuf[:0]
		for _, d := range n.rebootstrap() {
			if d.Nat == addr.Public {
				n.reseedBuf = append(n.reseedBuf, d)
			}
		}
		n.pub.MergeHealer(n.reseedBuf)
	}
}

// SelectPeer implements exchange.Protocol: tail selection from the
// public view (Algorithm 2 lines 12-13). The selected descriptor is
// removed; if the target is dead this is also the purge mechanism.
// (SelectRandom is the ablation variant.)
func (p *policy) SelectPeer() (view.Descriptor, bool) {
	n := (*Node)(p)
	if n.draining {
		return view.Descriptor{}, false
	}
	switch n.cfg.Selection {
	case SelectRandom:
		q, ok := n.pub.Random(&n.rng)
		if ok {
			n.pub.Remove(q.ID)
		}
		return q, ok
	case SelectBiasedByID:
		q, ok := n.selectBiasedByID()
		if ok {
			n.pub.Remove(q.ID)
		}
		return q, ok
	}
	return n.pub.TakeOldest()
}

// selectBiasedByID draws a view entry with probability proportional to
// its node ID — the randcheck canary. Allocation discipline does not
// matter here: the policy only ever runs inside the verification
// harness.
func (n *Node) selectBiasedByID() (view.Descriptor, bool) {
	cands := n.pub.Descriptors()
	if len(cands) == 0 {
		return view.Descriptor{}, false
	}
	var total uint64
	for _, d := range cands {
		total += uint64(d.ID)
	}
	if total == 0 {
		return cands[0], true
	}
	pick := uint64(n.rng.Int63n(int64(total)))
	for _, d := range cands {
		if pick < uint64(d.ID) {
			return d, true
		}
		pick -= uint64(d.ID)
	}
	return cands[len(cands)-1], true
}

// FillRequest implements exchange.Protocol: Algorithm 2 lines 14-21,
// building the exchange subsets into the pooled request and adding
// self to the subset matching this node's NAT type.
func (p *policy) FillRequest(q view.Descriptor, req *ShuffleReq) {
	n := (*Node)(p)
	req.From = n.selfDescriptor()
	k := n.cfg.Params.ShuffleSize
	if n.nat == addr.Public {
		req.Pub = append(n.pub.RandomSubsetInto(&n.rng, k-1, req.Pub), n.selfDescriptor())
		req.Pri = n.pri.RandomSubsetInto(&n.rng, k, req.Pri)
	} else {
		req.Pub = n.pub.RandomSubsetInto(&n.rng, k, req.Pub)
		req.Pri = append(n.pri.RandomSubsetInto(&n.rng, k-1, req.Pri), n.selfDescriptor())
	}
	// Never advertise the peer back to itself.
	req.Pub = exchange.DropNode(req.Pub, q.ID)
	req.Pri = exchange.DropNode(req.Pri, q.ID)
	req.Estimates = n.appendEstimateSubset(req.Estimates[:0])
}

// Deliver implements exchange.Protocol: requests go straight to the
// selected croupier (Algorithm 2 line 22) — Croupier needs no relaying
// or hole punching.
func (p *policy) Deliver(q view.Descriptor, req *ShuffleReq) exchange.Delivery {
	n := (*Node)(p)
	n.sentReqs++
	n.sock.Send(q.Endpoint, req)
	return exchange.Sent
}

// MergeResponse implements exchange.Protocol: the requester's merge
// (Algorithm 2 line 40), with swapper semantics against the recorded
// sent subsets.
func (p *policy) MergeResponse(res *ShuffleRes, sentPub, sentPri []view.Descriptor) {
	n := (*Node)(p)
	n.recvRess++
	if m := n.m; m != nil {
		m.Merges.Inc()
	}
	n.mergeView(&n.pub, sentPub, res.Pub)
	n.mergeView(&n.pri, sentPri, res.Pri)
	n.mergeEstimates(res.Estimates)
}

// HandlePacket implements pss.Protocol. Message payloads are pooled:
// anything kept past the handler is copied by the view and estimate
// merges.
func (n *Node) HandlePacket(pkt wire.Packet) {
	switch m := pkt.Msg.(type) {
	case *ShuffleReq:
		n.handleShuffleReq(pkt.From, m)
	case *ShuffleRes:
		n.eng.HandleResponse((*policy)(n), m)
	}
}

// handleShuffleReq implements the croupier side (Algorithm 2 line 25).
// Only public nodes receive requests in normal operation; a private
// node receiving one (stale descriptor advertising it as public) drops
// it.
func (n *Node) handleShuffleReq(from addr.Endpoint, req *ShuffleReq) {
	if n.nat != addr.Public {
		return
	}
	n.recvReqs++
	// Lines 26-30: count the hit by sender type.
	if req.From.Nat == addr.Public {
		n.cu++
	} else {
		n.cv++
	}
	// Lines 31-33: draw response subsets before merging, so the swap
	// exchanges disjoint state.
	k := n.cfg.Params.ShuffleSize
	res := n.eng.NewRes()
	res.From = n.selfDescriptor()
	res.Pub = exchange.DropNode(n.pub.RandomSubsetInto(&n.rng, k, res.Pub), req.From.ID)
	res.Pri = exchange.DropNode(n.pri.RandomSubsetInto(&n.rng, k, res.Pri), req.From.ID)
	res.Estimates = n.appendEstimateSubset(res.Estimates[:0])
	// Lines 34-36: merge sender state with swapper semantics.
	if m := n.m; m != nil {
		m.Merges.Inc()
	}
	n.mergeView(&n.pub, res.Pub, req.Pub)
	n.mergeView(&n.pri, res.Pri, req.Pri)
	n.mergeEstimates(req.Estimates)
	// Line 37: respond to the observed source endpoint so the reply
	// traverses the sender's NAT on the existing mapping.
	n.sock.Send(from, res)
}

// mergeView applies the configured merge policy.
func (n *Node) mergeView(v *view.View, sent, received []view.Descriptor) {
	if n.cfg.Merge == MergeHealer {
		v.MergeHealer(received)
		return
	}
	v.Merge(sent, received)
}

// pushHits archives the current round's hit counters into the α-bounded
// local history (Algorithm 2 lines 9-11). The history is a ring once
// full — calcHitsRatio only ever sums it, so entry order is irrelevant
// and the buffer never reallocates.
func (n *Node) pushHits() {
	if len(n.histU) < n.cfg.LocalHistory {
		n.histU = append(n.histU, n.cu)
		n.histV = append(n.histV, n.cv)
	} else {
		n.histU[n.histPos] = n.cu
		n.histV[n.histPos] = n.cv
		n.histPos = (n.histPos + 1) % len(n.histU)
	}
	n.cu, n.cv = 0, 0
}

// calcHitsRatio computes E_p over the local history (Algorithm 2
// line 60, equation 6). It reports false when no hits were observed.
func (n *Node) calcHitsRatio() (float64, bool) {
	pubCnt, priCnt := 0, 0
	for _, u := range n.histU {
		pubCnt += int(u)
	}
	for _, v := range n.histV {
		priCnt += int(v)
	}
	if pubCnt+priCnt == 0 {
		return 0, false
	}
	return float64(pubCnt) / float64(pubCnt+priCnt), true
}

// appendEstimateSubset appends the bounded random subset of cached
// estimates to piggyback, plus this croupier's own fresh local
// estimate. dst is a pooled message slice reset by the caller.
func (n *Node) appendEstimateSubset(dst []Estimate) []Estimate {
	dst = n.estimates.appendRandomSubset(&n.rng, n.cfg.EstimateSubset, dst, n.eng.Rounds())
	if n.nat == addr.Public && n.hasLocal {
		dst = append(dst, Estimate{Node: n.self, Value: n.localEst})
	}
	return dst
}

// mergeEstimates folds received estimates into M_p, keeping the most
// recent per origin (Algorithm 2 lines 36/43).
func (n *Node) mergeEstimates(es []Estimate) {
	for _, e := range es {
		if e.Node == n.self {
			continue // own estimate lives in localEst
		}
		if e.Age > n.cfg.NeighbourHistory {
			continue
		}
		n.estimates.mergeFresher(e, n.eng.Rounds())
	}
}

// Estimate implements Algorithm 3's estimatePublicPrivateRatio:
// croupiers average their cached estimates together with their own
// (equation 8); private nodes average the cache alone (equation 9). It
// reports false while the node has no estimation data at all.
func (n *Node) Estimate() (float64, bool) {
	// The store sums in slot order, a function of the node's history
	// alone, so the (non-associative) float summation is reproducible
	// across identical runs.
	sum := n.estimates.sum()
	cnt := n.estimates.len()
	if n.nat == addr.Public && n.hasLocal {
		sum += n.localEst
		cnt++
	}
	if cnt == 0 {
		return 0, false
	}
	return sum / float64(cnt), true
}

// Sample implements Algorithm 3's generateRandomSample: with
// probability equal to the ratio estimate the sample is drawn from the
// public view, otherwise from the private view. If the chosen view is
// empty the other view backs it up, so a sample is returned whenever
// the node knows anyone at all.
func (n *Node) Sample() (view.Descriptor, bool) {
	est, ok := n.Estimate()
	if !ok {
		est = 0.5 // no information yet: treat views as equally likely
	}
	first, second := &n.pri, &n.pub
	if n.rng.Float64() < est {
		first, second = &n.pub, &n.pri
	}
	if d, ok := first.Random(&n.rng); ok {
		return d, true
	}
	return second.Random(&n.rng)
}

// CachedEstimates returns a copy of M_p for tests and diagnostics,
// sorted by origin.
func (n *Node) CachedEstimates() []Estimate {
	out := make([]Estimate, 0, n.estimates.len())
	for i := range n.estimates.slots {
		if e := n.estimates.slots[i]; e.origin != 0 && n.estimates.liveAt(e) {
			out = append(out, n.estimates.materialise(e, n.eng.Rounds()))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// LocalEstimate returns E_p and whether the croupier has one.
func (n *Node) LocalEstimate() (float64, bool) { return n.localEst, n.hasLocal }

// Stats returns message counters for overhead diagnostics.
func (n *Node) Stats() (sentReqs, recvReqs, recvRess uint64) {
	return n.sentReqs, n.recvReqs, n.recvRess
}

var (
	_ pss.Protocol      = (*Node)(nil)
	_ exchange.Protocol = (*policy)(nil)
)
