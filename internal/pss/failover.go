package pss

import (
	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/view"
)

// FailoverMetrics turns the protocol-level failover hooks —
// gozar.SetRelayEvents and nylon.SetRVPEvents — into deployment-plane
// counters, so relay churn and rendezvous lifecycle show up on the same
// scrape as the rest of the deploy_* series and live dashboards can
// plot failover rates next to traffic and drops. One instance is shared
// by every node in a world or deployment: the methods only touch
// sharded atomic counters, so they are safe from any goroutine and cost
// nothing to the protocols' determinism (write-only, off the RNG path).
type FailoverMetrics struct {
	relayFailovers *metrics.Counter
	relaysGained   *metrics.Counter
	rvpEstablished *metrics.Counter
	rvpExpirations *metrics.Counter
}

// NewFailoverMetrics registers the failover counter set on r.
func NewFailoverMetrics(r *metrics.Registry) *FailoverMetrics {
	return &FailoverMetrics{
		relayFailovers: r.Counter("deploy_relay_failovers_total",
			"Gozar relays lost from a node's advertised relay set (dead or replaced)."),
		relaysGained: r.Counter("deploy_relays_gained_total",
			"Gozar relays recruited into a node's advertised relay set."),
		rvpEstablished: r.Counter("deploy_rvp_established_total",
			"Nylon rendezvous-point relationships established."),
		rvpExpirations: r.Counter("deploy_rvp_expirations_total",
			"Nylon rendezvous-point relationships expired or evicted."),
	}
}

// OnRelayEvents matches the gozar.SetRelayEvents hook signature: each
// lost relay is one failover, each gained relay one recruitment. The
// scratch slices are only read, honouring the hook's aliasing contract.
func (f *FailoverMetrics) OnRelayEvents(lost, gained []view.Relay) {
	if f == nil {
		return
	}
	if len(lost) > 0 {
		f.relayFailovers.Add(uint64(len(lost)))
	}
	if len(gained) > 0 {
		f.relaysGained.Add(uint64(len(gained)))
	}
}

// OnRVPEvent matches the nylon.SetRVPEvents hook signature: established
// relationships and expirations/evictions count on separate series.
func (f *FailoverMetrics) OnRVPEvent(_ addr.NodeID, established bool) {
	if f == nil {
		return
	}
	if established {
		f.rvpEstablished.Inc()
	} else {
		f.rvpExpirations.Inc()
	}
}
