package pss

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/view"
)

func failoverValues(r *metrics.Registry) (failovers, gained, established, expired uint64) {
	return r.Counter("deploy_relay_failovers_total", "").Value(),
		r.Counter("deploy_relays_gained_total", "").Value(),
		r.Counter("deploy_rvp_established_total", "").Value(),
		r.Counter("deploy_rvp_expirations_total", "").Value()
}

func TestFailoverMetricsCounting(t *testing.T) {
	r := metrics.NewRegistry()
	f := NewFailoverMetrics(r)

	relays := []view.Relay{
		{Endpoint: addr.Endpoint{IP: addr.MakeIP(10, 0, 0, 1), Port: 1}},
		{Endpoint: addr.Endpoint{IP: addr.MakeIP(10, 0, 0, 2), Port: 2}},
	}
	f.OnRelayEvents(relays, nil)        // 2 lost
	f.OnRelayEvents(nil, relays[:1])    // 1 gained
	f.OnRelayEvents(relays[:1], relays) // 1 lost, 2 gained
	f.OnRelayEvents(nil, nil)           // no-op delta
	f.OnRVPEvent(addr.NodeID(1), true)  // established
	f.OnRVPEvent(addr.NodeID(2), true)  // established
	f.OnRVPEvent(addr.NodeID(1), false) // expired

	fo, ga, es, ex := failoverValues(r)
	if fo != 3 || ga != 3 || es != 2 || ex != 1 {
		t.Fatalf("counters = failovers %d, gained %d, established %d, expired %d; want 3/3/2/1",
			fo, ga, es, ex)
	}
}

func TestFailoverMetricsNilReceiverIsInert(t *testing.T) {
	// World and deployment code paths pass the hooks unconditionally
	// once wired; a nil FailoverMetrics must absorb them safely.
	var f *FailoverMetrics
	f.OnRelayEvents([]view.Relay{{}}, []view.Relay{{}})
	f.OnRVPEvent(addr.NodeID(1), true)
}
