package sim

import "time"

// Ticker drives a periodic callback — a protocol node's gossip round —
// on a scheduler. The first tick fires after a phase offset (nodes are
// not synchronised in real deployments), then every period. Whoever
// owns simulated time owns the ticker: internal/world starts one per
// node, and protocol test rigs drive their nodes with the same type.
//
// Ticks ride the scheduler's pooled fire-and-forget path with a tick
// closure built once at construction, so a running ticker allocates
// nothing per round. Stopping does not cancel the queued tick — it
// fires once more as a no-op and is recycled.
type Ticker struct {
	sched   *Scheduler
	period  time.Duration
	fn      func()
	tickFn  func() // cached method value, scheduled every period
	stopped bool
}

// StartTicker schedules fn every period, first firing after phase.
func StartTicker(sched *Scheduler, period, phase time.Duration, fn func()) *Ticker {
	t := &Ticker{sched: sched, period: period, fn: fn}
	t.tickFn = t.tick
	sched.Schedule(phase, t.tickFn)
	return t
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.sched.Schedule(t.period, t.tickFn)
	t.fn()
}

// Stop suppresses future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
}

// RandomPhase draws a uniform phase offset in [0, period) from the
// scheduler's random source, desynchronising node rounds the way real
// deployments are desynchronised.
func RandomPhase(sched *Scheduler, period time.Duration) time.Duration {
	if period <= 0 {
		return 0
	}
	return time.Duration(sched.Rand().Int63n(int64(period)))
}
