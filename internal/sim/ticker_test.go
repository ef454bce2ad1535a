package sim

import (
	"testing"
	"time"
)

func TestTickerFiresEveryPeriod(t *testing.T) {
	sched := New(1)
	var at []time.Duration
	tk := StartTicker(sched, time.Second, 500*time.Millisecond, func() {
		at = append(at, sched.Now())
	})
	sched.RunUntil(3700 * time.Millisecond)
	tk.Stop()
	want := []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond, 2500 * time.Millisecond, 3500 * time.Millisecond}
	if len(at) != len(want) {
		t.Fatalf("ticks = %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestTickerStopPreventsFutureTicks(t *testing.T) {
	sched := New(1)
	count := 0
	tk := StartTicker(sched, time.Second, 0, func() { count++ })
	sched.RunUntil(2500 * time.Millisecond)
	tk.Stop()
	sched.RunUntil(10 * time.Second)
	if count != 3 { // t=0, 1s, 2s
		t.Fatalf("ticks = %d, want 3", count)
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	sched := New(1)
	count := 0
	var tk *Ticker
	tk = StartTicker(sched, time.Second, 0, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	sched.RunUntil(10 * time.Second)
	if count != 2 {
		t.Fatalf("ticks = %d, want 2 (stopped from callback)", count)
	}
}

func TestRandomPhaseWithinPeriod(t *testing.T) {
	sched := New(42)
	for i := 0; i < 100; i++ {
		ph := RandomPhase(sched, time.Second)
		if ph < 0 || ph >= time.Second {
			t.Fatalf("phase %v outside [0, 1s)", ph)
		}
	}
	if got := RandomPhase(sched, 0); got != 0 {
		t.Fatalf("phase for zero period = %v, want 0", got)
	}
}
