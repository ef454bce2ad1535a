package natid

import (
	"time"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// simEnv is the tests' Env over a simulated socket: the twin of the
// environment internal/world builds per node.
type simEnv struct {
	Mux
	sched *sim.Scheduler
	sock  *simnet.Socket
}

// bindSimEnv binds the identification port on h and returns the
// environment serving it.
func bindSimEnv(sched *sim.Scheduler, h *simnet.Host) (*simEnv, error) {
	e := &simEnv{sched: sched}
	sock, err := h.Bind(port, func(pkt wire.Packet) { e.Dispatch(pkt.From, pkt.Msg) })
	e.sock = sock
	return e, err
}

func (e *simEnv) Send(to addr.Endpoint, m Msg) { e.sock.Send(to, m) }

func (e *simEnv) After(d time.Duration, fn func()) func() { return e.sched.After(d, fn).Cancel }

func (e *simEnv) LocalIP() addr.IP { return e.sock.Host().IP() }
