package world

import (
	"time"

	"repro/internal/addr"
	"repro/internal/natid"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// natidEnv adapts a node's simulated NAT-identification socket and its
// shard scheduler to natid.Env; the embedded Mux routes what the socket
// receives to the node's client and (on public nodes) server.
type natidEnv struct {
	natid.Mux
	sched *sim.Scheduler
	sock  *simnet.Socket
}

// handle is the socket handler. The world binds the port with it before
// the socket exists, then completes the env with the returned socket.
func (e *natidEnv) handle(pkt wire.Packet) { e.Dispatch(pkt.From, pkt.Msg) }

// Send implements natid.Env over the simulated network.
func (e *natidEnv) Send(to addr.Endpoint, m natid.Msg) { e.sock.Send(to, m) }

// After implements natid.Env using the simulation scheduler.
func (e *natidEnv) After(d time.Duration, fn func()) func() { return e.sched.After(d, fn).Cancel }

// LocalIP implements natid.Env.
func (e *natidEnv) LocalIP() addr.IP { return e.sock.Host().IP() }
