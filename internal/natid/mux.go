package natid

import (
	"repro/internal/addr"
	"repro/internal/wire"
)

// Mux routes received messages to the roles attached to one socket — a
// client, a mapping client, a server, or any mix. Every Env
// implementation (UDPNode here, the simulated environment in
// internal/world) embeds one and feeds it from its receive path. A Mux
// is not synchronised: the owner serialises Dispatch with the setters.
type Mux struct {
	client    *Client
	mapClient *MappingClient
	server    *Server
}

// SetClient routes ForwardResp messages to c.
func (x *Mux) SetClient(c *Client) { x.client = c }

// SetMappingClient routes MapReport messages to c.
func (x *Mux) SetMappingClient(c *MappingClient) { x.mapClient = c }

// SetServer routes test and probe messages to s.
func (x *Mux) SetServer(s *Server) { x.server = s }

// Dispatch hands one received message to the attached role. Messages
// for an absent role and unknown payloads are ignored, mirroring a UDP
// service skipping malformed datagrams.
func (x *Mux) Dispatch(from addr.Endpoint, msg wire.Message) {
	switch m := msg.(type) {
	case MatchingIPTest:
		if x.server != nil {
			x.server.HandleMatchingIPTest(from, m)
		}
	case ForwardTest:
		if x.server != nil {
			x.server.HandleForwardTest(m)
		}
	case ForwardResp:
		if x.client != nil {
			x.client.HandleForwardResp(m)
		}
	case MapProbe:
		if x.server != nil {
			x.server.HandleMapProbe(from, m)
		}
	case MapReport:
		if x.mapClient != nil {
			x.mapClient.HandleMapReport(from, m)
		}
	}
}
