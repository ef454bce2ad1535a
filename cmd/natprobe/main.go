// Command natprobe runs the paper's distributed NAT-type identification
// protocol (Algorithm 1, §V) over real UDP sockets.
//
// Usage:
//
//	natprobe serve -listen <ip:port> [-forwarder <ip:port>]
//	    Run the public-node side. When a MatchingIpTest arrives, the
//	    ForwardTest is relayed to -forwarder (another natprobe server).
//
//	natprobe probe -helpers <ip:port>[,<ip:port>...] [-timeout 2s] [-probe N] [-json]
//	    Run the node-under-test side against the given helper servers
//	    and print the verdict. With at least two helpers the mapping-
//	    behaviour comparison also runs, separating cone NATs (one
//	    mapped endpoint for every destination) from symmetric ones (a
//	    fresh mapping per destination). -probe limits the reachability
//	    test to the first N helpers — keep at least one helper out of
//	    the probe set so it remains eligible as the forwarder. -json
//	    prints the combined verdict as one machine-readable object
//	    (the real-kernel testlab parses it).
//
//	natprobe demo
//	    Self-contained loopback demonstration: starts two helper
//	    servers and a client in one process and prints the exchange.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/addr"
	"repro/internal/natid"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "natprobe:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: natprobe serve|probe|demo [flags]")
	}
	switch args[0] {
	case "serve":
		return serve(args[1:])
	case "probe":
		return probe(args[1:])
	case "demo":
		return demo()
	default:
		return fmt.Errorf("unknown subcommand %q (want serve, probe or demo)", args[0])
	}
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	listen := fs.String("listen", "0.0.0.0:3478", "UDP address to listen on")
	forwarder := fs.String("forwarder", "", "second public node for ForwardTest relay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	node, err := natid.ListenUDP(*listen)
	if err != nil {
		return err
	}
	defer node.Close()

	var fwd addr.Endpoint
	if *forwarder != "" {
		fwd, err = addr.ParseEndpoint(*forwarder)
		if err != nil {
			return err
		}
	}
	node.SetServer(natid.NewServer(node, func(exclude []addr.Endpoint) (addr.Endpoint, bool) {
		if fwd.IsZero() {
			return addr.Endpoint{}, false
		}
		for _, ex := range exclude {
			if ex == fwd {
				return addr.Endpoint{}, false
			}
		}
		return fwd, true
	}))
	fmt.Printf("natprobe server listening on %v (forwarder: %v)\n", node.Endpoint(), fwd)
	select {} // serve until killed
}

func probe(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ContinueOnError)
	helpers := fs.String("helpers", "", "comma-separated helper endpoints")
	timeout := fs.Duration("timeout", 2*time.Second, "ForwardResp wait")
	probeN := fs.Int("probe", 0, "probe only the first N helpers for reachability (0 = all)")
	asJSON := fs.Bool("json", false, "print the combined verdict as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *helpers == "" {
		return fmt.Errorf("-helpers is required")
	}
	var all []addr.Endpoint
	for _, h := range strings.Split(*helpers, ",") {
		ep, err := addr.ParseEndpoint(strings.TrimSpace(h))
		if err != nil {
			return err
		}
		all = append(all, ep)
	}
	probes := all
	if *probeN > 0 && *probeN < len(all) {
		probes = all[:*probeN]
	}

	node, err := natid.ListenUDP("0.0.0.0:0")
	if err != nil {
		return err
	}
	defer node.Close()

	cls := node.Classify(probes, all, *timeout, nil)
	if *asJSON {
		return printJSON(cls)
	}
	printResult(cls.Result)
	printMapping(cls.Mapping, len(all))
	return nil
}

// printJSON emits the combined verdict as one machine-readable object.
func printJSON(cls natid.Classification) error {
	out := struct {
		Type     string   `json:"type"`
		Observed string   `json:"observed,omitempty"`
		ViaUPnP  bool     `json:"via_upnp,omitempty"`
		Mapping  string   `json:"mapping"`
		Mapped   []string `json:"mapped,omitempty"`
	}{
		Type:    cls.Result.Type.String(),
		ViaUPnP: cls.Result.ViaUPnP,
		Mapping: cls.Mapping.Behavior.String(),
	}
	if !cls.Result.Observed.IsZero() {
		out.Observed = cls.Result.Observed.String()
	}
	for _, ep := range cls.Mapping.Observed {
		out.Mapped = append(out.Mapped, ep.String())
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func demo() error {
	second, err := natid.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer second.Close()
	second.SetServer(natid.NewServer(second, func([]addr.Endpoint) (addr.Endpoint, bool) {
		return addr.Endpoint{}, false
	}))

	first, err := natid.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer first.Close()
	fwd := second.Endpoint()
	first.SetServer(natid.NewServer(first, func(exclude []addr.Endpoint) (addr.Endpoint, bool) {
		for _, ex := range exclude {
			if ex == fwd {
				return addr.Endpoint{}, false
			}
		}
		return fwd, true
	}))

	client, err := natid.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer client.Close()

	fmt.Printf("helper 1 (probe target): %v\n", first.Endpoint())
	fmt.Printf("helper 2 (forwarder):    %v\n", second.Endpoint())
	fmt.Printf("client:                  %v\n", client.Endpoint())
	fmt.Println("running MatchingIpTest → ForwardTest → ForwardResp ...")

	results := make(chan natid.Result, 1)
	c := natid.NewClient(client, 2*time.Second, func(r natid.Result) { results <- r })
	client.StartClient(c, []addr.Endpoint{first.Endpoint()}, nil)

	r := <-results
	printResult(r)
	return nil
}

func printResult(r natid.Result) {
	fmt.Printf("NAT type: %v\n", r.Type)
	if !r.Observed.IsZero() {
		fmt.Printf("observed public endpoint: %v\n", r.Observed)
	}
	if r.ViaUPnP {
		fmt.Println("(public via UPnP port mapping)")
	}
	if r.Type == addr.Private && r.Observed.IsZero() {
		fmt.Println("(no ForwardResp received before the timeout — filtering NAT or firewall)")
	}
}

func printMapping(m natid.MappingResult, helpers int) {
	if helpers < 2 {
		fmt.Println("mapping behaviour: skipped (need at least two helpers to compare)")
		return
	}
	fmt.Printf("mapping behaviour: %v", m.Behavior)
	if len(m.Observed) > 0 {
		fmt.Printf(" (observed %v", m.Observed[0])
		for _, ep := range m.Observed[1:] {
			fmt.Printf(", %v", ep)
		}
		fmt.Print(")")
	}
	fmt.Println()
	switch m.Behavior {
	case natid.BehaviorCone:
		fmt.Println("(endpoint-independent mapping: one stable public endpoint for every destination)")
	case natid.BehaviorSymmetric:
		fmt.Println("(per-destination mappings: the public endpoint changes with the destination)")
	case natid.BehaviorUnknown:
		fmt.Println("(fewer than two helpers answered — cannot compare mappings)")
	}
}
