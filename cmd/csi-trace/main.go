// csi-trace inspects a captured run: per-connection summaries, the detected
// chunk-request timeline, and (for QUIC multiplexing) the SP1/SP2 traffic
// groups. It is the debugging companion to csi-analyze.
//
// Usage:
//
//	csi-trace -run run.json
//	csi-trace -run run.bin -host media.example.com -requests
//	csi-trace -run run.bin -host media.example.com -mux
//	csi-trace -timeline run.trace.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"csi/internal/core"
	"csi/internal/obs"
	"csi/internal/packet"
	"csi/internal/pcap"
)

func main() {
	var (
		runPath  = flag.String("run", "", "run file (.json, .bin or .pcap)")
		host     = flag.String("host", "", "media host for request/group analysis")
		requests = flag.Bool("requests", false, "print the detected request timeline")
		mux      = flag.Bool("mux", false, "print SP1/SP2 traffic groups (QUIC multiplexing)")
		timeline = flag.String("timeline", "", "render a JSONL event log (csi-run/-analyze -trace-out x.jsonl) as a text timeline")
	)
	flag.Parse()
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "csi-trace:", err)
		os.Exit(1)
	}
	if *timeline != "" {
		f, err := os.Open(*timeline)
		if err != nil {
			die(err)
		}
		defer f.Close()
		recs, err := obs.ReadJSONEvents(f)
		if err != nil {
			die(err)
		}
		if err := obs.WriteTimeline(os.Stdout, recs); err != nil {
			die(err)
		}
		return
	}
	if *runPath == "" {
		die(fmt.Errorf("-run is required"))
	}
	run, err := pcap.LoadRun(*runPath)
	if err != nil {
		die(err)
	}
	tr := run.Trace

	// Per-connection summary.
	type connSummary struct {
		id                 int
		proto              packet.Proto
		pkts               int
		upBytes, downBytes int64
		first, last        float64
	}
	sums := map[int]*connSummary{}
	for _, v := range tr.Packets {
		s, ok := sums[v.ConnID]
		if !ok {
			s = &connSummary{id: v.ConnID, proto: v.Proto, first: v.Time}
			sums[v.ConnID] = s
		}
		s.pkts++
		s.last = v.Time
		if v.Dir == packet.Up {
			s.upBytes += v.Size
		} else {
			s.downBytes += v.Size
		}
	}
	var ids []int
	for id := range sums {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Printf("%d packets, %d connections\n\n", len(tr.Packets), len(ids))
	fmt.Printf("%-5s %-5s %-28s %-16s %9s %12s %12s %9s\n",
		"conn", "proto", "sni", "server ip", "packets", "up bytes", "down bytes", "dur s")
	for _, id := range ids {
		s := sums[id]
		fmt.Printf("%-5d %-5s %-28s %-16s %9d %12d %12d %9.1f\n",
			id, s.proto, tr.SNI[id], tr.ServerIP[id], s.pkts, s.upBytes, s.downBytes, s.last-s.first)
	}
	if len(tr.DNS) > 0 {
		fmt.Println("\nDNS associations:")
		var dnsIPs []string
		for ip := range tr.DNS {
			dnsIPs = append(dnsIPs, ip)
		}
		sort.Strings(dnsIPs)
		for _, ip := range dnsIPs {
			fmt.Printf("  %-16s -> %s\n", ip, tr.DNS[ip])
		}
	}

	if !*requests && !*mux {
		return
	}
	if *host == "" {
		die(fmt.Errorf("-host is required for -requests/-mux"))
	}
	est, err := core.Estimate(tr, core.Params{MediaHost: *host, Mux: *mux})
	if err != nil {
		die(err)
	}
	if *mux {
		fmt.Printf("\n%d traffic groups:\n", len(est.Groups))
		fmt.Printf("%-4s %10s %10s %6s %12s\n", "grp", "start", "end", "reqs", "est bytes")
		for gi, g := range est.Groups {
			fmt.Printf("%-4d %10.2f %10.2f %6d %12d\n", gi, g.Start, g.End, len(g.ReqTimes), g.Est)
		}
		return
	}
	fmt.Printf("\n%d detected requests:\n", len(est.Requests))
	fmt.Printf("%-4s %10s %-5s %12s %10s\n", "req", "time", "conn", "est bytes", "done")
	for i, r := range est.Requests {
		fmt.Printf("%-4d %10.2f %-5d %12d %10.2f\n", i, r.Time, r.Conn, r.Est, r.LastData)
	}
}
