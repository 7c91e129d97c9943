// Package scandetect reproduces the §5.2 scanner screening: before trusting
// observed DoT traffic as organic, the paper submits client networks to a
// scan-detection system (NetworkScan Mon) that classifies sources by their
// flow behaviour, and additionally checks SOA/PTR records of client
// addresses for research-scanner fingerprints.
package scandetect

import (
	"net/netip"
	"sort"
	"strings"

	"dnsencryption.info/doe/internal/netflow"
)

// Verdict is the classification of one traffic source.
type Verdict struct {
	Source netip.Addr
	// Scanner is true when the source's behaviour matches scanning.
	Scanner bool
	// Reason explains the classification.
	Reason string
	// DistinctDsts is the number of distinct destinations on the port.
	DistinctDsts int
	// SYNOnlyFraction is the share of flows that were bare SYNs.
	SYNOnlyFraction float64
}

// Detector implements a state-transition-style classifier over per-source
// flow statistics, tuned for port-853 scanning.
type Detector struct {
	// Port restricts analysis (853 for DoT scan screening).
	Port uint16
	// FanoutThreshold is the distinct-destination count above which a
	// source is considered scanning.
	FanoutThreshold int
	// SYNOnlyThreshold is the bare-SYN fraction above which fanout is
	// treated as scanning even below the hard threshold.
	SYNOnlyThreshold float64
	// ReverseNames supplies PTR/SOA names for an address, for the
	// fingerprint check ("we also check the SOA and PTR records of the
	// client addresses").
	ReverseNames func(netip.Addr) []string
}

// NewDetector returns a detector with defaults suiting the study.
func NewDetector(port uint16) *Detector {
	return &Detector{
		Port:             port,
		FanoutThreshold:  100,
		SYNOnlyThreshold: 0.8,
	}
}

// scannerNameMarkers are PTR/SOA substrings that research scanners
// typically publish (the paper's own scanner sets such a record for
// opt-out).
var scannerNameMarkers = []string{"scan", "research", "probe", "measurement", "survey"}

// Classify analyses all records and returns a verdict per source address,
// sorted by source.
func (d *Detector) Classify(records []netflow.Record) []Verdict {
	type stats struct {
		dsts, flows, synOnly int
	}
	bySrc := map[netip.Addr]*stats{}
	// One set of (source, destination) pairs counts every source's
	// distinct destinations.
	pairs := map[[2]netip.Addr]struct{}{}
	for _, rec := range records {
		if rec.DstPort != d.Port || rec.Proto != netflow.ProtoTCP {
			continue
		}
		s, ok := bySrc[rec.Src]
		if !ok {
			s = &stats{}
			bySrc[rec.Src] = s
		}
		n := len(pairs)
		pairs[[2]netip.Addr{rec.Src, rec.Dst}] = struct{}{}
		if len(pairs) > n {
			s.dsts++
		}
		s.flows++
		if rec.Flags == netflow.FlagSYN {
			s.synOnly++
		}
	}
	out := make([]Verdict, 0, len(bySrc))
	for src, s := range bySrc {
		v := Verdict{
			Source:       src,
			DistinctDsts: s.dsts,
		}
		if s.flows > 0 {
			v.SYNOnlyFraction = float64(s.synOnly) / float64(s.flows)
		}
		switch {
		case s.dsts >= d.FanoutThreshold:
			v.Scanner = true
			v.Reason = "high destination fanout"
		case s.dsts >= d.FanoutThreshold/10 && v.SYNOnlyFraction >= d.SYNOnlyThreshold:
			v.Scanner = true
			v.Reason = "moderate fanout with SYN-only flows"
		case d.nameMatches(src):
			v.Scanner = true
			v.Reason = "scanner fingerprint in PTR/SOA"
		default:
			v.Reason = "organic"
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source.Less(out[j].Source) })
	return out
}

func (d *Detector) nameMatches(src netip.Addr) bool {
	if d.ReverseNames == nil {
		return false
	}
	for _, name := range d.ReverseNames(src) {
		lower := strings.ToLower(name)
		for _, marker := range scannerNameMarkers {
			if strings.Contains(lower, marker) {
				return true
			}
		}
	}
	return false
}

// FilterOrganic removes flows whose source was classified as a scanner. Its
// result is allocated once, with room for every record.
func FilterOrganic(records []netflow.Record, verdicts []Verdict) []netflow.Record {
	scanners := map[netip.Addr]bool{}
	for _, v := range verdicts {
		if v.Scanner {
			scanners[v.Source] = true
		}
	}
	out := make([]netflow.Record, 0, len(records))
	for _, rec := range records {
		if !scanners[rec.Src] {
			out = append(out, rec)
		}
	}
	return out
}
