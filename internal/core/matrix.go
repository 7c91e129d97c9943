// Package core is the paper's primary contribution assembled end to end:
// the default study world (a calibrated simulated Internet), the three
// measurement stages (server discovery, client-side usability, traffic
// analysis), and an experiment registry that regenerates every table and
// figure of the paper's evaluation.
package core

import (
	"dnsencryption.info/doe/internal/analysis"
)

// Grade is the three-level rating of Table 1.
type Grade int

// Grades: satisfying (●), partially satisfying (◐), not satisfying (○).
const (
	No Grade = iota
	Partial
	Yes
)

// String renders the grade the way the paper's table legend does.
func (g Grade) String() string {
	switch g {
	case Yes:
		return "●"
	case Partial:
		return "◐"
	default:
		return "○"
	}
}

// Protocol identifies one DNS-over-Encryption proposal.
type Protocol string

// The five protocols of §2.2.
const (
	DoT      Protocol = "DNS-over-TLS"
	DoH      Protocol = "DNS-over-HTTPS"
	DoDTLS   Protocol = "DNS-over-DTLS"
	DoQUIC   Protocol = "DNS-over-QUIC"
	DNSCrypt Protocol = "DNSCrypt"
)

// Protocols lists Table 1's columns in order.
var Protocols = []Protocol{DoT, DoH, DoDTLS, DoQUIC, DNSCrypt}

// Criterion is one of the ten evaluation criteria of §2.2.
type Criterion struct {
	Category string
	Name     string
	Grades   map[Protocol]Grade
}

// ComparisonMatrix is Table 1: 10 criteria under 5 categories across the
// five protocols, graded as in the paper.
var ComparisonMatrix = []Criterion{
	{
		Category: "Protocol Design", Name: "Uses other application-layer protocols",
		Grades: map[Protocol]Grade{DoT: No, DoH: Yes, DoDTLS: No, DoQUIC: No, DNSCrypt: No},
	},
	{
		Category: "Protocol Design", Name: "Provides fallback mechanism",
		Grades: map[Protocol]Grade{DoT: Yes, DoH: No, DoDTLS: Yes, DoQUIC: Yes, DNSCrypt: No},
	},
	{
		Category: "Security", Name: "Uses standard TLS",
		Grades: map[Protocol]Grade{DoT: Yes, DoH: Yes, DoDTLS: Partial, DoQUIC: Yes, DNSCrypt: No},
	},
	{
		Category: "Security", Name: "Resists DNS traffic analysis",
		Grades: map[Protocol]Grade{DoT: Partial, DoH: Yes, DoDTLS: Partial, DoQUIC: Partial, DNSCrypt: Partial},
	},
	{
		Category: "Usability", Name: "Minor changes for client users",
		Grades: map[Protocol]Grade{DoT: Partial, DoH: Yes, DoDTLS: No, DoQUIC: No, DNSCrypt: Partial},
	},
	{
		Category: "Usability", Name: "Minor latency above DNS-over-UDP",
		Grades: map[Protocol]Grade{DoT: Partial, DoH: Partial, DoDTLS: Yes, DoQUIC: Yes, DNSCrypt: Partial},
	},
	{
		Category: "Deployability", Name: "Runs over standard protocols",
		Grades: map[Protocol]Grade{DoT: Yes, DoH: Yes, DoDTLS: Partial, DoQUIC: Partial, DNSCrypt: No},
	},
	{
		Category: "Deployability", Name: "Supported by mainstream DNS software",
		Grades: map[Protocol]Grade{DoT: Yes, DoH: Partial, DoDTLS: No, DoQUIC: No, DNSCrypt: Partial},
	},
	{
		Category: "Maturity", Name: "Standardized by IETF",
		Grades: map[Protocol]Grade{DoT: Yes, DoH: Yes, DoDTLS: Yes, DoQUIC: Partial, DNSCrypt: No},
	},
	{
		Category: "Maturity", Name: "Extensively supported by resolvers",
		Grades: map[Protocol]Grade{DoT: Yes, DoH: Partial, DoDTLS: No, DoQUIC: No, DNSCrypt: Partial},
	},
}

// Table1 renders the comparison matrix.
func Table1() *analysis.Table {
	t := &analysis.Table{
		Title:   "Table 1: Comparison of DNS-over-Encryption protocols",
		Columns: []string{"Category", "Criterion", "DoT", "DoH", "DoDTLS", "DoQUIC", "DNSCrypt"},
	}
	for _, c := range ComparisonMatrix {
		t.AddRow(c.Category, c.Name,
			c.Grades[DoT], c.Grades[DoH], c.Grades[DoDTLS], c.Grades[DoQUIC], c.Grades[DNSCrypt])
	}
	return t
}

// TimelineEvent is one milestone of Figure 1.
type TimelineEvent struct {
	Year int
	Kind string // "standard", "wg", "info"
	Name string
}

// Timeline is Figure 1's event list.
var Timeline = []TimelineEvent{
	{2009, "standard", "DNSCurve proposal (earliest DNS encryption effort)"},
	{2011, "standard", "DNSCrypt protocol and OpenDNS deployment"},
	{2014, "wg", "IETF DPRIVE working group chartered"},
	{2015, "info", "RFC 7626: DNS privacy considerations"},
	{2016, "standard", "RFC 7858: DNS over TLS"},
	{2016, "info", "RFC 7816: QNAME minimisation"},
	{2017, "standard", "RFC 8094: DNS over DTLS (backup proposal)"},
	{2018, "wg", "IETF DOH working group delivers RFC 8484"},
	{2018, "standard", "RFC 8484: DNS Queries over HTTPS"},
	{2018, "info", "RFC 8310: usage profiles for DoT/DoDTLS"},
}

// Fig1 renders the timeline.
func Fig1() *analysis.Table {
	t := &analysis.Table{
		Title:   "Figure 1: Timeline of important DNS privacy events",
		Columns: []string{"Year", "Kind", "Event"},
	}
	for _, e := range Timeline {
		t.AddRow(e.Year, e.Kind, e.Name)
	}
	return t
}

// Implementation is one row of Table 8 (Appendix A).
type Implementation struct {
	Category string // "Public DNS", "DNS Software (Server)", ...
	Name     string
	DoT      bool
	DoH      bool
	DNSCrypt bool
	DNSSEC   bool
	QNAMEMin bool
}

// Implementations is the Appendix A survey (as of May 1, 2019).
var Implementations = []Implementation{
	{"Public DNS", "Google", true, true, false, true, false},
	{"Public DNS", "Cloudflare", true, true, false, true, true},
	{"Public DNS", "Quad9", true, true, false, true, true},
	{"Public DNS", "OpenDNS", false, false, true, false, false},
	{"Public DNS", "CleanBrowsing", true, true, true, false, false},
	{"Public DNS", "Tenta", true, true, false, true, false},
	{"Public DNS", "Verisign", false, false, false, true, false},
	{"Public DNS", "SecureDNS", true, true, true, true, false},
	{"Public DNS", "DNS.WATCH", false, false, false, true, false},
	{"Public DNS", "PowerDNS", false, true, false, true, false},
	{"Public DNS", "Level3", false, false, false, false, false},
	{"Public DNS", "SafeDNS", false, false, false, false, false},
	{"Public DNS", "Dyn", false, false, false, true, false},
	{"Public DNS", "BlahDNS", true, true, true, true, false},
	{"Public DNS", "OpenNIC", false, false, true, true, false},
	{"Public DNS", "Alternate DNS", false, false, false, false, false},
	{"Public DNS", "Yandex.DNS", false, false, true, true, false},
	{"DNS Software (Server)", "Unbound", true, false, true, true, true},
	{"DNS Software (Server)", "BIND", false, false, false, true, true},
	{"DNS Software (Server)", "Knot Resolver", true, true, true, true, true},
	{"DNS Software (Server)", "dnsdist", true, true, true, true, false},
	{"DNS Software (Server)", "CoreDNS", true, true, false, false, false},
	{"DNS Software (Server)", "AnswerX", false, false, false, true, false},
	{"DNS Software (Server)", "MS DNS", false, false, false, true, false},
	{"DNS Software (Stub)", "Ldns (drill)", true, false, false, true, false},
	{"DNS Software (Stub)", "Stubby", true, true, false, true, false},
	{"DNS Software (Stub)", "BIND (dig)", true, false, false, true, false},
	{"DNS Software (Stub)", "Go DNS", true, false, false, true, false},
	{"DNS Software (Stub)", "Knot (kdig)", true, true, false, true, false},
	{"Browser", "Firefox", false, true, false, false, false},
	{"Browser", "Chrome", false, true, false, false, false},
	{"Browser", "Yandex Browser", false, false, true, false, false},
	{"Browser", "Tenta Browser", true, true, false, false, false},
	{"OS", "Android 9", true, false, false, false, false},
	{"OS", "Linux (systemd 239)", true, false, false, true, false},
}

// Table8 renders the implementation survey.
func Table8() *analysis.Table {
	t := &analysis.Table{
		Title:   "Table 8: Current implementations of DNS-over-Encryption (May 1, 2019)",
		Columns: []string{"Category", "Name", "DoT", "DoH", "DNSCrypt", "DNSSEC", "QNAME min"},
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	for _, impl := range Implementations {
		t.AddRow(impl.Category, impl.Name,
			mark(impl.DoT), mark(impl.DoH), mark(impl.DNSCrypt), mark(impl.DNSSEC), mark(impl.QNAMEMin))
	}
	return t
}
