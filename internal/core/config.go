package core

// Config scales the study. The defaults reproduce the paper's shapes at
// roughly 1/50 of its population sizes so the full pipeline runs in seconds;
// every knob is documented with the paper's original value.
type Config struct {
	// Seed drives all stochastic choices; a fixed seed makes every table
	// bit-for-bit reproducible.
	Seed int64

	// GlobalNodes is the ProxyRack-style vantage pool (paper: 29,622
	// endpoints in 166 countries).
	GlobalNodes int
	// CensoredNodes is the Zhima-style pool, all in CN (paper: 85,112
	// endpoints in 5 ASes of two Chinese ISPs).
	CensoredNodes int

	// ScanSpaceBits sizes the swept address space at 2^bits (paper: the
	// full IPv4 space).
	ScanSpaceBits int
	// PortOpenNotDoT is the host population with TCP/853 open that fails
	// DoT verification (paper: 2–3 million per scan).
	PortOpenNotDoT int
	// ScanRounds is the number of 10-day scan rounds between Feb 1 and
	// May 1, 2019 (paper: 10).
	ScanRounds int

	// Workers bounds the parallel execution engine: scan sweeps, DoT
	// verification probes, vantage campaigns, performance sampling, port
	// forensics and the no-reuse comparison all shard across this many
	// goroutines. Results are merged deterministically, so any value
	// (including 1) produces bit-for-bit identical reports.
	Workers int
	// PerfNodes is how many global nodes run the performance test
	// (paper: 8,257).
	PerfNodes int
	// PerfQueriesReused is the per-protocol query count with connection
	// reuse (paper: 20, the proxy-session limit).
	PerfQueriesReused int
	// PerfQueriesFresh is the per-protocol query count of the
	// no-reuse test on controlled vantages (paper: 200).
	PerfQueriesFresh int
	// MuxInFlight is the per-session concurrency of the performance test's
	// multiplexed pass: DoT sessions pipeline (RFC 7766) and DoH sessions
	// multiplex HTTP/2 streams with this many queries in flight, reported
	// as Fig. 9's amortized "multiplexed" columns. Values below 2 disable
	// the pass.
	MuxInFlight int

	// TrafficScale scales the 18-month NetFlow volumes (1.0 generates
	// flow counts matching the paper's *sampled* magnitudes).
	TrafficScale float64

	// CorpusNoise is the number of non-DoH URLs mixed into the URL
	// corpus (paper: billions of URLs; discovery cost scales linearly).
	CorpusNoise int

	// Faults selects the network fault-injection profile; the zero value
	// leaves the simulated network fault-free.
	Faults FaultsConfig

	// Telemetry enables the internal/obs recorder: spans for every
	// pipeline stage, deterministic metrics, and the end-of-report
	// "== telemetry:" section. Off by default so fault-free reports stay
	// byte-identical to goldens produced before telemetry existed; when
	// on, the report gains the telemetry section but remains
	// byte-identical across worker counts.
	Telemetry bool
}

// FaultsConfig configures the deterministic fault-injection layer
// (internal/faults) wrapped around the simulated network.
type FaultsConfig struct {
	// Profile names a built-in fault mix: "off" (or empty), "mild",
	// "harsh", "flaky" or "regional". See BuildFaultProfile.
	Profile string
	// Seed drives fault schedules independently of the world seed, so
	// chaos tests sweep fault seeds without rebuilding populations.
	Seed int64
}

// Enabled reports whether fault injection is on.
func (f FaultsConfig) Enabled() bool { return f.Profile != "" && f.Profile != "off" }

// DefaultConfig is the full-study scale.
func DefaultConfig() Config {
	return Config{
		Seed:              20190501,
		GlobalNodes:       600,
		CensoredNodes:     300,
		ScanSpaceBits:     17, // 131,072 addresses
		PortOpenNotDoT:    1200,
		ScanRounds:        10,
		Workers:           16,
		PerfNodes:         120,
		PerfQueriesReused: 20,
		PerfQueriesFresh:  50,
		MuxInFlight:       8,
		TrafficScale:      1.0,
		CorpusNoise:       20000,
	}
}

// TestConfig is a miniature for unit tests.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.GlobalNodes = 80
	cfg.CensoredNodes = 40
	cfg.ScanSpaceBits = 13 // 8,192 addresses
	cfg.PortOpenNotDoT = 60
	cfg.ScanRounds = 4
	cfg.PerfNodes = 12
	cfg.PerfQueriesReused = 8
	cfg.PerfQueriesFresh = 8
	cfg.MuxInFlight = 4
	cfg.TrafficScale = 0.25
	cfg.CorpusNoise = 500
	return cfg
}

// ResolverScale shrinks the paper's per-country DoT resolver counts to fit
// the configured scan space. At the default 1/4 scale the population is
// ≈400 resolvers per scan versus the paper's 1.5K, preserving every ratio.
const ResolverScale = 4

// countryPlan is Table 2's per-country resolver population (Feb 1 and
// May 1, 2019 counts from the paper), plus a remainder bucket spread over
// other countries.
type countryPlan struct {
	CC       string
	Feb, May int
}

var resolverCountryPlan = []countryPlan{
	{"IE", 456, 951},
	{"CN", 257, 40},
	{"US", 100, 531},
	{"DE", 71, 86},
	{"FR", 59, 56},
	{"JP", 34, 27},
	{"NL", 30, 36},
	{"GB", 25, 21},
	{"BR", 22, 49},
	{"RU", 17, 40},
	// Long tail: the remaining ≈30% of resolvers across other countries.
	{"SE", 40, 44}, {"IT", 36, 38}, {"PL", 30, 32}, {"CA", 28, 30},
	{"AU", 26, 28}, {"SG", 24, 26}, {"KR", 22, 24}, {"ES", 20, 22},
	{"CH", 18, 20}, {"FI", 16, 18}, {"CZ", 16, 16}, {"RO", 14, 16},
	{"IN", 14, 14}, {"ZA", 12, 12}, {"TR", 12, 12}, {"AT", 10, 12},
	{"NO", 10, 10}, {"DK", 10, 10}, {"GR", 8, 8}, {"HU", 8, 8},
	{"TW", 8, 8}, {"HK", 8, 8}, {"TH", 6, 6}, {"MX", 6, 6},
	{"AR", 6, 6}, {"CL", 4, 4}, {"PT", 4, 4}, {"BE", 4, 4},
	{"UA", 4, 4}, {"IL", 4, 4},
}
