package resolver

import "time"

// RetryPolicy is a Transport's attempt budget. The zero value means a
// single attempt (no retries).
type RetryPolicy struct {
	// Attempts is the total attempt budget per Exchange, including the
	// first (values < 1 mean 1).
	Attempts int
	// Backoff is the virtual-clock delay charged before the first retry,
	// doubling per subsequent retry (exponential backoff). It is latency
	// accounting only — nothing sleeps in wall time.
	Backoff time.Duration
}

// backoffFor returns the virtual delay charged before the given attempt
// (attempt 2 waits Backoff, attempt 3 waits 2*Backoff, ...).
func (p RetryPolicy) backoffFor(attempt int) time.Duration {
	if p.Backoff <= 0 || attempt < 2 {
		return 0
	}
	return p.Backoff << (attempt - 2)
}

// WithRetry sets the Transport attempt budget and virtual backoff base.
func WithRetry(p RetryPolicy) Option { return func(o *Options) { o.Retry = p } }

// RetryStats counts attempt-level outcomes across every Exchange a
// Transport (or a merged set of Transports) performed.
type RetryStats struct {
	// Attempts is the total number of attempts, including first tries.
	Attempts int
	// Retries is the number of attempts beyond the first of an Exchange.
	Retries int
	// Recovered counts Exchanges that failed at least once and then
	// succeeded within the budget.
	Recovered int
	// HardFailures counts Exchanges that exhausted the budget.
	HardFailures int
}

// Plus returns the element-wise sum; campaigns merge per-node stats with it.
func (s RetryStats) Plus(o RetryStats) RetryStats {
	return RetryStats{
		Attempts:     s.Attempts + o.Attempts,
		Retries:      s.Retries + o.Retries,
		Recovered:    s.Recovered + o.Recovered,
		HardFailures: s.HardFailures + o.HardFailures,
	}
}
