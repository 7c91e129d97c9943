package obs

import (
	"sync/atomic"
)

// Phase tracks done/total task counts for one named stage of a campaign —
// the event family behind the /progress endpoint. Totals and done counts
// are deterministic (they count tasks, not time), but a phase's *current*
// reading is a live view: scrape it whenever, the final values depend only
// on (seed, config). All methods are nil-safe.
type Phase struct {
	name  string
	done  atomic.Int64
	total atomic.Int64
}

// AddTotal grows the phase's expected task count; the runner pool calls
// it once per launch, so a pool reused across calls accumulates.
func (p *Phase) AddTotal(n int64) {
	if p == nil {
		return
	}
	p.total.Add(n)
}

// Done marks n tasks complete.
func (p *Phase) Done(n int64) {
	if p == nil {
		return
	}
	p.done.Add(n)
}

// PhaseStatus is one row of a progress snapshot.
type PhaseStatus struct {
	Name  string `json:"name"`
	Done  int64  `json:"done"`
	Total int64  `json:"total"`
}

// Phase returns the recorder's phase named name, creating it on first
// use. Phases report in registration order, which is deterministic
// because pools launch from the serial experiment loop.
func (r *Recorder) Phase(name string) *Phase {
	if r == nil {
		return nil
	}
	r.phaseMu.Lock()
	defer r.phaseMu.Unlock()
	if r.phases == nil {
		r.phases = make(map[string]*Phase)
	}
	p, ok := r.phases[name]
	if !ok {
		p = &Phase{name: name}
		r.phases[name] = p
		r.phaseOrder = append(r.phaseOrder, name)
	}
	return p
}

// Progress returns the current status of every registered phase, in
// registration order. Safe to call while phases are being updated.
func (r *Recorder) Progress() []PhaseStatus {
	if r == nil {
		return nil
	}
	r.phaseMu.Lock()
	order := make([]string, len(r.phaseOrder))
	copy(order, r.phaseOrder)
	phases := make([]*Phase, len(order))
	for i, name := range order {
		phases[i] = r.phases[name]
	}
	r.phaseMu.Unlock()
	out := make([]PhaseStatus, len(order))
	for i, p := range phases {
		out[i] = PhaseStatus{Name: p.name, Done: p.done.Load(), Total: p.total.Load()}
	}
	return out
}
