package obs

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one node of the trace tree: a named stage of the pipeline with a
// virtual-time cost, ordered attributes, and fault/retry events. Spans are
// written once by the task that owns them (plus FlowEvent annotations from
// the fault injector, which the Sources gate keeps single-writer too) and
// exported after the run, so a mutex per span is plenty.
type Span struct {
	rec  *Recorder
	name string

	// key orders concurrent siblings deterministically: fan-out callers
	// pass their task index via Key(i); serial children keep -1 and sort
	// by seq (per-parent creation order) instead.
	key int
	seq int

	mu       sync.Mutex
	children []*Span
	nextSeq  int
	attrs    []attr
	events   []string
	virtual  atomic.Int64 // virtual-clock cost in nanoseconds
	errMsg   string
}

type attr struct{ k, v string }

// SpanOption configures a span at Start time.
type SpanOption func(*Span)

// Key sets the deterministic sibling sort key. Every concurrent sibling
// (spans started from different runner tasks under one parent) must carry
// its task index here, or export order would depend on scheduling.
func Key(i int) SpanOption { return func(s *Span) { s.key = i } }

// Start opens a child span. Nil-safe: a nil receiver returns nil.
func (s *Span) Start(name string, opts ...SpanOption) *Span {
	if s == nil {
		return nil
	}
	child := &Span{rec: s.rec, name: sanitizeName(name), key: -1}
	s.mu.Lock()
	child.seq = s.nextSeq
	s.nextSeq++
	s.children = append(s.children, child)
	s.mu.Unlock()
	for _, opt := range opts {
		opt(child)
	}
	return child
}

// SetAttr sets (or overwrites) an attribute. First-set order is kept for
// rendering; JSONL export sorts by key regardless.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].k == k {
			s.attrs[i].v = v
			return
		}
	}
	s.attrs = append(s.attrs, attr{k, v})
}

// SetInt sets an integer attribute. On a nil span it formats nothing.
func (s *Span) SetInt(k string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(k, strconv.FormatInt(v, 10))
}

// Event appends a point-in-trace annotation (e.g. "fault:syn-drop").
func (s *Span) Event(e string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Charge adds virtual duration d to the span's cost.
func (s *Span) Charge(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.virtual.Add(int64(d))
}

// Fail records err on the span. A nil err is ignored.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// Virtual returns the virtual-clock cost charged so far.
func (s *Span) Virtual() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.virtual.Load())
}

// Name returns the span's sanitized name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// sortedChildren returns a copy of the children slice in deterministic
// export order: by explicit key, then per-parent creation order.
func (s *Span) sortedChildren() []*Span {
	s.mu.Lock()
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()
	sort.SliceStable(kids, func(i, j int) bool {
		if kids[i].key != kids[j].key {
			return kids[i].key < kids[j].key
		}
		return kids[i].seq < kids[j].seq
	})
	return kids
}

func (s *Span) descendants() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()
	n := len(kids)
	for _, c := range kids {
		n += c.descendants()
	}
	return n
}

// sanitizeName keeps span names path- and line-safe: "/" joins paths and
// "\n" delimits JSONL records, so both are replaced.
func sanitizeName(name string) string {
	if name == "" {
		return "span"
	}
	return strings.Map(func(r rune) rune {
		if r == '/' || r == '\n' || r == '\r' {
			return '_'
		}
		return r
	}, name)
}
