package obs

import (
	"errors"
	"fmt"
	"sort"
)

// Merge folds src's metric families into r. Merge semantics per kind:
//
//   - counters: values add
//   - gauges: the destination keeps the maximum — the only associative,
//     commutative, idempotent fold, so high-water marks survive any merge
//     tree (point-in-time gauges should be Set after merging, not sharded)
//   - sketches: bucket-wise addition (Sketch.Merge)
//
// Every operation is associative and commutative, so folding N shard
// registries in any order or tree shape yields a byte-identical
// Snapshot. Families present in src but not in r are created with src's
// kind and volatility; families present in both must agree on both or
// Merge reports an error (and keeps going, merging what it can — partial
// telemetry beats none). Every sketch shares one bucket layout, so there
// is no layout to agree on. src must be quiescent for the merged values
// to be exact; r may be read, recorded into, and merged into
// concurrently. Nil receiver or source is a no-op.
func (r *Registry) Merge(src *Registry) error {
	if r == nil || src == nil || r == src {
		return nil
	}
	src.mu.Lock()
	fams := make([]*family, 0, len(src.fams))
	for _, f := range src.fams {
		fams = append(fams, f)
	}
	src.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var errs []error
	for _, sf := range fams {
		if err := r.mergeFamily(sf); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("obs: registry merge: %w", joinErrors(errs))
}

func (r *Registry) mergeFamily(sf *family) error {
	r.mu.Lock()
	df, ok := r.fams[sf.name]
	if !ok {
		df = &family{name: sf.name, kind: sf.kind, volatile: sf.volatile, insts: make(map[string]any)}
		r.fams[sf.name] = df
	}
	r.mu.Unlock()
	if df.kind != sf.kind {
		return fmt.Errorf("family %q: kind mismatch (%s vs %s)", sf.name, kindName(df.kind), kindName(sf.kind))
	}
	if df.volatile != sf.volatile {
		return fmt.Errorf("family %q: volatility mismatch", sf.name)
	}

	// Copy the source instances before touching the destination lock so the
	// two family mutexes are never held together.
	sf.mu.Lock()
	keys := make([]string, 0, len(sf.insts))
	for k := range sf.insts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	insts := make([]any, len(keys))
	for i, k := range keys {
		insts[i] = sf.insts[k]
	}
	sf.mu.Unlock()

	var errs []error
	for i, k := range keys {
		if err := df.mergeInst(k, insts[i]); err != nil {
			errs = append(errs, fmt.Errorf("family %q instance {%s}: %w", sf.name, k, err))
		}
	}
	return joinErrors(errs)
}

// mergeInst folds one source instance into the family, creating the
// destination instance on first merge.
func (f *family) mergeInst(label string, src any) error {
	f.mu.Lock()
	dst, ok := f.insts[label]
	if !ok {
		switch src.(type) {
		case *Counter:
			dst = &Counter{}
		case *Gauge:
			dst = &Gauge{}
		case *Sketch:
			dst = new(Sketch)
		default:
			f.mu.Unlock()
			return fmt.Errorf("unknown metric type %T", src)
		}
		f.insts[label] = dst
	}
	f.mu.Unlock()

	switch s := src.(type) {
	case *Counter:
		d, ok := dst.(*Counter)
		if !ok {
			return fmt.Errorf("kind mismatch (%T vs *obs.Counter)", dst)
		}
		d.Add(s.Value())
	case *Gauge:
		d, ok := dst.(*Gauge)
		if !ok {
			return fmt.Errorf("kind mismatch (%T vs *obs.Gauge)", dst)
		}
		d.Max(s.Value())
	case *Sketch:
		d, ok := dst.(*Sketch)
		if !ok {
			return fmt.Errorf("kind mismatch (%T vs *obs.Sketch)", dst)
		}
		d.Merge(s)
	}
	return nil
}

func kindName(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindSketch:
		return "sketch"
	}
	return "unknown"
}

// joinErrors collapses a slice into nil, the single error, or errors.Join.
func joinErrors(errs []error) error {
	switch len(errs) {
	case 0:
		return nil
	case 1:
		return errs[0]
	}
	return errors.Join(errs...)
}
