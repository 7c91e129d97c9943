// Package analysis provides the statistics and presentation helpers the
// study's experiments share: medians and percentiles over latency samples,
// CDFs (Fig. 4), grouped counters, and plain-text renderings of the paper's
// tables and figure series.
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs (0 for empty input). Even-length inputs
// average the two middle values.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64
	// F is the fraction of samples <= X.
	F float64
}

// CDF computes the empirical CDF of xs.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var pts []CDFPoint
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Collapse runs of equal values to their last index.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		pts = append(pts, CDFPoint{X: sorted[i], F: float64(i+1) / n})
	}
	return pts
}

// Counter counts string-keyed events.
type Counter map[string]int

// Add increments key by n.
func (c Counter) Add(key string, n int) { c[key] += n }

// Inc increments key by one.
func (c Counter) Inc(key string) { c[key]++ }

// Total sums all counts.
func (c Counter) Total() int {
	t := 0
	for _, n := range c {
		t += n
	}
	return t
}

// TopN returns the n largest entries as (key, count) pairs, ties broken by
// key for determinism.
func (c Counter) TopN(n int) []KV {
	kvs := make([]KV, 0, len(c))
	for k, v := range c {
		kvs = append(kvs, KV{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].V != kvs[j].V {
			return kvs[i].V > kvs[j].V
		}
		return kvs[i].K < kvs[j].K
	})
	if n > len(kvs) {
		n = len(kvs)
	}
	return kvs[:n]
}

// KV is a key with a count.
type KV struct {
	K string
	V int
}

// Table is a renderable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row, stringifying each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the table as aligned plain text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a renderable figure series (one line of a plot).
type Series struct {
	Name   string
	Points []SeriesPoint
}

// SeriesPoint is one (x, y) sample with a string x (months, scan dates).
type SeriesPoint struct {
	X string
	Y float64
}

// Figure is a renderable paper figure: one or more series.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// AddPoint appends a point to the named series, creating it if necessary.
func (f *Figure) AddPoint(series, x string, y float64) {
	for i := range f.Series {
		if f.Series[i].Name == series {
			f.Series[i].Points = append(f.Series[i].Points, SeriesPoint{x, y})
			return
		}
	}
	f.Series = append(f.Series, Series{Name: series, Points: []SeriesPoint{{x, y}}})
}

// Render returns the figure's data as aligned text, one block per series.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	if f.XLabel != "" || f.YLabel != "" {
		fmt.Fprintf(&b, "x: %s, y: %s\n", f.XLabel, f.YLabel)
	}
	for _, s := range f.Series {
		fmt.Fprintf(&b, "[%s]\n", s.Name)
		for _, p := range s.Points {
			if p.Y == math.Trunc(p.Y) && math.Abs(p.Y) < 1e15 {
				fmt.Fprintf(&b, "  %-16s %d\n", p.X, int64(p.Y))
			} else {
				fmt.Fprintf(&b, "  %-16s %.4g\n", p.X, p.Y)
			}
		}
	}
	return b.String()
}

// GrowthPercent returns the percentage change from a to b, as the paper
// reports it ("+108%", "-84%").
func GrowthPercent(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}

// FormatGrowth renders a growth percentage the way Table 2 does.
func FormatGrowth(pct float64) string {
	return fmt.Sprintf("%+.0f%%", pct)
}
