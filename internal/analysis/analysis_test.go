package analysis

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	if got := Mean(xs); got != 22 {
		t.Errorf("Mean = %v", got)
	}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %v", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even Median = %v", got)
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty input not zero")
	}
}

func TestPercentileBounds(t *testing.T) {
	xs := []float64{5, 1, 9}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 9 {
		t.Error("percentile bounds wrong")
	}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("P50 = %v", got)
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickMedianWithinRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = rng.Float64() * 1000
		}
		m := Median(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		if m < lo || m > hi {
			t.Fatalf("median %v outside [%v, %v]", m, lo, hi)
		}
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{1, 1, 2, 4})
	want := []CDFPoint{{1, 0.5}, {2, 0.75}, {4, 1}}
	if !reflect.DeepEqual(pts, want) {
		t.Errorf("CDF = %v, want %v", pts, want)
	}
	if CDF(nil) != nil {
		t.Error("CDF(nil) != nil")
	}
}

func TestQuickCDFProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		pts := CDF(xs)
		if len(xs) == 0 {
			return pts == nil
		}
		// F non-decreasing, ends at 1, X strictly increasing.
		if pts[len(pts)-1].F != 1 {
			return false
		}
		if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].F < pts[i-1].F {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCounterTopN(t *testing.T) {
	c := Counter{}
	c.Add("IE", 456)
	c.Add("CN", 257)
	c.Inc("US")
	top := c.TopN(2)
	if top[0].K != "IE" || top[1].K != "CN" {
		t.Errorf("top = %v", top)
	}
	if c.Total() != 456+257+1 {
		t.Errorf("total = %d", c.Total())
	}
	if got := c.TopN(10); len(got) != 3 {
		t.Errorf("TopN overflow = %v", got)
	}
}

func TestCounterTopNDeterministicTies(t *testing.T) {
	c := Counter{"b": 5, "a": 5, "c": 5}
	top := c.TopN(3)
	if top[0].K != "a" || top[1].K != "b" || top[2].K != "c" {
		t.Errorf("tie order = %v", top)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "Table 2: Top countries", Columns: []string{"CC", "Feb 1", "May 1", "Growth"}}
	tbl.AddRow("IE", 456, 951, "+108%")
	tbl.AddRow("CN", 257, 40, "-84%")
	out := tbl.Render()
	for _, want := range []string{"Table 2", "CC", "IE", "+108%", "-84%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Alignment: all data lines equal width of header line.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count = %d", len(lines))
	}
}

func TestFigureRender(t *testing.T) {
	fig := &Figure{Title: "Fig 11", XLabel: "month", YLabel: "flows"}
	fig.AddPoint("cloudflare", "2018-07", 4674)
	fig.AddPoint("cloudflare", "2018-12", 7318)
	fig.AddPoint("quad9", "2018-07", 900)
	out := fig.Render()
	for _, want := range []string{"Fig 11", "[cloudflare]", "2018-12", "[quad9]"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if len(fig.Series) != 2 || len(fig.Series[0].Points) != 2 {
		t.Errorf("series structure = %+v", fig.Series)
	}
}

func TestGrowthPercent(t *testing.T) {
	if got := GrowthPercent(4674, 7318); math.Abs(got-56.57) > 0.1 {
		t.Errorf("growth = %v, want ≈56.6 (the paper's 56%%)", got)
	}
	if GrowthPercent(0, 5) != 0 {
		t.Error("zero base not handled")
	}
	if FormatGrowth(-84.4) != "-84%" || FormatGrowth(108) != "+108%" {
		t.Errorf("FormatGrowth = %q / %q", FormatGrowth(-84.4), FormatGrowth(108))
	}
}
