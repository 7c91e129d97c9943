package main

import (
	"reflect"
	"strings"
	"testing"
)

const goldenTrace = `{"path":"study","virt_us":0}
{"path":"study/exp:fig9","virt_us":0}
{"path":"study/exp:fig9/perf-sampling","virt_us":0,"attrs":{"nodes":"4"}}
{"path":"study/exp:fig9/perf-sampling/node:a","virt_us":5}
{"path":"study/exp:fig9/perf-sampling/node:a/query","virt_us":1}
{"path":"study/exp:fig9/perf-sampling/node:a/query","virt_us":1}
{"path":"study/exp:fig9/perf-sampling/node:b","virt_us":5}
{"path":"study/exp:fig9/perf-sampling/node:c","virt_us":5}
{"path":"study/exp:fig10","virt_us":7}
`

const actualTrace = `{"path":"study","virt_us":0}
{"path":"study/exp:fig9","virt_us":0}
{"path":"study/exp:fig9/perf-sampling","virt_us":0,"attrs":{"nodes":"2"}}
{"path":"study/exp:fig9/perf-sampling/node:a","virt_us":5}
{"path":"study/exp:fig9/perf-sampling/node:a/query","virt_us":1}
{"path":"study/exp:fig10","virt_us":8}
{"path":"study/exp:table8","virt_us":0}
`

// TestFamilyDeltas counts by multiset difference of whole lines: the
// repeated query span is one record short, not absent, and a record whose
// attributes changed counts once on each side.
func TestFamilyDeltas(t *testing.T) {
	got := familyDeltas([]byte(goldenTrace), []byte(actualTrace))
	want := []familyDelta{
		{family: "study/exp:fig10", onlyGolden: 1, onlyActual: 1},
		{family: "study/exp:fig9/perf-sampling", onlyGolden: 4, onlyActual: 1},
		{family: "study/exp:table8", onlyGolden: 0, onlyActual: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("familyDeltas = %+v, want %+v", got, want)
	}
	if d := familyDeltas([]byte(goldenTrace), []byte(goldenTrace)); len(d) != 0 {
		t.Errorf("identical traces: familyDeltas = %+v, want none", d)
	}

	var b strings.Builder
	writeFamilyDeltas(&b, got)
	wantText := ` golden  actual  span family
      1       1  study/exp:fig10
      4       1  study/exp:fig9/perf-sampling
      0       1  study/exp:table8
`
	if b.String() != wantText {
		t.Errorf("writeFamilyDeltas printed\n%s\nwant\n%s", b.String(), wantText)
	}
}
