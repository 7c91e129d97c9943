package netflow

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

var boot = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func sampleRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Src:     clientA,
			Dst:     cfDoT,
			SrcPort: uint16(40000 + i),
			DstPort: 853,
			Proto:   ProtoTCP,
			Packets: uint64(3 + i),
			Bytes:   uint64(500 + i),
			Flags:   FlagSYN | FlagACK,
			First:   boot.Add(time.Duration(i) * time.Second),
			Last:    boot.Add(time.Duration(i)*time.Second + 200*time.Millisecond),
		}
	}
	return recs
}

func TestV5RoundTrip(t *testing.T) {
	recs := sampleRecords(7)
	datagrams, err := ExportV5(recs, boot, boot.Add(time.Hour), 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(datagrams) != 1 {
		t.Fatalf("datagrams = %d", len(datagrams))
	}
	rate, err := V5SampleRate(datagrams[0])
	if err != nil || rate != 3000 {
		t.Errorf("sample rate = %d, %v", rate, err)
	}
	got, err := AppendV5(nil, datagrams[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("records = %d", len(got))
	}
	for i, rec := range got {
		want := recs[i]
		if rec.Src != want.Src || rec.Dst != want.Dst ||
			rec.SrcPort != want.SrcPort || rec.DstPort != want.DstPort ||
			rec.Proto != want.Proto || rec.Flags != want.Flags ||
			rec.Packets != want.Packets || rec.Bytes != want.Bytes ||
			!rec.First.Equal(want.First) || !rec.Last.Equal(want.Last) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, rec, want)
		}
	}
}

func TestV5SplitsAt30Records(t *testing.T) {
	recs := sampleRecords(65)
	datagrams, err := ExportV5(recs, boot, boot.Add(time.Hour), 3000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(datagrams) != 3 { // 30 + 30 + 5
		t.Fatalf("datagrams = %d, want 3", len(datagrams))
	}
	// Decoding appends each datagram's records after the last one's, so
	// one slice collects the whole export in order.
	var got []Record
	for i, d := range datagrams {
		if cap(d) != len(d) {
			t.Errorf("datagram %d: capacity %d beyond its %d bytes, so appending to it would overwrite the next", i, cap(d), len(d))
		}
		if got, err = AppendV5(got, d); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 65 {
		t.Fatalf("total decoded = %d", len(got))
	}
	for i, rec := range got {
		if rec.SrcPort != recs[i].SrcPort || !rec.First.Equal(recs[i].First) {
			t.Errorf("record %d decoded as %+v, want %+v", i, rec, recs[i])
		}
	}
}

func TestV5RejectsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 10),
		make([]byte, v5HeaderLen), // version 0
		append(make([]byte, v5HeaderLen), 1, 2, 3), // bad length
	}
	// A valid header claiming 2 records but carrying bytes for 1.
	bad := make([]byte, v5HeaderLen+v5RecordLen)
	bad[1] = v5Version
	bad[3] = 2
	cases = append(cases, bad)
	for i, c := range cases {
		if _, err := AppendV5(nil, c); err == nil {
			t.Errorf("case %d: malformed datagram accepted", i)
		}
	}
}

func TestV5RejectsIPv6(t *testing.T) {
	rec := sampleRecords(1)[0]
	rec.Src = netip.MustParseAddr("2001:db8::1")
	if _, err := ExportV5([]Record{rec}, boot, boot, 1, 0); err == nil {
		t.Error("IPv6 flow exported in v5")
	}
}

func TestQuickV5RoundTrip(t *testing.T) {
	f := func(nRaw uint8, srcPort, dstPort uint16, pkts, bytes uint32, flags uint8) bool {
		n := int(nRaw%60) + 1
		recs := sampleRecords(n)
		for i := range recs {
			recs[i].SrcPort = srcPort
			recs[i].DstPort = dstPort
			recs[i].Packets = uint64(pkts)
			recs[i].Bytes = uint64(bytes)
			recs[i].Flags = flags
		}
		datagrams, err := ExportV5(recs, boot, boot.Add(time.Hour), 3000, 0)
		if err != nil {
			return false
		}
		total := 0
		for _, d := range datagrams {
			got, err := AppendV5(nil, d)
			if err != nil {
				return false
			}
			for _, rec := range got {
				if rec.SrcPort != srcPort || rec.DstPort != dstPort ||
					rec.Packets != uint64(pkts) || rec.Bytes != uint64(bytes) || rec.Flags != flags {
					return false
				}
			}
			total += len(got)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestV5UptimeWrapRecovery(t *testing.T) {
	// A flow observed 60+ days after boot: the uptime counter has wrapped
	// (2^32 ms ≈ 49.7 days), yet absolute times must survive the
	// roundtrip because collectors subtract with uint32 arithmetic.
	rec := sampleRecords(1)[0]
	rec.First = boot.AddDate(0, 0, 60)
	rec.Last = rec.First.Add(time.Second)
	exportAt := rec.Last.Add(time.Minute)
	datagrams, err := ExportV5([]Record{rec}, boot, exportAt, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendV5(nil, datagrams[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].First.Equal(rec.First) || !got[0].Last.Equal(rec.Last) {
		t.Errorf("wrapped timestamps: got %v..%v, want %v..%v",
			got[0].First, got[0].Last, rec.First, rec.Last)
	}
}
