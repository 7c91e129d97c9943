package netflow

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"
)

// FuzzAppendV5 feeds arbitrary bytes to the v5 decoder, which the traffic
// stage runs on every datagram it exports. The decoder must not panic, must
// accept a datagram exactly when its version is 5, its count is at most 30
// and its length is 24 + 48·count, and re-exporting what it accepts under
// the datagram's own header clock, sample rate and sequence number must
// decode back to the same records. It must also append: decoded onto a
// non-empty prefix, with or without spare capacity, an accepted datagram
// leaves the prefix as it was followed by exactly what decoding onto nil
// gives, and a rejected one leaves the prefix's length unchanged.
func FuzzAppendV5(f *testing.F) {
	var one, full []byte
	for _, n := range []int{1, 7, 30} {
		datagrams, err := ExportV5(sampleRecords(n), boot, boot.Add(time.Hour), 3000, uint32(n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(datagrams[0])
		switch n {
		case 1:
			one = datagrams[0]
		case v5MaxPerDatagram:
			full = datagrams[0]
		}
	}
	overfull := append(slices.Clone(full), make([]byte, v5RecordLen)...)
	binary.BigEndian.PutUint16(overfull[2:], v5MaxPerDatagram+1)
	f.Add(overfull) // a count over 30 with the length it implies
	headerOnly := binary.BigEndian.AppendUint16(nil, v5Version)
	f.Add(append(headerOnly, make([]byte, v5HeaderLen-2)...))
	wrongVersion := slices.Clone(one)
	binary.BigEndian.PutUint16(wrongVersion, 9)
	f.Add(wrongVersion)
	f.Add(one[:len(one)-1]) // a short record

	prefix := sampleRecords(3)
	f.Fuzz(func(t *testing.T, datagram []byte) {
		recs, err := AppendV5(nil, datagram)
		wellFormed := false
		if len(datagram) >= v5HeaderLen {
			count := int(binary.BigEndian.Uint16(datagram[2:]))
			wellFormed = binary.BigEndian.Uint16(datagram) == v5Version &&
				count <= v5MaxPerDatagram && len(datagram) == v5HeaderLen+v5RecordLen*count
		}
		if (err == nil) != wellFormed {
			t.Fatalf("AppendV5 of a datagram that is well formed (%v) returned error %v", wellFormed, err)
		}

		// The same datagram appended onto the prefix: once with no spare
		// capacity, so accepting it must grow the slice, and once with
		// room for a full datagram, so it appends in place.
		roomy := append(make([]Record, 0, len(prefix)+v5MaxPerDatagram), prefix...)
		for _, dst := range [][]Record{slices.Clip(slices.Clone(prefix)), roomy} {
			out, appendErr := AppendV5(dst, datagram)
			if (appendErr == nil) != (err == nil) {
				t.Fatalf("AppendV5 onto a prefix returned error %v, onto nil %v", appendErr, err)
			}
			if !slices.Equal(out[:min(len(out), len(prefix))], prefix) {
				t.Fatal("AppendV5 changed the records it appends to")
			}
			if err != nil {
				if len(out) != len(prefix) {
					t.Fatalf("rejected datagram changed the length from %d to %d", len(prefix), len(out))
				}
				continue
			}
			if !slices.Equal(out[len(prefix):], recs) {
				t.Fatalf("appended records differ from a decode onto nil:\n got %+v\nwant %+v", out[len(prefix):], recs)
			}
		}
		if err != nil {
			return
		}

		// AppendV5 reads the header's export time to the second and ages
		// each record from the header's uptime.
		export := time.Unix(int64(binary.BigEndian.Uint32(datagram[8:])), 0).UTC()
		sysBoot := export.Add(-time.Duration(binary.BigEndian.Uint32(datagram[4:])) * time.Millisecond)
		rate, err := V5SampleRate(datagram)
		if err != nil {
			t.Fatalf("V5SampleRate of an accepted datagram: %v", err)
		}
		again, err := ExportV5(recs, sysBoot, export, rate, binary.BigEndian.Uint32(datagram[16:]))
		if err != nil {
			t.Fatalf("re-exporting %d accepted records: %v", len(recs), err)
		}
		var back []Record
		for _, d := range again {
			if back, err = AppendV5(back, d); err != nil {
				t.Fatalf("decoding a re-exported datagram: %v", err)
			}
		}
		// Both sides come from AppendV5, so == on their times is exact.
		if !slices.Equal(back, recs) {
			t.Fatalf("re-export does not round-trip:\n got %+v\nwant %+v", back, recs)
		}
	})
}
