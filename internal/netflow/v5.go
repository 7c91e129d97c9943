package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"time"
)

// NetFlow v5 wire format (the export format of the paper's backbone
// routers): a 24-byte header followed by up to 30 fixed 48-byte records.
// Only IPv4 is expressible — one reason the paper's dataset is IPv4-only.
const (
	v5Version        = 5
	v5HeaderLen      = 24
	v5RecordLen      = 48
	v5MaxPerDatagram = 30
)

// ErrBadDatagram is returned for malformed v5 export datagrams.
var ErrBadDatagram = errors.New("netflow: malformed v5 datagram")

// ExportV5 serializes records into NetFlow v5 export datagrams. Flow
// timestamps are encoded, as on real routers, as a uint32 of uptime
// milliseconds — a counter that wraps every ~49.7 days. Collectors recover
// absolute times from the header's (SysUptime, unix seconds) pair, which
// only works when flows are exported within one wrap of their observation;
// exportTime must therefore be within ~49 days of every record (real
// exporters flush within seconds). sysBoot anchors the uptime counter.
func ExportV5(records []Record, sysBoot, exportTime time.Time, sampleRate int, seqStart uint32) ([][]byte, error) {
	n := (len(records) + v5MaxPerDatagram - 1) / v5MaxPerDatagram
	out := make([][]byte, 0, n)
	// Every datagram is carved from one allocation, capacity-limited so an
	// append to one cannot overwrite the next.
	all := make([]byte, n*v5HeaderLen+len(records)*v5RecordLen)
	seq := seqStart
	for off := 0; off < len(records); off += v5MaxPerDatagram {
		end := off + v5MaxPerDatagram
		if end > len(records) {
			end = len(records)
		}
		chunk := records[off:end]
		size := v5HeaderLen + len(chunk)*v5RecordLen
		buf := all[:size:size]
		all = all[size:]

		binary.BigEndian.PutUint16(buf[0:], v5Version)
		binary.BigEndian.PutUint16(buf[2:], uint16(len(chunk)))
		headerUptime := uint32(exportTime.Sub(sysBoot).Milliseconds()) // wraps, as on real routers
		binary.BigEndian.PutUint32(buf[4:], headerUptime)
		binary.BigEndian.PutUint32(buf[8:], uint32(exportTime.Unix()))        // unix secs
		binary.BigEndian.PutUint32(buf[12:], uint32(exportTime.Nanosecond())) // unix nsecs
		binary.BigEndian.PutUint32(buf[16:], seq)
		// engine type/id zero; sampling: mode 01 (packet interval) in the
		// top 2 bits, interval in the low 14.
		binary.BigEndian.PutUint16(buf[22:], uint16(1)<<14|uint16(sampleRate)&0x3FFF)

		for i, rec := range chunk {
			if !rec.Src.Is4() || !rec.Dst.Is4() {
				return nil, fmt.Errorf("netflow: v5 cannot express non-IPv4 flow %v->%v", rec.Src, rec.Dst)
			}
			p := buf[v5HeaderLen+i*v5RecordLen:]
			src, dst := rec.Src.As4(), rec.Dst.As4()
			copy(p[0:4], src[:])
			copy(p[4:8], dst[:])
			// nexthop, input/output ifIndex left zero.
			binary.BigEndian.PutUint32(p[16:], uint32(rec.Packets))
			binary.BigEndian.PutUint32(p[20:], uint32(rec.Bytes))
			binary.BigEndian.PutUint32(p[24:], uint32(rec.First.Sub(sysBoot).Milliseconds()))
			binary.BigEndian.PutUint32(p[28:], uint32(rec.Last.Sub(sysBoot).Milliseconds()))
			binary.BigEndian.PutUint16(p[32:], rec.SrcPort)
			binary.BigEndian.PutUint16(p[34:], rec.DstPort)
			p[37] = rec.Flags
			p[38] = rec.Proto
			// tos, AS numbers, masks left zero.
		}
		out = append(out, buf)
		seq += uint32(len(chunk))
	}
	return out, nil
}

// AppendV5 decodes one export datagram and appends its records to dst,
// recovering absolute timestamps the way real collectors do: the header
// pairs a (wrapping) SysUptime with the export wall-clock time, and each
// record's uptime is subtracted with uint32 wraparound arithmetic. Flows
// older than one uptime wrap (~49.7 days) at export time cannot be
// represented — an inherent NetFlow v5 limit. For a malformed datagram it
// returns dst unchanged and an error wrapping ErrBadDatagram.
func AppendV5(dst []Record, datagram []byte) ([]Record, error) {
	if len(datagram) < v5HeaderLen {
		return dst, ErrBadDatagram
	}
	if binary.BigEndian.Uint16(datagram) != v5Version {
		return dst, fmt.Errorf("%w: version %d", ErrBadDatagram, binary.BigEndian.Uint16(datagram))
	}
	count := int(binary.BigEndian.Uint16(datagram[2:]))
	if count > v5MaxPerDatagram || len(datagram) != v5HeaderLen+count*v5RecordLen {
		return dst, fmt.Errorf("%w: count %d for %d bytes", ErrBadDatagram, count, len(datagram))
	}
	headerUptime := binary.BigEndian.Uint32(datagram[4:])
	exportTime := time.Unix(int64(binary.BigEndian.Uint32(datagram[8:])), 0).UTC()
	abs := func(recUptime uint32) time.Time {
		// uint32 subtraction handles wraps between record and header.
		age := headerUptime - recUptime
		return exportTime.Add(-time.Duration(age) * time.Millisecond)
	}
	dst = slices.Grow(dst, count)
	for i := 0; i < count; i++ {
		p := datagram[v5HeaderLen+i*v5RecordLen:]
		dst = append(dst, Record{
			Src:     netip.AddrFrom4([4]byte(p[0:4])),
			Dst:     netip.AddrFrom4([4]byte(p[4:8])),
			Packets: uint64(binary.BigEndian.Uint32(p[16:])),
			Bytes:   uint64(binary.BigEndian.Uint32(p[20:])),
			First:   abs(binary.BigEndian.Uint32(p[24:])),
			Last:    abs(binary.BigEndian.Uint32(p[28:])),
			SrcPort: binary.BigEndian.Uint16(p[32:]),
			DstPort: binary.BigEndian.Uint16(p[34:]),
			Flags:   p[37],
			Proto:   p[38],
		})
	}
	return dst, nil
}

// V5SampleRate extracts the sampling interval from an export header.
func V5SampleRate(datagram []byte) (int, error) {
	if len(datagram) < v5HeaderLen {
		return 0, ErrBadDatagram
	}
	return int(binary.BigEndian.Uint16(datagram[22:]) & 0x3FFF), nil
}
