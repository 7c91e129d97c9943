package doh

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"testing"
	"testing/iotest"

	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
)

// h2FuzzLimit is the in-flight limit the fuzzed reader runs under: streams
// 1, 3, 5 and 7 are awaited, every other stream was never opened.
const h2FuzzLimit = 4

// readH2Replies runs the client's h2 reader over r until its first fatal
// error and renders every reply it took off the stream, then the error.
func readH2Replies(t *testing.T, r io.Reader) []string {
	f := newH2Reader(r, h2FuzzLimit)
	awaited := func(sid uint32) bool { return sid%2 == 1 && sid < 2*h2FuzzLimit }
	var out []string
	var buf []byte
	for {
		reply, b, err := f.ReadReply(buf, awaited)
		buf = b
		if len(f.streams) > h2FuzzLimit {
			t.Fatalf("%d streams hold reassembly state, limit %d", len(f.streams), h2FuzzLimit)
		}
		if err != nil {
			return append(out, "fatal: "+err.Error())
		}
		out = append(out, renderReply(reply))
	}
}

// renderReply prints a reply the way the fuzz targets compare them.
func renderReply(reply dnsclient.Reply) string {
	line := fmt.Sprintf("stream %d: %v", reply.Tag, reply.Err)
	if reply.Msg != nil {
		packed, err := reply.Msg.Pack()
		line += fmt.Sprintf(" msg %x %v", packed, err)
	}
	return line
}

// FuzzH2ReadReply feeds arbitrary server bytes to the client's h2 reader.
// It must not panic, must keep its reassembly state within the in-flight
// limit, and must take the same replies off the stream however the bytes
// are chunked: whole, one byte per read, or half of each read.
func FuzzH2ReadReply(f *testing.F) {
	status := func(s string) []byte { return dnswire.AppendHpackLiteral(nil, ":status", s) }
	f.Add(h2Reply(f, 1, "one.example.org"))
	f.Add(h2Frames(f, h2Reply(f, 3, "three.example.org"), h2Reply(f, 1, "one.example.org")))
	f.Add(h2Frames(f,
		h2Frame(f, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, 1, status("200")),
		h2Frame(f, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, 3, status("404")),
		h2Frame(f, dnswire.H2FrameData, dnswire.H2FlagEndStream, 3, []byte("not found")),
		h2Frame(f, dnswire.H2FrameData, dnswire.H2FlagEndStream, 1, []byte("not dns"))))
	f.Add(h2Frames(f,
		h2Frame(f, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, 9, status("200")),
		h2Frame(f, dnswire.H2FrameRSTStream, 0, 5, []byte{0, 0, 0, 8}),
		h2Frame(f, dnswire.H2FrameSettings, 0, 0, nil),
		h2Frame(f, dnswire.H2FrameGoAway, 0, 0, make([]byte, 8))))
	f.Add([]byte{0, 0, 4, 1, 5, 0, 0, 0, 7, 0x00, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		whole := readH2Replies(t, bytes.NewReader(data))
		if one := readH2Replies(t, iotest.OneByteReader(bytes.NewReader(data))); !slices.Equal(one, whole) {
			t.Errorf("one byte per read:\n%q\nwhole:\n%q", one, whole)
		}
		if half := readH2Replies(t, iotest.HalfReader(bytes.NewReader(data))); !slices.Equal(half, whole) {
			t.Errorf("half reads:\n%q\nwhole:\n%q", half, whole)
		}
	})
}

// readH1Replies runs the client's HTTP/1.1 reader over r until its first
// fatal error and renders every reply it took off the stream, then the
// error.
func readH1Replies(r io.Reader) []string {
	f := &h1Framing{br: bufio.NewReader(r)}
	var out []string
	var buf []byte
	for {
		reply, b, err := f.ReadReply(buf, nil)
		buf = b
		if err != nil {
			return append(out, "fatal: "+err.Error())
		}
		out = append(out, renderReply(reply))
	}
}

// FuzzH1ReadReply feeds arbitrary server bytes to the client's HTTP/1.1
// reader. It must not panic, must refuse oversized bodies before buffering
// them, and must take the same replies off the stream however the bytes
// are chunked: whole, one byte per read, or half of each read.
func FuzzH1ReadReply(f *testing.F) {
	msg := dnsReply(f, "one.example.org")
	head := "HTTP/1.1 200 OK\r\nContent-Type: " + ContentType + "\r\n"
	sized := head + "Content-Length: " + strconv.Itoa(len(msg)) + "\r\n\r\n" + string(msg)
	chunked := head + "Transfer-Encoding: chunked\r\n\r\n5\r\n" + string(msg[:5]) + "\r\n" +
		strconv.FormatInt(int64(len(msg)-5), 16) + "\r\n" + string(msg[5:]) + "\r\n0\r\n\r\n"
	notFound := "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 9\r\n\r\nnot found"
	f.Add([]byte(sized))
	f.Add([]byte(chunked))
	f.Add([]byte(notFound + sized + chunked))
	f.Add([]byte(head + "\r\n" + string(msg)))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 1073741824\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		whole := readH1Replies(bytes.NewReader(data))
		if one := readH1Replies(iotest.OneByteReader(bytes.NewReader(data))); !slices.Equal(one, whole) {
			t.Errorf("one byte per read:\n%q\nwhole:\n%q", one, whole)
		}
		if half := readH1Replies(iotest.HalfReader(bytes.NewReader(data))); !slices.Equal(half, whole) {
			t.Errorf("half reads:\n%q\nwhole:\n%q", half, whole)
		}
	})
}
