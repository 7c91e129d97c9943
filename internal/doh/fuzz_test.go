package doh

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strconv"
	"testing"
	"testing/iotest"
	"time"

	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
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

// serverLoop is one of the server's per-connection loops, serveH1 or
// serveH2.
type serverLoop func(*Server, *netsim.Conn, netip.Addr, io.ReadWriter, map[string]bool)

// fuzzStream is the server's side of a fuzzed session: reads come from the
// input, and each write records how much of the input the loop had read.
type fuzzStream struct {
	r      io.Reader
	read   int
	out    bytes.Buffer
	readAt []int
}

func (s *fuzzStream) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.read += n
	return n, err
}

func (s *fuzzStream) Write(p []byte) (int, error) {
	s.readAt = append(s.readAt, s.read)
	return s.out.Write(p)
}

// serveFuzzed runs loop over r as the client's bytes until it returns. The
// server end of a netsim pair stands in for the connection: it carries the
// clock that answers charge.
func serveFuzzed(loop serverLoop, r io.Reader) *fuzzStream {
	z := dnsserver.NewZone("measure.example.org")
	z.WildcardA = answerIP
	srv := &Server{Handler: z, JSONAPI: true}
	_, conn := netsim.Pair(netsim.Addr{IP: clientIP, Port: 40000}, netsim.Addr{IP: dohIP, Port: Port}, time.Millisecond, nil, 0)
	s := &fuzzStream{r: r}
	loop(srv, conn, clientIP, s, srv.paths())
	return s
}

// fuzzServer feeds data to loop whole, one byte per read and half of each
// read. Each run must return once the input runs out and pass bounded; all
// must write the same bytes, whatever their write boundaries.
func fuzzServer(t *testing.T, loop serverLoop, data []byte, bounded func(*testing.T, *fuzzStream)) {
	whole := serveFuzzed(loop, bytes.NewReader(data))
	bounded(t, whole)
	for _, short := range []struct {
		name string
		r    io.Reader
	}{
		{"one byte per read", iotest.OneByteReader(bytes.NewReader(data))},
		{"half reads", iotest.HalfReader(bytes.NewReader(data))},
	} {
		s := serveFuzzed(loop, short.r)
		bounded(t, s)
		if !bytes.Equal(s.out.Bytes(), whole.out.Bytes()) {
			t.Errorf("%s:\n%q\nwhole:\n%q", short.name, s.out.Bytes(), whole.out.Bytes())
		}
	}
}

// fuzzBinding is a client binding to the fixture template, for seeds.
func fuzzBinding(m Method) binding {
	return binding{method: m, template: Template{Host: "dns.provider.example", Path: DefaultPath}, pbuf: new([]byte), qbuf: new([]byte)}
}

// clientQuery is what the client's framing f sends for name, tagged tag.
func clientQuery(tb testing.TB, f dnsclient.Framing, tag uint32, name string) []byte {
	q, err := f.AppendQuery(nil, tag, name, dnswire.TypeA)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// FuzzServeH1 feeds arbitrary client bytes to the server's HTTP/1.1 loop.
// Besides fuzzServer's checks, the loop must read at most one request's
// bounds, maxHead + maxBody octets, between two responses.
func FuzzServeH1(f *testing.F) {
	get := clientQuery(f, &h1Framing{binding: fuzzBinding(GET)}, 0, "one.measure.example.org")
	post := clientQuery(f, &h1Framing{binding: fuzzBinding(POST)}, 0, "two.measure.example.org")
	host := " HTTP/1.1\r\nHost: dns.provider.example\r\n"
	f.Add(get)
	f.Add(post)
	f.Add([]byte("GET " + JSONPath + "?name=three.measure.example.org&type=AAAA" + host + "\r\n"))
	f.Add([]byte("GET /missing" + host + "\r\n"))
	f.Add([]byte("GET " + DefaultPath + "?dns=!!!not-base64!!!" + host + "\r\n"))
	f.Add([]byte("POST " + DefaultPath + host + "Content-Type: text/plain\r\nContent-Length: 1\r\n\r\nx"))
	f.Add(get[:len(get)/2])
	f.Add(slices.Concat(get, post, []byte("GET /"+host+"Connection: close\r\n\r\n"), get))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzServer(t, (*Server).serveH1, data, func(t *testing.T, s *fuzzStream) {
			last := 0
			for _, at := range append(s.readAt, s.read) {
				if at-last > maxHead+maxBody {
					t.Fatalf("loop read %d octets between two responses", at-last)
				}
				last = at
			}
		})
	})
}

// FuzzServeH2 feeds arbitrary client bytes, after the preface, to the
// server's HTTP/2 loop. Besides fuzzServer's checks, the loop must stop
// reading within one buffer of the frame that breaks a bound: one POST
// stream past maxStreams, or a body past maxBody.
func FuzzServeH2(f *testing.F) {
	hello := h2Frames(f, []byte(dnswire.H2ClientPreface), h2Frame(f, dnswire.H2FrameSettings, 0, 0, nil))
	headers := func(sid uint32, flags byte, path string, fields ...string) []byte {
		block := dnswire.AppendHpackLiteral(nil, ":method", fields[0])
		block = dnswire.AppendHpackLiteral(block, ":scheme", "https")
		block = dnswire.AppendHpackLiteral(block, ":path", path)
		for i := 1; i+1 < len(fields); i += 2 {
			block = dnswire.AppendHpackLiteral(block, fields[i], fields[i+1])
		}
		return h2Frame(f, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders|flags, sid, block)
	}
	get := clientQuery(f, &h2Framing{binding: fuzzBinding(GET)}, 1, "one.measure.example.org")
	post := clientQuery(f, &h2Framing{binding: fuzzBinding(POST)}, 3, "two.measure.example.org")
	f.Add(h2Frames(f, hello, get))
	f.Add(h2Frames(f, hello, post))
	f.Add(h2Frames(f, hello, headers(5, dnswire.H2FlagEndStream, JSONPath+"?name=three.measure.example.org", "GET")))
	f.Add(h2Frames(f, hello, headers(7, dnswire.H2FlagEndStream, "/missing", "GET")))
	f.Add(h2Frames(f, hello, headers(9, dnswire.H2FlagEndStream, DefaultPath+"?dns=!!!not-base64!!!", "GET")))
	f.Add(h2Frames(f, hello, headers(11, 0, DefaultPath, "POST", "content-type", "text/plain"),
		h2Frame(f, dnswire.H2FrameData, dnswire.H2FlagEndStream, 11, []byte("x"))))
	f.Add(h2Frames(f, hello, get, post[:len(post)-3]))
	f.Add(h2Frames(f, hello, post, get, h2Frame(f, dnswire.H2FrameRSTStream, 0, 3, []byte{0, 0, 0, 8}),
		h2Frame(f, dnswire.H2FramePing, 0, 0, make([]byte, 8)), h2Frame(f, dnswire.H2FrameGoAway, 0, 0, make([]byte, 8))))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzServer(t, (*Server).serveH2, data, func(t *testing.T, s *fuzzStream) {
			if end, broke := h2BoundBroken(data); broke && s.read > end+4096 {
				t.Fatalf("loop read %d octets, %d past the frame that broke a bound", s.read, s.read-end)
			}
		})
	})
}

// h2BoundBroken replays the client frames in data as the server loop
// counts them and reports where the first frame that breaks a bound ends:
// one POST stream past maxStreams, a body past maxBody, or DATA on a
// stream with no open POST.
func h2BoundBroken(data []byte) (end int, broke bool) {
	rest, ok := bytes.CutPrefix(data, []byte(dnswire.H2ClientPreface))
	if !ok {
		return 0, false
	}
	r := bytes.NewReader(rest)
	posts := map[uint32]int{} // open POST streams: body octets so far
	for {
		f, payload, err := dnswire.ReadH2FrameAppend(r, nil)
		if err != nil {
			return 0, false
		}
		switch f.Type {
		case dnswire.H2FrameHeaders:
			if !f.EndStream() {
				posts[f.StreamID] = 0
			}
		case dnswire.H2FrameData:
			n, open := posts[f.StreamID]
			n += len(payload)
			switch {
			case !open || n > maxBody:
				return len(data) - r.Len(), true
			case f.EndStream():
				delete(posts, f.StreamID)
			default:
				posts[f.StreamID] = n
			}
		case dnswire.H2FrameRSTStream:
			delete(posts, f.StreamID)
		}
		if len(posts) > maxStreams {
			return len(data) - r.Len(), true
		}
	}
}
