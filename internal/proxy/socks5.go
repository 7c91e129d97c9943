// Package proxy implements SOCKS5 (RFC 1928, with RFC 1929 username/password
// authentication) and the residential proxy networks the paper uses as
// vantage-point platforms (§4.1): a super proxy that forwards measurement
// traffic to geographically distributed exit nodes, which connect to the
// actual targets. Virtual latency is propagated across hops, so a
// measurement client's observed time T_R composes client→super, super→exit
// and exit→target segments exactly as in the paper's Figure 8.
package proxy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/netsim"
)

// SOCKS protocol constants (RFC 1928).
const (
	socksVersion = 5

	authNone         = 0x00
	authUserPass     = 0x02
	authNoAcceptable = 0xFF

	cmdConnect = 0x01

	atypIPv4   = 0x01
	atypDomain = 0x03
	atypIPv6   = 0x04

	repSuccess            = 0x00
	repGeneralFailure     = 0x01
	repNetworkUnreachable = 0x03
	repHostUnreachable    = 0x04
	repConnRefused        = 0x05
	repCmdNotSupported    = 0x07
)

// Errors surfaced by the SOCKS layer.
var (
	ErrAuthRequired   = errors.New("proxy: server requires credentials")
	ErrAuthRejected   = errors.New("proxy: credentials rejected")
	ErrConnectFailed  = errors.New("proxy: CONNECT failed")
	ErrBadProtocol    = errors.New("proxy: protocol violation")
	ErrUnsupportedCmd = errors.New("proxy: unsupported command")
)

// ConnectError is a CONNECT rejection carrying the server's reply code.
// Codes propagate unchanged across chained proxies, so a measurement
// client can distinguish target-side failures (refused, unreachable) from
// platform-side disruptions (general failure: exit churn, expired session).
type ConnectError struct {
	Code byte
}

// Error implements error.
func (e *ConnectError) Error() string {
	return fmt.Sprintf("proxy: CONNECT failed: reply code %d", e.Code)
}

// Unwrap lets errors.Is(err, ErrConnectFailed) hold.
func (e *ConnectError) Unwrap() error { return ErrConnectFailed }

// IsPlatformDisruption reports whether err is the proxy platform failing
// (rather than the destination being unreachable). The paper removes such
// vantage points from the dataset ("upon any service disruption of exit
// nodes ... we remove this node from our dataset").
func IsPlatformDisruption(err error) bool {
	var ce *ConnectError
	return errors.As(err, &ce) && ce.Code == repGeneralFailure
}

// Credentials carry RFC 1929 username/password. The paper-style networks
// use the username to pin a session to a specific exit node.
type Credentials struct {
	Username string
	Password string
}

// ClientConnect performs the client side of a SOCKS5 session on conn:
// method negotiation, optional authentication, then a CONNECT to
// target:port. On return the conn is a transparent tunnel to the target.
func ClientConnect(conn *netsim.Conn, creds *Credentials, target netip.Addr, port uint16) error {
	greeting := []byte{socksVersion, 1, authNone}
	if creds != nil {
		greeting = []byte{socksVersion, 2, authUserPass, authNone}
	}
	if _, err := conn.Write(greeting); err != nil {
		return err
	}
	var sel [2]byte
	if err := readFull(conn, sel[:]); err != nil {
		return err
	}
	if sel[0] != socksVersion {
		return ErrBadProtocol
	}
	switch sel[1] {
	case authNone:
	case authUserPass:
		if creds == nil {
			return ErrAuthRequired
		}
		if err := clientAuth(conn, creds); err != nil {
			return err
		}
	default:
		return ErrAuthRequired
	}

	var buf [3 + 1 + 16 + 2]byte
	req := append(buf[:0], socksVersion, cmdConnect, 0)
	if target.Is4() {
		v4 := target.As4()
		req = append(req, atypIPv4)
		req = append(req, v4[:]...)
	} else {
		v6 := target.As16()
		req = append(req, atypIPv6)
		req = append(req, v6[:]...)
	}
	req = binary.BigEndian.AppendUint16(req, port)
	if _, err := conn.Write(req); err != nil {
		return err
	}
	var head [4]byte
	if err := readFull(conn, head[:]); err != nil {
		return err
	}
	if head[0] != socksVersion {
		return ErrBadProtocol
	}
	// Consume BND.ADDR/BND.PORT.
	var bound [255 + 2]byte
	var skip int
	switch head[3] {
	case atypIPv4:
		skip = 4 + 2
	case atypIPv6:
		skip = 16 + 2
	case atypDomain:
		if err := readFull(conn, bound[:1]); err != nil {
			return err
		}
		skip = int(bound[0]) + 2
	default:
		return ErrBadProtocol
	}
	if err := readFull(conn, bound[:skip]); err != nil {
		return err
	}
	if head[1] != repSuccess {
		return &ConnectError{Code: head[1]}
	}
	return nil
}

func clientAuth(conn *netsim.Conn, creds *Credentials) error {
	var buf [1 + 1 + 255 + 1 + 255]byte
	msg := append(buf[:0], 1, byte(len(creds.Username)))
	msg = append(msg, creds.Username...)
	msg = append(msg, byte(len(creds.Password)))
	msg = append(msg, creds.Password...)
	if _, err := conn.Write(msg); err != nil {
		return err
	}
	var resp [2]byte
	if err := readFull(conn, resp[:]); err != nil {
		return err
	}
	if resp[1] != 0 {
		return ErrAuthRejected
	}
	return nil
}

// readFull is io.ReadFull over conn. Called on the concrete conn, Read
// visibly keeps no reference to p, so the fixed arrays both sides of the
// handshake read into stay on the stack.
func readFull(conn *netsim.Conn, p []byte) error {
	for n := 0; n < len(p); {
		m, err := conn.Read(p[n:])
		n += m
		if err == io.EOF && n > 0 {
			return io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Request is a parsed CONNECT request received by a server.
type Request struct {
	Target netip.Addr
	// Domain is set instead of Target when the client sent a hostname.
	Domain string
	Port   uint16
	// Username the client authenticated with ("" for no-auth).
	Username string
}

// Dialer establishes the outbound leg for a CONNECT request. It returns the
// downstream conn, whose virtual elapsed time (connection setup) the server
// charges to the client before replying.
type Dialer func(req Request) (*netsim.Conn, error)

// ServeConn runs the server side of one SOCKS5 session on conn. requireAuth
// demands username/password (any password accepted; the username is
// surfaced in the Request for session routing, like ProxyRack's
// username-keyed sessions).
func ServeConn(conn *netsim.Conn, requireAuth bool, dial Dialer) {
	defer conn.Close()
	req, err := serverHandshake(conn, requireAuth)
	if err != nil {
		return
	}
	downstream, err := dial(req)
	if err != nil {
		reply(conn, errorReply(err))
		return
	}
	defer downstream.Close()
	// The client waited while the downstream leg was established; charge
	// that virtual time to its connection before confirming.
	conn.AddLatency(downstream.Elapsed())
	if err := reply(conn, repSuccess); err != nil {
		return
	}
	Relay(conn, downstream)
}

func serverHandshake(conn *netsim.Conn, requireAuth bool) (Request, error) {
	var req Request
	var head [2]byte
	if err := readFull(conn, head[:]); err != nil {
		return req, err
	}
	if head[0] != socksVersion {
		return req, ErrBadProtocol
	}
	var buf [255]byte
	methods := buf[:head[1]]
	if err := readFull(conn, methods); err != nil {
		return req, err
	}
	if requireAuth {
		if !slices.Contains(methods, authUserPass) {
			conn.Write([]byte{socksVersion, authNoAcceptable}) //nolint:errcheck
			return req, ErrAuthRequired
		}
		if _, err := conn.Write([]byte{socksVersion, authUserPass}); err != nil {
			return req, err
		}
		var err error
		req.Username, err = serverAuth(conn)
		if err != nil {
			return req, err
		}
	} else {
		if _, err := conn.Write([]byte{socksVersion, authNone}); err != nil {
			return req, err
		}
	}

	var reqHead [4]byte
	if err := readFull(conn, reqHead[:]); err != nil {
		return req, err
	}
	if reqHead[0] != socksVersion {
		return req, ErrBadProtocol
	}
	if reqHead[1] != cmdConnect {
		reply(conn, repCmdNotSupported) //nolint:errcheck
		return req, ErrUnsupportedCmd
	}
	switch reqHead[3] {
	case atypIPv4:
		var a [4]byte
		if err := readFull(conn, a[:]); err != nil {
			return req, err
		}
		req.Target = netip.AddrFrom4(a)
	case atypIPv6:
		var a [16]byte
		if err := readFull(conn, a[:]); err != nil {
			return req, err
		}
		req.Target = netip.AddrFrom16(a)
	case atypDomain:
		if err := readFull(conn, buf[:1]); err != nil {
			return req, err
		}
		name := buf[:buf[0]]
		if err := readFull(conn, name); err != nil {
			return req, err
		}
		req.Domain = string(name)
	default:
		return req, ErrBadProtocol
	}
	var p [2]byte
	if err := readFull(conn, p[:]); err != nil {
		return req, err
	}
	req.Port = binary.BigEndian.Uint16(p[:])
	return req, nil
}

func serverAuth(conn *netsim.Conn) (string, error) {
	var head [2]byte
	if err := readFull(conn, head[:]); err != nil {
		return "", err
	}
	if head[0] != 1 {
		return "", ErrBadProtocol
	}
	var buf [255]byte
	user := buf[:head[1]]
	if err := readFull(conn, user); err != nil {
		return "", err
	}
	username := string(user)
	// The password is read past and ignored.
	if err := readFull(conn, buf[:1]); err != nil {
		return "", err
	}
	if err := readFull(conn, buf[:buf[0]]); err != nil {
		return "", err
	}
	if _, err := conn.Write([]byte{1, 0}); err != nil {
		return "", err
	}
	return username, nil
}

func reply(conn *netsim.Conn, code byte) error {
	_, err := conn.Write([]byte{socksVersion, code, 0, atypIPv4, 0, 0, 0, 0, 0, 0})
	return err
}

func errorReply(err error) byte {
	var ce *ConnectError
	switch {
	case errors.As(err, &ce):
		// Propagate the downstream hop's code unchanged.
		return ce.Code
	case errors.Is(err, netsim.ErrRefused):
		return repConnRefused
	case errors.Is(err, netsim.ErrBlackhole):
		return repHostUnreachable
	case errors.Is(err, netsim.ErrNoRoute):
		return repNetworkUnreachable
	default:
		return repGeneralFailure
	}
}

// Relay forwards segments between the client-facing conn and the downstream
// conn in both directions, each segment whole in one write, propagating the
// downstream leg's virtual time onto the client's connection so end-to-end
// latency composes across hops. It returns once both directions are done.
func Relay(client, downstream *netsim.Conn) {
	// Snapshot the downstream clock before the client→downstream leg
	// starts: request bytes advance the downstream clock, and a late
	// snapshot would drop that leg from the composed latency.
	back := &chargingWriter{client: client, downstream: downstream, last: downstream.Elapsed()}
	back.forwarding.Add(1)
	go back.forward()
	downstream.WriteTo(back) //nolint:errcheck
	client.Close()
	back.forwarding.Wait()
}

// chargingWriter is Relay's downstream→client leg: before writing each
// segment on to the client, it charges the client the downstream clock's
// advance since the previous segment. It also carries the join with the
// client→downstream leg, so a relay's state is one object.
type chargingWriter struct {
	client, downstream *netsim.Conn
	last               time.Duration
	forwarding         sync.WaitGroup // done when forward returns
}

// forward is Relay's client→downstream leg.
func (w *chargingWriter) forward() {
	w.client.WriteTo(w.downstream) //nolint:errcheck
	w.downstream.Close()
	w.forwarding.Done()
}

func (w *chargingWriter) Write(p []byte) (int, error) {
	if now := w.downstream.Elapsed(); now > w.last {
		w.client.AddLatency(now - w.last)
		w.last = now
	}
	return w.client.Write(p)
}
