package proxy

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/netsim"
)

// ExitNode is one residential endpoint of a proxy network.
type ExitNode struct {
	ID      string
	Addr    netip.Addr
	Country string
	ASN     int
	ASName  string
	// Lifetime is the node's remaining session budget. Residential nodes
	// churn; the paper checks remaining uptime via the platform API and
	// discards nodes that would expire mid-measurement.
	Lifetime time.Duration
}

// Errors returned by the network.
var (
	ErrNoSuchNode  = errors.New("proxy: no such exit node")
	ErrNodeExpired = errors.New("proxy: exit node expired")
)

// Network models a commercial residential SOCKS proxy platform (ProxyRack,
// Zhima): a super proxy address plus a pool of exit nodes. Sessions name
// their exit in the SOCKS username, which the super proxy demands as RFC
// 1929 credentials, mirroring username-keyed sessions on real platforms.
type Network struct {
	Name      string
	World     *netsim.World
	SuperAddr netip.Addr
	// PerDialCost is how much lifetime one tunneled session consumes.
	PerDialCost time.Duration

	mu    sync.Mutex
	nodes map[string]*ExitNode

	// Generator-fed population (see genpop.go): synthesized nodes are
	// materialized into `active` only between Acquire and its release.
	gen      func(i int) ExitNode
	genCount int
	active   map[string]*ExitNode
}

// NewNetwork creates a proxy platform and installs its super proxy and exit
// node servers into the world.
func NewNetwork(w *netsim.World, name string, superAddr netip.Addr) *Network {
	n := &Network{
		Name:        name,
		World:       w,
		SuperAddr:   superAddr,
		PerDialCost: 30 * time.Second,
		nodes:       make(map[string]*ExitNode),
	}
	w.RegisterStream(superAddr, 1080, func(conn *netsim.Conn) {
		ServeConn(conn, true, n.dialViaExit)
	})
	return n
}

// AddNode registers an exit node and starts its SOCKS service.
func (n *Network) AddNode(node ExitNode) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cp := node
	n.nodes[node.ID] = &cp
	// The exit node's own SOCKS server: dials targets from the node's
	// address, so in-path middleboxes near the node apply.
	n.World.RegisterStream(node.Addr, 1080, func(conn *netsim.Conn) {
		ServeConn(conn, false, func(req Request) (*netsim.Conn, error) {
			if !req.Target.IsValid() {
				return nil, netsim.ErrNoRoute
			}
			return n.World.Dial(cp.Addr, req.Target, req.Port)
		})
	})
}

// Nodes returns all exit nodes sorted by ID.
func (n *Network) Nodes() []ExitNode {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]ExitNode, 0, len(n.nodes))
	for _, node := range n.nodes {
		out = append(out, *node)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RemainingUptime is the platform API the paper polls before using a node
// ("we first check its remaining uptime and discard it if expiring soon").
func (n *Network) RemainingUptime(id string) (time.Duration, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.lookupLocked(id)
	if !ok {
		return 0, ErrNoSuchNode
	}
	return node.Lifetime, nil
}

// Shutdown removes the platform's stream services — the super proxy and
// every exit node's SOCKS server. A service holds no goroutine, so there is
// no accept loop to unblock. Established tunnels are unaffected; new dials
// fail with ErrRefused. Tests that build throwaway platforms call it to keep
// goroutine-leak assertions honest.
func (n *Network) Shutdown() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.World.CloseService(n.SuperAddr, 1080)
	for _, node := range n.nodes {
		n.World.CloseService(node.Addr, 1080)
	}
	for _, node := range n.active {
		n.World.CloseService(node.Addr, 1080)
	}
	n.active = nil
}

// dialViaExit is the super proxy's outbound leg: take the exit node named
// by the SOCKS username, tunnel through its SOCKS service, and complete a
// nested CONNECT to the real target.
func (n *Network) dialViaExit(req Request) (*netsim.Conn, error) {
	node, err := n.reserve(req.Username)
	if err != nil {
		return nil, err
	}
	conn, err := n.World.Dial(n.SuperAddr, node.Addr, 1080)
	if err != nil {
		return nil, err
	}
	if err := ClientConnect(conn, nil, req.Target, req.Port); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

func (n *Network) reserve(id string) (*ExitNode, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.lookupLocked(id)
	if !ok {
		return nil, ErrNoSuchNode
	}
	if node.Lifetime <= 0 {
		return nil, ErrNodeExpired
	}
	node.Lifetime -= n.PerDialCost
	return node, nil
}

// DialDatagram opens a UDP-ASSOCIATE-style datagram relay from the
// measurement client at `from` through exit node nodeID to target:port.
// The returned exchange function sends one datagram and returns the
// response with the virtual latency of all three legs composed: the
// client→super and super→node round trips (a fixed property of the path)
// plus the node→target exchange, which traverses middlebox policies and
// the fault layer exactly as a datagram sent by the node itself would —
// so per-tuple fault schedules advance identically for any worker count.
// Establishing the association consumes the same session lifetime as a
// stream tunnel.
func (n *Network) DialDatagram(from netip.Addr, nodeID string, target netip.Addr, port uint16) (func(req []byte) ([]byte, time.Duration, error), error) {
	node, err := n.reserve(nodeID)
	if err != nil {
		// Surface platform churn with the same reply code the stream path
		// uses, so IsPlatformDisruption classifies both legs identically.
		return nil, fmt.Errorf("via %s node %q: %w", n.Name, nodeID, &ConnectError{Code: errorReply(err)})
	}
	relayRTT := n.World.PathRTT(from, n.SuperAddr) + n.World.PathRTT(n.SuperAddr, node.Addr)
	exit := node.Addr
	return func(req []byte) ([]byte, time.Duration, error) {
		resp, d, err := n.World.Exchange(exit, target, port, req)
		if err != nil {
			return nil, 0, err
		}
		return resp, relayRTT + d, nil
	}, nil
}

// Dial opens a tunnel from the measurement client at `from` through the
// platform to target:port, pinned to exit node nodeID. The returned conn
// carries composed virtual latency across all three segments.
func (n *Network) Dial(from netip.Addr, nodeID string, target netip.Addr, port uint16) (*netsim.Conn, error) {
	conn, err := n.World.Dial(from, n.SuperAddr, 1080)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //doelint:allow walltaint -- real-time watchdog on the simulated conn; expiry aborts a hang, never results
	creds := &Credentials{Username: nodeID, Password: "measurement"}
	if err := ClientConnect(conn, creds, target, port); err != nil {
		conn.Close()
		return nil, fmt.Errorf("via %s node %q: %w", n.Name, nodeID, err)
	}
	return conn, nil
}

// ExitDialer opens raw transports through exit node NodeID on behalf of the
// measurement client at From: streams are Dial's CONNECT tunnels, datagrams
// ride DialDatagram's relay. It is the exit-node resolver.Dialer, so a
// resolver.Client built over it runs every protocol from the node's vantage
// point. Session handshakes replace the tunnel's real-time watchdog with the
// session's own deadline rule.
type ExitDialer struct {
	Network *Network
	From    netip.Addr
	NodeID  string
}

// DialStream tunnels to addr:port through the exit node.
func (d ExitDialer) DialStream(addr netip.Addr, port uint16) (*netsim.Conn, error) {
	return d.Network.Dial(d.From, d.NodeID, addr, port)
}

// DialDatagram relays datagrams to addr:port through the exit node.
func (d ExitDialer) DialDatagram(addr netip.Addr, port uint16) (func(req []byte) ([]byte, time.Duration, error), error) {
	return d.Network.DialDatagram(d.From, d.NodeID, addr, port)
}
