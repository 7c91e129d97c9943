package netsim

import (
	"fmt"
	"net/netip"
	"sync"

	"dnsencryption.info/doe/internal/geo"
)

// Censor models national-level filtering: for clients inside Countries, it
// blocks (refuses or blackholes) connections and datagrams matching the
// destination sets.
type Censor struct {
	// Countries of the *clients* whose traffic is filtered.
	Countries map[string]bool
	// BlockIPs are destination addresses to block on any port.
	BlockIPs map[netip.Addr]bool
	// BlockPorts restricts blocking to these ports; empty means all ports.
	BlockPorts map[uint16]bool
	// Blackhole silently drops instead of refusing (the common behaviour).
	Blackhole bool
}

// Decide implements DialPolicy. The destination is checked first: almost
// every dial and exchange goes to an unblocked address, and only a blocked
// one needs the geography lookup of the client.
func (c *Censor) Decide(w *World, from, to netip.Addr, port uint16, _ Proto) Verdict {
	if !c.BlockIPs[to] {
		return Verdict{Action: ActNext}
	}
	if len(c.BlockPorts) > 0 && !c.BlockPorts[port] {
		return Verdict{Action: ActNext}
	}
	if len(c.Countries) > 0 && !c.Countries[w.Geo.Country(from)] {
		return Verdict{Action: ActNext}
	}
	if c.Blackhole {
		return Verdict{Action: ActBlackhole}
	}
	return Verdict{Action: ActRefuse}
}

// PortFilter models middleboxes that filter a port on the client networks
// World.AddPolicy places them on — the paper's explanation for clear-text
// DNS (port 53) failing for 16% of clients while ports 853/443 pass
// ("filtering policies on a particular port").
type PortFilter struct {
	Port uint16
	// DstIPs restricts filtering to these destinations; empty = all.
	DstIPs map[netip.Addr]bool
	// Blackhole drops instead of refusing.
	Blackhole bool
}

// Decide implements DialPolicy.
func (f *PortFilter) Decide(_ *World, _, to netip.Addr, port uint16, _ Proto) Verdict {
	if port != f.Port || len(f.DstIPs) > 0 && !f.DstIPs[to] {
		return Verdict{Action: ActNext}
	}
	if f.Blackhole {
		return Verdict{Action: ActBlackhole}
	}
	return Verdict{Action: ActRefuse}
}

// DeviceKind labels the devices found squatting on 1.1.1.1 in Table 5 and
// the surrounding discussion.
type DeviceKind string

// Device kinds observed by the paper's webpage fetches.
const (
	DeviceRouter     DeviceKind = "MikroTik Router"
	DeviceModem      DeviceKind = "Powerbox Gvt Modem"
	DeviceAuthPortal DeviceKind = "Authentication System"
	DeviceMiner      DeviceKind = "Cryptojacked MikroTik Router"
)

// ConflictDevice models an in-path device that has taken over a well-known
// resolver address (e.g. 1.1.1.1 used as a router's virtual IP). Clients on
// the networks World.AddPolicy places it on reach the device instead of the
// resolver at ConflictIP.
type ConflictDevice struct {
	ConflictIP netip.Addr
	Kind       DeviceKind
	// OpenPorts maps ports the device listens on to the body of the page
	// it serves (an HTTP response is synthesized around it). Ports not in
	// the map are blackholed — the paper finds most conflicting
	// destinations are silent.
	OpenPorts map[uint16]string
}

// Decide implements DialPolicy.
func (d *ConflictDevice) Decide(_ *World, _, to netip.Addr, port uint16, proto Proto) Verdict {
	if to != d.ConflictIP {
		return Verdict{Action: ActNext}
	}
	if proto == Datagram {
		// Devices here do not answer DNS datagrams.
		return Verdict{Action: ActBlackhole}
	}
	body, open := d.OpenPorts[port]
	if !open {
		return Verdict{Action: ActBlackhole}
	}
	kind := d.Kind
	return Verdict{Action: ActRedirect, Handler: func(conn *Conn, dst Addr) {
		if dst.Port == 80 || dst.Port == 443 {
			StaticPage(string(kind), body)(conn)
			return
		}
		// Non-HTTP ports just present a banner (SSH, telnet, ...).
		defer conn.Close()
		fmt.Fprintf(conn, "%s\r\n", body)
	}}
}

// StaticPage returns a handler that writes a minimal HTTP/1.0 response with
// the given body and Server header, then closes the connection. It does not
// parse the request beyond draining what is immediately available, which is
// all the paper's webpage fetch needs.
func StaticPage(server, body string) StreamHandler {
	return func(conn *Conn) {
		defer conn.Close()
		buf := make([]byte, 1024)
		conn.Read(buf) //nolint:errcheck // drain whatever request bytes arrived
		fmt.Fprintf(conn, "HTTP/1.0 200 OK\r\nServer: %s\r\nContent-Type: text/html\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
			server, len(body), body)
	}
}

// OptOutList tracks prefixes whose owners opted out of scanning (§3.1's
// ethics mechanism). It is concurrency-safe.
type OptOutList struct {
	mu       sync.RWMutex
	prefixes geo.Table[struct{}]
}

// Add registers an opt-out request.
func (o *OptOutList) Add(p netip.Prefix) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.prefixes.Set(p, struct{}{})
}

// Contains reports whether ip opted out.
func (o *OptOutList) Contains(ip netip.Addr) (found bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	o.prefixes.Walk(ip, func(struct{}) bool {
		found = true
		return false
	})
	return found
}
