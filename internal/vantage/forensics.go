package vantage

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"

	"dnsencryption.info/doe/internal/proxy"
)

// Table5Ports are the ports probed on conflicted resolver addresses from
// clients that failed to use DoT (Table 5).
var Table5Ports = []uint16{22, 23, 53, 67, 80, 123, 139, 161, 179, 443, 853}

// PortProbe is one node's view of which probed ports were open on an
// address.
type PortProbe struct {
	NodeID  string
	Country string
	ASN     int
	ASName  string
	Target  netip.Addr
	// Open lists responsive ports, in probe order.
	Open []uint16
	// Page is the body fetched from port 80, when available — the
	// paper's webpage check identifying routers, modems and coin miners.
	Page string
	// Server is the HTTP Server header from the page fetch.
	Server string
}

// HasAnyOpen reports whether any probed port accepted a connection.
func (p PortProbe) HasAnyOpen() bool { return len(p.Open) > 0 }

// ProbePorts connects to each port of target through the node and fetches
// the port-80 webpage when it is open.
func (p *Platform) ProbePorts(node proxy.ExitNode, target netip.Addr, ports []uint16) PortProbe {
	probe := PortProbe{
		NodeID:  node.ID,
		Country: node.Country,
		ASN:     node.ASN,
		ASName:  node.ASName,
		Target:  target,
	}
	for _, port := range ports {
		conn, err := p.Network.Dial(p.From, node.ID, target, port)
		if err != nil {
			continue
		}
		probe.Open = append(probe.Open, port)
		if port == 80 {
			if page, server, err := fetchPage(conn, target); err == nil {
				probe.Page, probe.Server = page, server
			}
		}
		conn.Close()
	}
	return probe
}

// fetchPage issues a minimal GET / and parses the response leniently: the
// devices squatting on resolver addresses speak various HTTP dialects.
func fetchPage(conn io.ReadWriteCloser, host netip.Addr) (body, server string, err error) {
	fmt.Fprintf(conn, "GET / HTTP/1.0\r\nHost: %s\r\n\r\n", host)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		// Not HTTP: return the raw banner.
		raw, _ := io.ReadAll(io.LimitReader(br, 4096))
		if len(raw) == 0 {
			return "", "", err
		}
		return string(raw), "", nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if err != nil {
		return "", "", err
	}
	return string(b), resp.Header.Get("Server"), nil
}

// IdentifyDevice matches a fetched page against the device signatures the
// paper reports: routers, modems, authentication systems, coin-mining
// injections on hijacked routers.
func IdentifyDevice(probe PortProbe) string {
	page := strings.ToLower(probe.Page + " " + probe.Server)
	switch {
	case strings.Contains(page, "coinhive") || strings.Contains(page, "miner"):
		return "cryptojacked router"
	case strings.Contains(page, "routeros") || strings.Contains(page, "mikrotik"):
		return "router"
	case strings.Contains(page, "modem") || strings.Contains(page, "powerbox"):
		return "modem"
	case strings.Contains(page, "login") || strings.Contains(page, "authentication"):
		return "authentication system"
	case probe.Page != "":
		return "unknown web device"
	case probe.HasAnyOpen():
		return "unidentified host"
	default:
		return "silent (blackhole or internal routing)"
	}
}
