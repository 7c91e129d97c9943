package vantage

import (
	"sync"

	"dnsencryption.info/doe/internal/obs"
	"dnsencryption.info/doe/internal/resolver"
)

// instruments caches a Platform's instrument handles for one registry.
// Each instance is resolved from the registry, by name and labels, the
// first time it is used and read from a map under one lock afterwards, so
// a snapshot holds exactly the instances it would if every call resolved
// its own. Every method returns nil, a no-op handle, for a nil registry.
type instruments struct {
	mu          sync.Mutex
	reg         *obs.Registry
	lookups     map[lookupKey]*obs.Counter
	intercepted map[string]*obs.Counter
	setup       map[resolver.Proto]*obs.Sketch
	latency     map[Leg]*obs.Sketch
}

// lookupKey labels one vantage_lookups_total instance.
type lookupKey struct {
	resolver string
	proto    resolver.Proto
	outcome  Outcome
}

// useRegistry readies c for m, dropping another registry's handles. The
// caller holds c.mu.
func (c *instruments) useRegistry(m *obs.Registry) {
	if c.reg != m {
		c.reg = m
		c.lookups = make(map[lookupKey]*obs.Counter)
		c.intercepted = make(map[string]*obs.Counter)
		c.setup = make(map[resolver.Proto]*obs.Sketch)
		c.latency = make(map[Leg]*obs.Sketch)
	}
}

// lookup is vantage_lookups_total{resolver, proto, outcome}.
func (c *instruments) lookup(m *obs.Registry, k lookupKey) *obs.Counter {
	if m == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.useRegistry(m)
	h, ok := c.lookups[k]
	if !ok {
		h = m.Counter("vantage_lookups_total",
			"resolver", k.resolver, "proto", Label(k.proto), "outcome", k.outcome.String())
		c.lookups[k] = h
	}
	return h
}

// interception is vantage_intercepted_total{resolver}.
func (c *instruments) interception(m *obs.Registry, resolverName string) *obs.Counter {
	if m == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.useRegistry(m)
	h, ok := c.intercepted[resolverName]
	if !ok {
		h = m.Counter("vantage_intercepted_total", "resolver", resolverName)
		c.intercepted[resolverName] = h
	}
	return h
}

// setupLatency is vantage_setup_latency{proto}.
func (c *instruments) setupLatency(m *obs.Registry, proto resolver.Proto) *obs.Sketch {
	if m == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.useRegistry(m)
	h, ok := c.setup[proto]
	if !ok {
		h = m.Sketch("vantage_setup_latency", "proto", Label(proto))
		c.setup[proto] = h
	}
	return h
}

// queryLatency is vantage_query_latency_sketch{mode, proto}.
func (c *instruments) queryLatency(m *obs.Registry, leg Leg) *obs.Sketch {
	if m == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.useRegistry(m)
	h, ok := c.latency[leg]
	if !ok {
		h = m.Sketch("vantage_query_latency_sketch", "mode", string(leg.Mode), "proto", Label(leg.Proto))
		c.latency[leg] = h
	}
	return h
}
