package proxy

import (
	"fmt"

	"dnsencryption.info/doe/internal/netsim"
)

// Generator-fed population: instead of materializing every exit node up
// front with AddNode (one map entry + one live SOCKS service per node,
// O(population) memory), a network can carry a synthesis function and
// bring nodes into the world lazily. Acquire(i) synthesizes node i,
// installs its SOCKS service and lifetime ledger entry, and hands back a
// release func that tears both down — so a million-node campaign keeps
// world state O(simultaneously acquired nodes), i.e. O(workers).

// SetGenerator installs a synthesized population of count nodes, node i
// produced by gen(i). gen must be a pure function of i (the streaming
// campaign contract: any shard may ask for any index, in any order, and
// byte-identity across worker counts needs the same node every time).
// Generated nodes do not appear in Nodes() — they have no existence until
// acquired.
func (n *Network) SetGenerator(count int, gen func(i int) ExitNode) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.genCount = count
	n.gen = gen
	if n.active == nil {
		n.active = make(map[string]*ExitNode)
	}
}

// GenCount reports the generator population size (0 when no generator is
// installed).
func (n *Network) GenCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.genCount
}

// NodeAt synthesizes node i without installing it into the world — the
// peek the campaign's uptime screen uses before paying for a service.
func (n *Network) NodeAt(i int) ExitNode {
	n.mu.Lock()
	gen, count := n.gen, n.genCount
	n.mu.Unlock()
	if gen == nil || i < 0 || i >= count {
		panic(fmt.Sprintf("proxy: NodeAt(%d) outside generated population [0, %d)", i, count))
	}
	return gen(i)
}

// Acquire materializes generated node i: its SOCKS service starts
// listening on the node's address and its session-lifetime ledger entry
// becomes visible to reserve (so super-proxy dials keyed by the node's ID
// work exactly as for AddNode nodes). The release func closes the service
// and drops the ledger entry; calling it again does nothing. Each index
// must be held by at most one caller at a time — the runner's work handout
// gives every index to exactly one worker, which is the intended
// discipline.
func (n *Network) Acquire(i int) (ExitNode, func()) {
	node := new(ExitNode)
	*node = n.NodeAt(i)
	n.mu.Lock()
	n.active[node.ID] = node
	n.mu.Unlock()
	n.World.RegisterStream(node.Addr, 1080, func(conn *netsim.Conn) {
		ServeConn(conn, false, func(req Request) (*netsim.Conn, error) {
			if !req.Target.IsValid() {
				return nil, netsim.ErrNoRoute
			}
			return n.World.Dial(node.Addr, req.Target, req.Port)
		})
	})
	return *node, func() { n.release(node) }
}

// release undoes Acquire for node. The ledger holds node itself until its
// first release, so a second release, or one that a later Acquire of the
// same index has overtaken, finds another entry or none and does nothing.
func (n *Network) release(node *ExitNode) {
	n.mu.Lock()
	held := n.active[node.ID] == node
	if held {
		delete(n.active, node.ID)
	}
	n.mu.Unlock()
	if held {
		n.World.CloseService(node.Addr, 1080)
	}
}

// ActiveCount reports how many generated nodes are currently materialized
// (tests assert the lazy-world invariant: O(workers), not O(population)).
func (n *Network) ActiveCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.active)
}

// lookupLocked finds a node by ID across the materialized pool and the
// currently acquired generated nodes. Callers hold n.mu.
func (n *Network) lookupLocked(id string) (*ExitNode, bool) {
	if node, ok := n.nodes[id]; ok {
		return node, true
	}
	if node, ok := n.active[id]; ok {
		return node, true
	}
	return nil, false
}
