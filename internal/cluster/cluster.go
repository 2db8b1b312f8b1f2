// Package cluster runs WiLocator as one leader and zero or more warm
// standbys, so losing the leader's machine does not lose the travel-time
// history or the service.
//
// # Model
//
// The leader is the one back-end server the paper describes: it ingests
// every route, so Eq. 8's cross-route correction sees every bus. Standbys
// serve nothing. Until one is promoted it answers both report doors and
// the reads with 503 + Retry-After; clients list every node's URL and
// move to the next one on that 503 or on a connection error.
//
// Durability crosses nodes by WAL shipping: the leader streams its
// travel-time persistence lineage (snapshot + CRC-framed WAL, exactly the
// on-disk format of traveltime.Persister) to every standby over a
// length-prefixed, CRC-checked TCP stream. Standbys fsync before acking,
// so an acked offset is durable on both sides; the leader's durable
// frontier minus a standby's acked offset is the replication lag, exposed
// on /metrics and in /v1/healthz.
//
// Failover is promotion of the shipped replica: when the standbys stop
// hearing the leader for FailoverAfter, the designated survivor (lowest
// node ID other than the leader) closes its replica and hands the
// directory to Config.Promote, which opens it as a restarted leader opens
// its own -wal-dir — traveltime.OpenPersister truncates a tail torn
// mid-frame — and returns the new System's handler. From then on the
// survivor is the one service. It ships to nobody: there is no standby
// again until the operator starts one. The design invariants
// (single-writer WAL, ack-before-trim, idempotent replay) are recorded in
// DESIGN.md.
//
// Every RPC path in this package takes a caller context and bounds its
// network operations with deadlines; the clusterctx wilint analyzer
// enforces that no call site manufactures an unbounded
// context.Background().
package cluster

import (
	"fmt"
	"strings"
)

// Role is a node's static role in the topology.
type Role string

const (
	// RoleLeader is the one node that ingests and serves.
	RoleLeader Role = "leader"
	// RoleFollower nodes replicate the leader's WAL and exist to be
	// promoted (a warm standby).
	RoleFollower Role = "follower"
)

// NodeSpec describes one node of the static topology.
type NodeSpec struct {
	// ID is the node's unique name (the leader's is the lineage label in
	// metrics).
	ID string
	// Addr is the node's HTTP API base URL (e.g. "http://10.0.0.1:8421"):
	// one of the URLs clients list.
	Addr string
	// ReplAddr is the host:port of the node's WAL-shipping listener.
	ReplAddr string
	// Role defaults to RoleLeader when empty.
	Role Role
}

func (n NodeSpec) isLeader() bool { return n.Role == RoleLeader || n.Role == "" }

// Topology is the full static node set, identical on every node.
type Topology struct {
	Nodes []NodeSpec
}

// Leader returns the topology's one leader-role node.
func (t Topology) Leader() (NodeSpec, bool) {
	for _, n := range t.Nodes {
		if n.isLeader() {
			return n, true
		}
	}
	return NodeSpec{}, false
}

// Node returns the spec of id.
func (t Topology) Node(id string) (NodeSpec, bool) {
	for _, n := range t.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return NodeSpec{}, false
}

// Validate checks the topology is usable: unique non-empty IDs, exactly
// one leader, and addresses present on every node.
func (t Topology) Validate() error {
	if len(t.Nodes) < 2 {
		return fmt.Errorf("cluster: topology needs at least 2 nodes, got %d", len(t.Nodes))
	}
	seen := map[string]bool{}
	leaders := 0
	for _, n := range t.Nodes {
		if n.ID == "" {
			return fmt.Errorf("cluster: node with empty ID")
		}
		if seen[n.ID] {
			return fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
		seen[n.ID] = true
		if n.ReplAddr == "" {
			return fmt.Errorf("cluster: node %s has no replication address", n.ID)
		}
		if n.isLeader() {
			leaders++
		}
	}
	if leaders != 1 {
		return fmt.Errorf("cluster: topology needs exactly one leader-role node, got %d", leaders)
	}
	return nil
}

// Survivor returns the designated promotion target for a dead node: the
// lowest node ID in the topology excluding dead. Every node computes the
// same answer from the same static topology, so exactly one standby
// promotes without any coordination. ok is false when the topology holds
// no other node.
func (t Topology) Survivor(dead string) (string, bool) {
	best := ""
	for _, n := range t.Nodes {
		if n.ID == dead {
			continue
		}
		if best == "" || n.ID < best {
			best = n.ID
		}
	}
	return best, best != ""
}

// ParsePeers parses the -peers flag form:
//
//	id=apiURL|replAddr[|role][,id=apiURL|replAddr[|role]...]
//
// e.g. "n1=http://10.0.0.1:8421|10.0.0.1:9421,n3=http://10.0.0.3:8421|10.0.0.3:9421|follower".
// Role defaults to leader, and exactly one node may be the leader. The
// string must be identical on every node: it fixes the leader and the
// order in which standbys take over.
func ParsePeers(s string) ([]NodeSpec, error) {
	var out []NodeSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, rest, ok := strings.Cut(part, "=")
		if !ok || id == "" {
			return nil, fmt.Errorf("cluster: peer %q: want id=apiURL|replAddr[|role]", part)
		}
		apiURL, rest, ok := strings.Cut(rest, "|")
		if !ok || apiURL == "" {
			return nil, fmt.Errorf("cluster: peer %q: want id=apiURL|replAddr[|role]", part)
		}
		replAddr, roleStr, _ := strings.Cut(rest, "|")
		if replAddr == "" {
			return nil, fmt.Errorf("cluster: peer %q: want id=apiURL|replAddr[|role]", part)
		}
		role := RoleLeader
		switch roleStr {
		case "", string(RoleLeader):
		case string(RoleFollower):
			role = RoleFollower
		default:
			return nil, fmt.Errorf("cluster: peer %q: unknown role %q", part, roleStr)
		}
		out = append(out, NodeSpec{ID: id, Addr: apiURL, ReplAddr: replAddr, Role: role})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return out, nil
}
