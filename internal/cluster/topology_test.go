package cluster

import "testing"

func TestTopologySurvivor(t *testing.T) {
	topo := Topology{Nodes: []NodeSpec{
		{ID: "n2", Addr: "http://b", ReplAddr: "b:1", Role: RoleFollower},
		{ID: "n1", Addr: "http://a", ReplAddr: "a:1"},
		{ID: "n3", Addr: "http://c", ReplAddr: "c:1", Role: RoleFollower},
	}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	for dead, want := range map[string]string{"n1": "n2", "n2": "n1", "n3": "n1"} {
		got, ok := topo.Survivor(dead)
		if !ok || got != want {
			t.Errorf("Survivor(%s) = %q, %v; want %q", dead, got, ok, want)
		}
	}
	if l, ok := topo.Leader(); !ok || l.ID != "n1" {
		t.Errorf("Leader() = %v, %v; want n1", l, ok)
	}
}

// TestTopologyOneLeader: a topology with no leader, or with two, is
// rejected — there is no route split to give a second leader a share.
func TestTopologyOneLeader(t *testing.T) {
	for name, roles := range map[string][]Role{
		"none": {RoleFollower, RoleFollower},
		"two":  {RoleLeader, ""},
	} {
		topo := Topology{Nodes: []NodeSpec{
			{ID: "n1", ReplAddr: "a:1", Role: roles[0]},
			{ID: "n2", ReplAddr: "b:1", Role: roles[1]},
		}}
		if err := topo.Validate(); err == nil {
			t.Errorf("%s: Validate accepted leader roles %q", name, roles)
		}
	}
}

func TestParsePeers(t *testing.T) {
	nodes, err := ParsePeers("n1=http://a:1|a:2, n2=http://b:1|b:2|follower")
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeSpec{
		{ID: "n1", Addr: "http://a:1", ReplAddr: "a:2", Role: RoleLeader},
		{ID: "n2", Addr: "http://b:1", ReplAddr: "b:2", Role: RoleFollower},
	}
	if len(nodes) != len(want) {
		t.Fatalf("parsed %d nodes, want %d", len(nodes), len(want))
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Errorf("node %d = %+v, want %+v", i, nodes[i], want[i])
		}
	}
	for _, bad := range []string{"", "n1", "n1=http://a", "n1=http://a|", "n1=|b", "n1=http://a|b|weird"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}
