package scenario

import (
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/client"
	"wilocator/internal/cluster"
	"wilocator/internal/loadtest"
	"wilocator/internal/server"
	"wilocator/internal/traveltime"
)

// TestChaosClusterStandbyPromotion runs the cluster's warm-standby path
// over a scenario-compiled world: one leader serving every route, one
// standby that serves nothing and only replicates. Kill the leader
// mid-fleet; the standby must promote the shipped replica through the
// standard recovery path and finish the fleet, over its own HTTP API,
// with a store identical to an uninterrupted run's crash-resume.
func TestChaosClusterStandbyPromotion(t *testing.T) {
	w, streams, err := ChaosWorld(MustByName("grid-burst"))
	if err != nil {
		t.Fatal(err)
	}
	end := Day
	for _, st := range streams {
		for _, rep := range st.Reports {
			if rep.Scan.Time.After(end) {
				end = rep.Scan.Time
			}
		}
	}
	now := loadtest.FixedClock(end.Add(time.Minute))
	total := loadtest.TotalReports(streams)
	crashAt := total / 2

	refSvc, refStore, err := loadtest.NewService(w, server.Config{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	refTally := loadtest.ReplayRange(refSvc, streams, 0, crashAt)
	if refTally.Errors != 0 {
		t.Fatalf("reference replay errored: %v", refTally)
	}

	lstL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lstF, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.Topology{Nodes: []cluster.NodeSpec{
		{ID: "leader", Addr: "http://unroutable.invalid", ReplAddr: lstL.Addr().String()},
		{ID: "standby", Addr: "http://unroutable.invalid", ReplAddr: lstF.Addr().String(), Role: cluster.RoleFollower},
	}}

	base := t.TempDir()
	wake := cluster.NewWakeup()
	ps, err := loadtest.NewPersistentService(w, filepath.Join(base, "leader"),
		server.Config{Now: now},
		traveltime.PersistConfig{SyncEvery: 1, OnDurable: wake.Poke})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ps.Persist.Close() }() // the kill below abandons this persister

	promotedCh := make(chan *loadtest.PersistentService, 1)
	promote := func(dir string) (http.Handler, *traveltime.Persister, error) {
		ps, err := loadtest.NewPersistentService(w, dir, server.Config{Now: now}, traveltime.PersistConfig{SyncEvery: 1})
		if err != nil {
			return nil, nil, err
		}
		promotedCh <- ps
		return server.NewHandler(ps.Svc, server.HandlerConfig{GroupCommit: ps.Persist}), ps.Persist, nil
	}
	mkNode := func(self string, svcCfg func(*cluster.Config), lst net.Listener) *cluster.Node {
		cfg := cluster.Config{
			Self:           self,
			Topology:       topo,
			ReplicaRoot:    filepath.Join(base, self+"-replicas"),
			Promote:        promote,
			HeartbeatEvery: 50 * time.Millisecond,
			FailoverAfter:  2 * time.Second,
			Logf:           t.Logf,
			Listener:       lst,
		}
		svcCfg(&cfg)
		node, err := cluster.NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(t.Context()); err != nil {
			t.Fatal(err)
		}
		return node
	}
	leader := mkNode("leader", func(c *cluster.Config) {
		c.Handler = server.NewHandler(ps.Svc, server.HandlerConfig{GroupCommit: ps.Persist})
		c.Persister = ps.Persist
		c.Wake = wake
	}, lstL)
	defer leader.Close()
	standby := mkNode("standby", func(c *cluster.Config) {}, lstF)
	defer standby.Close()

	liveTally := loadtest.ReplayRange(ps.Svc, streams, 0, crashAt)
	if liveTally != refTally {
		t.Fatalf("clustered tallies diverged before the kill: %v vs %v", liveTally, refTally)
	}

	// Drain replication, observed from the leader's acked frontier.
	waitShard := func(what string, cond func(api.ShardStatus) bool, from *cluster.Node) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			for _, sh := range from.Status().Shards {
				if sh.Origin == "leader" && cond(sh) {
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitShard("replication drained", func(sh api.ShardStatus) bool {
		return sh.Local && sh.ReplicationLagBytes == 0
	}, leader)

	leader.Kill() // abandons the leader's persister, like a dead process

	waitShard("standby promotion", func(sh api.ShardStatus) bool {
		return sh.Local && sh.Promoted
	}, standby)
	promoted := <-promotedCh
	defer func() {
		_ = promoted.Svc.Close()
		_ = promoted.Persist.Close()
	}()
	if err := traveltime.Diff(refStore, promoted.Store, 1e-9); err != nil {
		t.Fatalf("promoted store diverges from the unkilled run at the kill point: %v", err)
	}

	// Crash-resume on both sides: the reference restarts its service over
	// the surviving store, the rest of the fleet goes to the promoted
	// standby through its HTTP handler.
	resumed, err := server.NewService(w.Dia, refStore, server.Config{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	refTail := loadtest.ReplayRange(resumed, streams, crashAt, -1)
	ts := httptest.NewServer(standby)
	defer ts.Close()
	c, err := client.NewWithRetry(ts.URL, nil, client.NoRetry)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	liveTail := loadtest.ReplayVia(streams, crashAt, -1, func(rep api.Report) (api.IngestResponse, error) {
		return c.PostReport(ctx, rep)
	})
	if liveTail != refTail {
		t.Fatalf("post-promotion tallies diverged: %v vs %v", liveTail, refTail)
	}
	if err := traveltime.Diff(refStore, promoted.Store, 1e-9); err != nil {
		t.Fatalf("promoted shard diverged from reference after resume: %v", err)
	}
}
