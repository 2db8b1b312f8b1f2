package loadtest

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"wilocator/internal/api"
	"wilocator/internal/client"
	"wilocator/internal/server"
	"wilocator/internal/traveltime"
)

// TestBatchedMatchesSequentialReplay is the HTTP half of the replay
// equivalence argument: a fleet delivered through the full HTTP stack —
// admission, pooled decoding, per-line dispatch — must leave the service in
// exactly the state a sequential in-process replay leaves it in: same
// tally, same per-bus trajectories fix-for-fix, equivalent travel-time
// store. It runs over three input shapes through the same handler: NDJSON
// frames of 48 and one-line frames, both uploaded concurrently per bus, and
// one POST per report. Run under -race in CI.
func TestBatchedMatchesSequentialReplay(t *testing.T) {
	w := testWorld(t)
	spec := testSpec()
	streams, err := GenStreams(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := FixedClock(T0.Add(spec.Horizon))

	seqSvc, seqStore, err := NewService(w, server.Config{Now: now, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqTally := ReplaySequential(seqSvc, streams)
	if seqTally.Errors != 0 || seqTally.Located == 0 {
		t.Fatalf("sequential reference is unusable: %v", seqTally)
	}
	seqTraj, err := Trajectories(seqSvc, streams)
	if err != nil {
		t.Fatal(err)
	}

	shapes := []struct {
		name    string
		batched bool
		replay  func(c *client.Client) (Tally, error)
	}{
		{"frames of 48", true, func(c *client.Client) (Tally, error) { return ReplayBatched(c, streams, 48) }},
		{"one-line frames", true, func(c *client.Client) (Tally, error) { return ReplayBatched(c, streams, 1) }},
		{"single POSTs", false, func(c *client.Client) (Tally, error) {
			return ReplayVia(streams, 0, -1, func(rep api.Report) (api.IngestResponse, error) {
				return c.PostReport(context.Background(), rep)
			}), nil
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			svc, store, err := NewService(w, server.Config{Now: now})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(server.Handler(svc))
			defer ts.Close()
			c, err := client.New(ts.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			tally, err := sh.replay(c)
			t.Logf("%s: %v", sh.name, tally)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if tally != seqTally {
				t.Fatalf("tallies diverge:\n  sequential %v\n  %s %v", seqTally, sh.name, tally)
			}
			traj, err := Trajectories(svc, streams)
			if err != nil {
				t.Fatal(err)
			}
			if err := DiffTrajectories(seqTraj, traj); err != nil {
				t.Fatalf("trajectories diverge: %v", err)
			}
			if err := traveltime.Diff(seqStore, store, 1e-9); err != nil {
				t.Fatalf("travel-time stores diverge: %v", err)
			}

			// The door's HTTP ledger balances, and every report went
			// through it.
			hs := svc.HTTPStats()
			if hs.BatchShed+hs.BatchServed != hs.BatchOffered || hs.Shed+hs.Served != hs.Offered {
				t.Errorf("admission ledger unbalanced: %+v", hs)
			}
			got := int(hs.Served)
			if sh.batched {
				got = int(hs.BatchReports)
			}
			if got != seqTally.Delivered {
				t.Errorf("door carried %d reports, want every one of the %d", got, seqTally.Delivered)
			}
		})
	}
}

// TestChaosGroupCommitBatchDurability: with per-record fsync disabled
// (SyncEvery effectively infinite) the ONLY durability the server has is
// the group commit closing each batch before its acknowledgement. A crash
// right after the last acked frame must therefore lose nothing: the
// recovered store equals an uninterrupted reference over the same prefix.
func TestChaosGroupCommitBatchDurability(t *testing.T) {
	w := testWorld(t)
	spec := chaosSpec()
	streams, err := GenStreams(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := FixedClock(T0.Add(spec.Horizon))
	flat := FlattenReports(streams)
	const frame = 64
	frames := (len(flat) / 2) / frame // crash roughly mid-fleet, on a frame boundary
	if frames == 0 {
		t.Fatal("fleet too small for a mid-run crash")
	}
	prefix := frames * frame

	refSvc, refStore, err := NewService(w, server.Config{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	refTally := ReplayRange(refSvc, streams, 0, prefix)
	if refTally.Errors != 0 || refStore.NumRecords() == 0 {
		t.Fatalf("reference prefix is unusable: %v, %d records", refTally, refStore.NumRecords())
	}

	base := t.TempDir()
	ps, err := NewPersistentService(w, filepath.Join(base, "live"), server.Config{Now: now},
		traveltime.PersistConfig{SyncEvery: 1 << 30}) // no count-triggered fsyncs, ever
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewHandler(ps.Svc, server.HandlerConfig{
		GroupCommit: ps.Persist,
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	var liveTally Tally
	for f := 0; f < frames; f++ {
		resp, err := c.PostReportBatch(t.Context(), flat[f*frame:(f+1)*frame])
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		liveTally.Delivered += resp.Received
		liveTally.Accepted += resp.Accepted
		liveTally.Located += resp.Located
		liveTally.LateDropped += resp.LateDropped
		liveTally.Errors += resp.Rejected
	}
	if liveTally != refTally {
		t.Fatalf("batched prefix tallies diverged: %v vs %v", liveTally, refTally)
	}
	if st := ps.Persist.Stats(); st.WALSyncs == 0 {
		t.Fatal("group commit never fsynced; the durability claim below would be vacuous")
	}

	// kill -9 immediately after the last frame's 200: only fsynced bytes
	// survive. Group commit promises that is *everything acknowledged*.
	recoveredDir := filepath.Join(base, "recovered")
	if err := SimulateCrash(ps, recoveredDir); err != nil {
		t.Fatal(err)
	}
	_ = ps.Persist.Close()
	recStore, recPersist, err := Recover(recoveredDir, traveltime.PersistConfig{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer func() {
		if err := recPersist.Close(); err != nil {
			t.Errorf("close recovered persister: %v", err)
		}
	}()
	if st := recPersist.Stats(); st.WALSkippedBytes != 0 {
		t.Errorf("durable prefix should replay cleanly, got %+v", st)
	}
	if err := traveltime.Diff(refStore, recStore, 1e-9); err != nil {
		t.Fatalf("crash after acked batches lost state: %v", err)
	}
}
