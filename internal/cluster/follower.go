package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"wilocator/internal/traveltime"
)

// replicaRunner maintains this node's replica of one remote leader's WAL
// lineage: it dials the leader's shipping listener (with backoff), pulls
// snapshot resyncs and WAL chunks, fsyncs each chunk before acking, and —
// when the leader falls silent for FailoverAfter — declares it dead and,
// on the designated survivor, promotes the replica.
type replicaRunner struct {
	node   *Node
	leader NodeSpec
	rep    *traveltime.Replica

	// Observability snapshots, updated by the stream goroutine and read by
	// Status/lag/metrics without touching the non-concurrency-safe rep.
	gen           atomic.Uint64
	localLen      atomic.Int64
	leaderDurable atomic.Int64
	lastHeard     atomic.Int64 // unix nanos of the last frame from the leader
}

func newReplicaRunner(n *Node, leader NodeSpec, rep *traveltime.Replica) *replicaRunner {
	r := &replicaRunner{node: n, leader: leader, rep: rep}
	gen, walLen := rep.State()
	r.gen.Store(gen)
	r.localLen.Store(walLen)
	return r
}

func (r *replicaRunner) heardAgo() time.Duration {
	return time.Duration(nanotime() - r.lastHeard.Load())
}

// nanotime is the failover clock. Real time, deliberately not the injected
// simulation clock: leader silence is a property of the actual network.
func nanotime() int64 { return time.Now().UnixNano() }

// run is the runner's life: connect, replicate, reconnect — until the
// context ends or the leader is declared dead.
func (r *replicaRunner) run(ctx context.Context) {
	cfg := r.node.cfg
	r.lastHeard.Store(nanotime()) // grace period from startup
	backoff := 50 * time.Millisecond
	for ctx.Err() == nil {
		if r.heardAgo() > cfg.FailoverAfter {
			r.failover(ctx)
			return
		}
		conn, err := r.dial(ctx)
		if err == nil {
			backoff = 50 * time.Millisecond
			err = r.stream(ctx, conn)
			r.node.untrackConn(conn)
			if err != nil && ctx.Err() == nil {
				r.node.logf("cluster %s: replica stream from %s: %v", r.node.self.ID, r.leader.ID, err)
			}
			continue
		}
		// Dial failed: wait out the backoff, but never sleep past the
		// failover deadline.
		d := backoff
		if rem := cfg.FailoverAfter - r.heardAgo(); rem < d {
			d = rem + time.Millisecond
		}
		if d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

func (r *replicaRunner) dial(ctx context.Context) (net.Conn, error) {
	dctx, cancel := context.WithTimeout(ctx, r.node.cfg.DialTimeout)
	defer cancel()
	conn, err := (&net.Dialer{}).DialContext(dctx, "tcp", r.leader.ReplAddr)
	if err != nil {
		return nil, err
	}
	if !r.node.trackConn(conn) {
		conn.Close()
		return nil, errors.New("cluster: node closed")
	}
	return conn, nil
}

// stream runs one replication session over conn: hello, then frames until
// error. Every received frame refreshes the liveness clock; every WAL
// chunk is fsynced (inside Replica.AppendWAL) before the ack leaves.
func (r *replicaRunner) stream(ctx context.Context, conn net.Conn) error {
	cfg := r.node.cfg
	gen, walLen := r.rep.State()
	hello, err := appendShipFrame(nil, msgHello, shipHello{
		Follower: r.node.self.ID, Gen: gen, WALLen: walLen, Bare: !r.rep.HasLineage(),
	})
	if err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
	if _, err := conn.Write(hello); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	var scratch, snapBuf, ackBuf []byte
	var snap shipSnapBegin
	inSnap := false
	for {
		// The read deadline doubles as the failover detector's tick: when
		// it expires we return, and run() checks the silence budget.
		conn.SetReadDeadline(time.Now().Add(cfg.FailoverAfter))
		t, body, s, err := readShipFrame(br, scratch)
		scratch = s
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
		r.lastHeard.Store(nanotime())
		ack := int64(-1)
		switch t {
		case msgSnapBegin:
			if err := decodeShipBody(t, body, &snap); err != nil {
				return err
			}
			inSnap, snapBuf = true, snapBuf[:0]
		case msgSnapChunk:
			var c shipSnapChunk
			if err := decodeShipBody(t, body, &c); err != nil {
				return err
			}
			if !inSnap {
				return errors.New("snapshot chunk outside a resync")
			}
			snapBuf = append(snapBuf, c.Data...)
		case msgSnapEnd:
			var end shipSnapEnd
			if err := decodeShipBody(t, body, &end); err != nil {
				return err
			}
			if !inSnap || end.Gen != snap.Gen || int64(len(snapBuf)) != end.Size {
				return fmt.Errorf("resync mismatch: got %d bytes of gen %d, want %d of gen %d",
					len(snapBuf), snap.Gen, end.Size, end.Gen)
			}
			if snap.Bare {
				err = r.rep.BeginBare(snap.Gen)
			} else {
				err = r.rep.InstallSnapshot(snap.Gen, snapBuf)
			}
			if err != nil {
				return err
			}
			inSnap = false
			r.gen.Store(snap.Gen)
			r.localLen.Store(0)
			r.node.logf("cluster %s: resynced %s at gen %d (%d snapshot bytes)",
				r.node.self.ID, r.leader.ID, snap.Gen, len(snapBuf))
			ack = 0
		case msgWALChunk:
			var c shipWALChunk
			if err := decodeShipBody(t, body, &c); err != nil {
				return err
			}
			_, have := r.rep.State()
			if c.Off < have { // duplicate after a reconnect: drop the known prefix
				if int64(len(c.Data)) <= have-c.Off {
					ack = have
					break
				}
				c.Data = c.Data[have-c.Off:]
				c.Off = have
			}
			if err := r.rep.AppendWAL(c.Gen, c.Off, c.Data); err != nil {
				return err
			}
			_, now := r.rep.State()
			r.gen.Store(c.Gen)
			r.localLen.Store(now)
			ack = now
		case msgHeartbeat:
			var hb shipHeartbeat
			if err := decodeShipBody(t, body, &hb); err != nil {
				return err
			}
			r.leaderDurable.Store(hb.Durable)
			_, have := r.rep.State()
			ack = have
		default:
			return fmt.Errorf("unexpected ship message %d", t)
		}
		if ack >= 0 {
			g, _ := r.rep.State()
			ackBuf, err = appendShipFrame(ackBuf[:0], msgAck, shipAck{Gen: g, Durable: ack})
			if err != nil {
				return err
			}
			conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
			if _, err := conn.Write(ackBuf); err != nil {
				return fmt.Errorf("ack: %w", err)
			}
		}
	}
}

// failover declares the leader dead and, on the designated survivor,
// promotes the local replica.
func (r *replicaRunner) failover(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	n := r.node
	surv, _ := n.cfg.Topology.Survivor(r.leader.ID)
	n.mu.Lock()
	n.owner = surv
	n.mu.Unlock()
	n.logf("cluster %s: leader %s lost; %s takes over", n.self.ID, r.leader.ID, surv)
	if surv != n.self.ID {
		return
	}
	if err := n.promote(r.rep); err != nil {
		n.logf("cluster %s: promotion of %s FAILED: %v", n.self.ID, r.leader.ID, err)
	}
}
