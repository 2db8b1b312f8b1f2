package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wilocator/internal/api"
)

// This file is the delta-push subsystem behind GET /v1/stream: one snapshot
// diff per (epoch, route) fans out to every subscriber of that route, so N
// watchers cost one diff computation and one render, not N.
//
// # Stream head
//
// The broadcaster keeps its own head: the last snapshot it diffed against
// (prev) and that snapshot's epoch (lastEpoch). Every subscriber state is
// always exactly at a head epoch — catch-up snapshots are rendered from
// prev, not from whatever newer snapshot a GET may have published — so a
// delta chained off prev applies cleanly to every client. Without this
// alignment a client that snapshotted between two broadcasts could keep a
// ghost vehicle (one that appeared and vanished entirely between the two
// broadcast epochs would be in neither the delta's base nor its target, so
// no removal would ever be sent).
//
// # Shedding and resume
//
// Each subscriber owns a bounded channel of rendered frames. A frame that
// does not fit is never waited for: the subscriber is shed (removed, channel
// closed) so one stalled reader cannot block the publisher or its peers.
// The per-route ring keeps the recent delta frames; a shed client reconnects
// with ?from=<last epoch it applied> and is replayed the missed suffix when
// the ring still covers it, or handed a fresh full snapshot when it does not.
//
// Lock ordering: snap.mu → broadcaster.mu (subscribe loads the read snapshot
// before taking b.mu; broadcast is called with snap.mu released). Nothing
// under b.mu ever takes a service lock.

// ringSize bounds the per-route resume window: a reconnecting client whose
// ?from= epoch fell out of the last ringSize broadcast deltas gets a full
// snapshot instead of a replay.
const ringSize = 64

// errStreamFull is returned by subscribe when the broadcaster is at its
// configured subscriber capacity.
var errStreamFull = errors.New("server: stream subscriber limit reached")

// ringFrame is one broadcast delta retained for resume: the rendered SSE
// bytes plus the epoch interval [base → epoch] the delta covers.
type ringFrame struct {
	base  uint64 // head epoch the delta was computed against
	epoch uint64
	frame []byte
}

// subscriber is one /v1/stream connection. The handler drains ch until it is
// closed (shed or broadcaster shutdown) or the request context ends.
type subscriber struct {
	route string
	ch    chan []byte
}

// routeState is the broadcaster's per-route fan-out state.
type routeState struct {
	subs map[*subscriber]struct{}
	ring []ringFrame // oldest first, chained: ring[i].base == ring[i-1].epoch
}

// broadcaster fans snapshot deltas out to SSE subscribers.
type broadcaster struct {
	svc     *Service
	buffer  int // per-subscriber frame buffer
	maxSubs int

	// pumpActive gates poke's wake-up send so markDirty stays a cheap atomic
	// check until the first subscriber starts the pump.
	pumpActive atomic.Bool
	wake       chan struct{} // capacity 1; coalesces dirty notifications

	mu        sync.Mutex
	routes    map[string]*routeState
	prev      *readSnapshot // stream head; nil until the first subscriber
	lastEpoch uint64        // head epoch (prev.epoch when prev != nil)
	nsubs     int
	pumpOn    bool
	closed    bool
	done      chan struct{}
	wg        sync.WaitGroup
}

func newBroadcaster(svc *Service, buffer, maxSubs int) *broadcaster {
	return &broadcaster{
		svc:     svc,
		buffer:  buffer,
		maxSubs: maxSubs,
		wake:    make(chan struct{}, 1),
		routes:  make(map[string]*routeState),
		done:    make(chan struct{}),
	}
}

// poke nudges the pump after a mutation. Non-blocking: the capacity-1 wake
// channel coalesces any number of dirty bumps into one pending publish.
func (b *broadcaster) poke() {
	if !b.pumpActive.Load() {
		return
	}
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// pumpCoalesce is how long the pump waits after a wake before it publishes.
// Reports arrive in upload frames, and markDirty pokes on the first report
// of a frame; publishing at once would run the publish alongside the rest of
// that frame's ingest (stretching its ack) and leave the frame's tail for a
// second epoch. The window is longer than ingesting and acknowledging one
// frame and short against the frame interval, so one frame is one epoch.
const pumpCoalesce = 2 * time.Millisecond

// pump turns dirty notifications into snapshot publishes and broadcasts,
// one per coalescing window. It is started lazily by the first subscriber
// and runs until close; joined via the broadcaster WaitGroup.
func (b *broadcaster) pump() {
	defer b.wg.Done()
	for {
		select {
		case <-b.done:
			return
		case <-b.wake:
		}
		window := time.NewTimer(pumpCoalesce)
		select {
		case <-b.done:
			window.Stop()
			return
		case <-window.C:
		}
		// The publish below covers every poke of the window.
		select {
		case <-b.wake:
		default:
		}
		b.svc.PublishSnapshot()
	}
}

// subscribe registers a new stream subscriber for route and returns the
// catch-up frames the handler must write before draining sub.ch: nothing
// when from is already the head epoch, the ring suffix when it still covers
// from, or one full snapshot frame otherwise.
func (b *broadcaster) subscribe(route string, from uint64) (*subscriber, [][]byte, error) {
	// Load (and possibly publish) the read snapshot before taking b.mu —
	// currentSnapshot may take snap.mu, which is ordered before b.mu.
	cur := b.svc.currentSnapshot()

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, nil, errors.New("server: broadcaster closed")
	}
	if b.nsubs >= b.maxSubs {
		return nil, nil, errStreamFull
	}
	if b.prev == nil {
		// First subscriber pins the stream head so every later catch-up and
		// delta chains from a common base.
		b.prev = cur
		b.lastEpoch = cur.epoch
	}

	sub := &subscriber{route: route, ch: make(chan []byte, b.buffer)}
	rs := b.routes[route]
	if rs == nil {
		rs = &routeState{subs: make(map[*subscriber]struct{})}
		b.routes[route] = rs
	}
	rs.subs[sub] = struct{}{}
	b.nsubs++
	b.svc.read.subscribers.Add(1)

	if !b.pumpOn {
		b.pumpOn = true
		b.pumpActive.Store(true)
		b.wg.Add(1)
		go b.pump()
	}

	if from > 0 {
		b.svc.read.streamResumes.Add(1)
	}

	var initial [][]byte
	switch {
	case from == b.lastEpoch:
		// Client already holds the head state; deltas will chain from it.
	case from > 0 && rs.ringCovers(from, b.lastEpoch):
		for _, rf := range rs.ring {
			if rf.base >= from {
				initial = append(initial, rf.frame)
			}
		}
	default:
		initial = append(initial, b.headSnapshotFrame(route))
	}
	b.svc.read.streamFrames.Add(uint64(len(initial)))
	return sub, initial, nil
}

// ringCovers reports whether the retained delta chain replays a client at
// epoch from up to head: some retained frame must start exactly at from and
// the chain must reach head (the chain property ring[i].base ==
// ring[i-1].epoch makes the suffix contiguous by construction).
func (rs *routeState) ringCovers(from, head uint64) bool {
	if rs == nil || len(rs.ring) == 0 || rs.ring[len(rs.ring)-1].epoch != head {
		return false
	}
	for _, rf := range rs.ring {
		if rf.base == from {
			return true
		}
	}
	return false
}

// headSnapshotFrame renders the full-state catch-up event of one route from
// the stream head. Caller holds b.mu and has ensured b.prev != nil.
func (b *broadcaster) headSnapshotFrame(route string) []byte {
	snap := b.prev
	return sseFrame(api.EventSnapshot, snap.epoch, api.StreamSnapshot{
		Epoch:       snap.epoch,
		RouteID:     route,
		GeneratedAt: snap.generatedAt,
		Vehicles:    snap.vehiclesOf(route),
		Strip:       snap.tmaps[route].resp.Strip,
	})
}

// unsubscribe removes a subscriber (idempotent with shedding: membership in
// the route set decides who closes the channel).
func (b *broadcaster) unsubscribe(sub *subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rs := b.routes[sub.route]
	if rs == nil {
		return
	}
	if _, ok := rs.subs[sub]; !ok {
		return // already shed (or the broadcaster closed); channel is closed
	}
	delete(rs.subs, sub)
	b.nsubs--
	b.svc.read.subscribers.Add(-1)
	close(sub.ch)
}

// broadcast advances the stream head to cur and fans the per-route deltas
// out. Each epoch is processed at most once (the pump and explicit
// PublishSnapshot callers may race; the head guard dedupes them), and each
// route's diff is computed and rendered exactly once regardless of how many
// subscribers it has.
func (b *broadcaster) broadcast(cur *readSnapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.prev == nil || cur.epoch <= b.lastEpoch {
		return
	}
	for route, rs := range b.routes {
		if len(rs.subs) == 0 && len(rs.ring) == 0 {
			continue
		}
		delta := computeDelta(b.prev, cur, route)
		b.svc.read.streamDeltas.Add(1)
		frame := sseFrame(api.EventDelta, cur.epoch, delta)

		rs.ring = append(rs.ring, ringFrame{base: b.lastEpoch, epoch: cur.epoch, frame: frame})
		if len(rs.ring) > ringSize {
			rs.ring = rs.ring[len(rs.ring)-ringSize:]
		}

		for sub := range rs.subs {
			select {
			case sub.ch <- frame:
				b.svc.read.streamFrames.Add(1)
			default:
				// Slow client: shed rather than block the fan-out. The client
				// resumes with ?from= and is replayed from the ring.
				delete(rs.subs, sub)
				b.nsubs--
				b.svc.read.subscribers.Add(-1)
				b.svc.read.streamDropped.Add(1)
				close(sub.ch)
			}
		}
	}
	b.prev = cur
	b.lastEpoch = cur.epoch
}

// close shuts the broadcaster down: the pump exits, every subscriber channel
// closes (their handlers end the responses), and further subscribes fail.
// Idempotent.
func (b *broadcaster) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.pumpActive.Store(false)
	close(b.done)
	for _, rs := range b.routes {
		for sub := range rs.subs {
			delete(rs.subs, sub)
			b.nsubs--
			b.svc.read.subscribers.Add(-1)
			close(sub.ch)
		}
	}
	b.mu.Unlock()
	b.wg.Wait()
}

// computeDelta diffs one route between two snapshots. VehicleStatus is a
// comparable struct of scalars, so != is an exact field-wise change test.
func computeDelta(prev, cur *readSnapshot, route string) api.StreamDelta {
	delta := api.StreamDelta{Epoch: cur.epoch, RouteID: route}

	prevVs := prev.vehiclesOf(route)
	curVs := cur.vehiclesOf(route)
	prevByID := make(map[string]api.VehicleStatus, len(prevVs))
	for _, v := range prevVs {
		prevByID[v.BusID] = v
	}
	for _, v := range curVs {
		old, ok := prevByID[v.BusID]
		if !ok || old != v {
			delta.Updated = append(delta.Updated, v)
		}
		delete(prevByID, v.BusID)
	}
	if len(prevByID) > 0 {
		delta.Removed = make([]string, 0, len(prevByID))
		for id := range prevByID {
			delta.Removed = append(delta.Removed, id)
		}
		sort.Strings(delta.Removed)
	}

	if prevStrip, curStrip := prev.tmaps[route].resp.Strip, cur.tmaps[route].resp.Strip; prevStrip != curStrip {
		delta.Strip = curStrip
		delta.StripChanged = true
	}
	return delta
}

// sseFrame renders one server-sent event: the event name, the epoch as the
// event ID (so EventSource's Last-Event-ID maps onto ?from=), and the JSON
// payload. json.Marshal never emits raw newlines, so the payload is a single
// data: line.
func sseFrame(event string, id uint64, v any) []byte {
	payload, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("server: stream encode: %v", err))
	}
	return []byte(fmt.Sprintf("event: %s\nid: %d\ndata: %s\n\n", event, id, payload))
}
