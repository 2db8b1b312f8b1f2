package server

import "sync"

// busTable is the sharded bus registry: a power-of-two number of shards,
// each a small map guarded by its own mutex, keyed by hash(busID). A city
// fleet ingests concurrently — reports of buses landing on different shards
// never touch the same lock, and even same-shard buses only share the brief
// map-lookup critical section (the heavy per-bus work runs under the bus's
// own lock, see busState.mu).
type busTable struct {
	mask   uint64
	shards []busShard
}

type busShard struct {
	mu    sync.Mutex
	buses map[string]*busState
}

// newBusTable creates a table with at least n shards, rounded up to the
// next power of two so the shard index is a mask, not a modulo.
func newBusTable(n int) *busTable {
	if n < 1 {
		n = 1
	}
	size := 1
	for size < n {
		size <<= 1
	}
	t := &busTable{mask: uint64(size - 1), shards: make([]busShard, size)}
	for i := range t.shards {
		t.shards[i].buses = make(map[string]*busState)
	}
	return t
}

// shard returns the shard owning busID.
func (t *busTable) shard(busID string) *busShard {
	return &t.shards[fnv1a(busID)&t.mask]
}

// getOrCreate returns the bus's state, inserting an empty (unregistered)
// one if absent. Registration itself (building the tracker) happens later
// under the bus's own lock so tracker construction never blocks the shard.
func (t *busTable) getOrCreate(busID string) *busState {
	sh := t.shard(busID)
	sh.mu.Lock()
	bs := sh.buses[busID]
	if bs == nil {
		bs = &busState{}
		sh.buses[busID] = bs
	}
	sh.mu.Unlock()
	return bs
}

// forEach calls f for every tracked bus, shard by shard. f runs with the
// shard lock held (so entries cannot be evicted mid-iteration) and must
// acquire bs.mu itself before touching mutable bus state; it must not call
// back into the table.
func (t *busTable) forEach(f func(id string, bs *busState)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for id, bs := range sh.buses {
			f(id, bs)
		}
		sh.mu.Unlock()
	}
}

// fnv1a is the 64-bit FNV-1a string hash — tiny, allocation-free and well
// distributed for short bus IDs.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
