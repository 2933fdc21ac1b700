package server

// dedupWindow makes observation ingest idempotent under at-least-once
// delivery: it remembers the full responses of the last `capacity`
// successfully ingested batches by their client-supplied batch ID, so a
// retried or duplicated delivery replays the original answer — same
// events, same status — instead of re-applying the batch and emitting a
// divergent (usually empty) event list.
//
// The window is bounded FIFO: once capacity is exceeded the oldest entry
// is evicted, which keeps memory constant and matches the retry horizon —
// a client that retries a batch after the window has turned over is
// indistinguishable from a new batch, and the monitor's transition
// semantics make the re-application a harmless no-op.
//
// The window has no lock of its own: its tenant's mu guards it.
type dedupWindow struct {
	capacity int
	order    []string // ring buffer of IDs in insertion order
	next     int      // ring write cursor
	byID     map[string]dedupEntry
}

// dedupEntry is one cached ingest response.
type dedupEntry struct {
	status int
	body   []byte
}

// newDedupWindow creates a window remembering the last capacity batches;
// capacity must be positive.
func newDedupWindow(capacity int) *dedupWindow {
	return &dedupWindow{
		capacity: capacity,
		order:    make([]string, 0, capacity),
		byID:     make(map[string]dedupEntry, capacity),
	}
}

// lookup returns the cached response for id, if it is still in the
// window.
func (d *dedupWindow) lookup(id string) (dedupEntry, bool) {
	e, ok := d.byID[id]
	return e, ok
}

// store records the response for id, evicting the oldest entry when the
// window is full. Re-storing a present id refreshes its payload but not
// its eviction slot. It reports whether the window grew by one entry, so
// the caller can keep an aggregate gauge by delta (windows are per
// tenant; summing sizes on every store would touch other tenants).
func (d *dedupWindow) store(id string, e dedupEntry) bool {
	if _, ok := d.byID[id]; ok {
		d.byID[id] = e
		return false
	}
	grew := false
	if len(d.order) < d.capacity {
		d.order = append(d.order, id)
		grew = true
	} else {
		delete(d.byID, d.order[d.next])
		d.order[d.next] = id
		d.next = (d.next + 1) % d.capacity
	}
	d.byID[id] = e
	return grew
}

// size returns the number of cached batches (for the gauge).
func (d *dedupWindow) size() int {
	return len(d.byID)
}

// dedupRecord is one exported window entry, in insertion order, so a
// restored window evicts in exactly the order the original would have —
// the property that makes WAL-recovered dedup state byte-identical to a
// never-crashed daemon's.
type dedupRecord struct {
	ID     string `json:"id"`
	Status int    `json:"status"`
	Body   []byte `json:"body"`
}

// export captures the window's entries oldest first.
func (d *dedupWindow) export() []dedupRecord {
	out := make([]dedupRecord, 0, len(d.order))
	emit := func(id string) {
		e := d.byID[id]
		out = append(out, dedupRecord{ID: id, Status: e.status, Body: e.body})
	}
	if len(d.order) < d.capacity {
		// Not yet wrapped: order is already insertion order.
		for _, id := range d.order {
			emit(id)
		}
		return out
	}
	// Wrapped ring: the write cursor points at the oldest entry.
	for _, id := range d.order[d.next:] {
		emit(id)
	}
	for _, id := range d.order[:d.next] {
		emit(id)
	}
	return out
}

// restore replays exported entries (oldest first) into an empty window
// and returns how many entries it now holds.
func (d *dedupWindow) restore(recs []dedupRecord) int {
	grew := 0
	for _, r := range recs {
		if d.store(r.ID, dedupEntry{status: r.Status, body: r.Body}) {
			grew++
		}
	}
	return grew
}
