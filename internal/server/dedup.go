package server

// dedupWindow makes observation ingest idempotent under at-least-once
// delivery: it remembers the status and the emitted events of the last
// `capacity` successfully ingested batches by their client-supplied
// batch ID, so a retried or duplicated delivery replays the original
// answer — same events, same status, the same bytes re-encoded from the
// kept events — instead of re-applying the batch and emitting a
// divergent (usually empty) event list. The events are kept in compact
// form (see compactEvent), shared with the audit ledger in WAL mode.
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

// dedupEntry is one remembered ingest answer: its status and the events
// its body carried (nil when it carried none).
type dedupEntry struct {
	status int
	events []compactEvent
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
// never-crashed daemon's. Body is the response body the entry replays.
type dedupRecord struct {
	ID     string `json:"id"`
	Status int    `json:"status"`
	Body   []byte `json:"body"`
}

// dedupItem is one window entry with its ID.
type dedupItem struct {
	id    string
	entry dedupEntry
}

// entries copies the window's entries oldest first.
func (d *dedupWindow) entries() []dedupItem {
	out := make([]dedupItem, 0, len(d.order))
	// Until the ring wraps, order is insertion order; after, the write
	// cursor points at the oldest entry.
	for _, id := range d.order[d.next:] {
		out = append(out, dedupItem{id, d.byID[id]})
	}
	for _, id := range d.order[:d.next] {
		out = append(out, dedupItem{id, d.byID[id]})
	}
	return out
}
