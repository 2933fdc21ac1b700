package server

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"slices"
)

// The compact form of emitted events. The dedup window and the audit
// ledger keep every event a batch emits in this form, once: the window
// entry and the ledger rows of one batch point at the same records.
// Nearly all of a diagnosis's bytes are two node lists. unobserved, the
// nodes on no reporting path, repeats event after event once every
// connection has reported, so it is interned per tenant; healthy is kept
// as a bitset over nodes. compactDiagnosisJSON builds a record from the
// wire struct and wire turns it back, so every byte a replay, an export
// or an audit read serves still comes out of encoding/json over the
// wire structs.

// compactEvent is one emitted event as the server keeps it.
type compactEvent struct {
	time float64
	kind string
	// diag is nil for events that carry no diagnosis.
	diag *compactDiagnosis
}

// compactDiagnosis is one emitted diagnosis as the server keeps it. It is
// immutable once built and may be shared by a dedup entry, audit rows and
// the monitor's own diagnosis, whose candidate lists it keeps as emitted.
type compactDiagnosis struct {
	candidates       [][]int
	definitelyFailed []int
	possiblyFailed   []int
	// healthy is the healthy list as a bitset over nodes (bit v of word
	// v/64) when the list is strictly ascending, as every emitted list is,
	// and no shorter than its bitset; healthyRaw is nil then. Otherwise
	// healthy is nil and healthyRaw holds the list as it came, nil
	// included.
	healthy    []uint64
	healthyRaw []int
	// unobserved is interned in its tenant's unobservedSet.
	unobserved []int
}

// noWords is the bitset of an empty healthy list: zero words, not nil.
var noWords = []uint64{}

// healthyWords reports how many bitset words hold the list h, or false
// when h is kept as a list: when it is nil, not strictly ascending over
// non-negative node IDs, or shorter than its bitset (a few healthy nodes
// in a large network).
func healthyWords(h []int) (int, bool) {
	if h == nil {
		return 0, false
	}
	if len(h) == 0 {
		return 0, true
	}
	n := h[len(h)-1]/64 + 1
	if h[0] < 0 || n > len(h) {
		return 0, false
	}
	for i := 1; i < len(h); i++ {
		if h[i] <= h[i-1] {
			return 0, false
		}
	}
	return n, true
}

// compactDiagnosisJSON fills c with the compact form of d. words must be
// zeroed and exactly healthyWords(d.Healthy) long when that list is
// canonical; the unobserved list is interned in u.
func compactDiagnosisJSON(c *compactDiagnosis, d *diagnosisJSON, words []uint64, u *unobservedSet) {
	*c = compactDiagnosis{
		candidates:       d.Candidates,
		definitelyFailed: d.DefinitelyFailed,
		possiblyFailed:   d.PossiblyFailed,
		unobserved:       u.intern(d.Unobserved),
	}
	if _, ok := healthyWords(d.Healthy); !ok {
		c.healthyRaw = d.Healthy
		return
	}
	if len(words) == 0 {
		words = noWords
	}
	for _, v := range d.Healthy {
		words[v/64] |= 1 << (v % 64)
	}
	c.healthy = words
}

// wire is the inverse of compactDiagnosisJSON: the wire struct the
// record was built from, equal field for field, nil lists included. A
// nil record gives nil.
func (c *compactDiagnosis) wire() *diagnosisJSON {
	if c == nil {
		return nil
	}
	d := new(diagnosisJSON)
	c.wireInto(d, make([]int, 0, c.healthyLen()))
	return d
}

// wireInto is wire into d, taking the healthy list from healthy's spare
// capacity, of which it needs healthyLen; it returns what is left.
func (c *compactDiagnosis) wireInto(d *diagnosisJSON, healthy []int) []int {
	*d = diagnosisJSON{
		Candidates:       c.candidates,
		DefinitelyFailed: c.definitelyFailed,
		PossiblyFailed:   c.possiblyFailed,
		Healthy:          c.healthyRaw,
		Unobserved:       c.unobserved,
	}
	if c.healthy == nil {
		return healthy
	}
	list := healthy[:0:c.healthyLen()]
	if list == nil {
		list = []int{} // an empty list, not a missing one
	}
	for i, w := range c.healthy {
		for w != 0 {
			list = append(list, i*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	d.Healthy = list
	return healthy[len(list):len(list)]
}

// healthyLen is how many ints wireInto takes for the healthy list.
func (c *compactDiagnosis) healthyLen() int {
	n := 0
	for _, w := range c.healthy {
		n += bits.OnesCount64(w)
	}
	return n
}

// equal reports whether c and o describe the same diagnosis.
func (c *compactDiagnosis) equal(o *compactDiagnosis) bool {
	if c == nil || o == nil {
		return c == o
	}
	return slices.EqualFunc(c.candidates, o.candidates, slices.Equal[[]int]) &&
		slices.Equal(c.definitelyFailed, o.definitelyFailed) &&
		slices.Equal(c.possiblyFailed, o.possiblyFailed) &&
		(c.healthy == nil) == (o.healthy == nil) && slices.Equal(c.healthy, o.healthy) &&
		(c.healthyRaw == nil) == (o.healthyRaw == nil) && slices.Equal(c.healthyRaw, o.healthyRaw) &&
		(c.unobserved == nil) == (o.unobserved == nil) && slices.Equal(c.unobserved, o.unobserved)
}

// compactDiagnosisOf is compactDiagnosisJSON into a record of its own.
func compactDiagnosisOf(d *diagnosisJSON, u *unobservedSet) *compactDiagnosis {
	if d == nil {
		return nil
	}
	n, _ := healthyWords(d.Healthy)
	c := new(compactDiagnosis)
	compactDiagnosisJSON(c, d, make([]uint64, n), u)
	return c
}

// compactEvents keeps one batch's wire events in compact form. The whole
// batch takes three allocations, however many events it emitted: its
// events, their diagnoses and their healthy bitsets. nil when there are
// no events.
func compactEvents(evs []eventJSON, u *unobservedSet) []compactEvent {
	if len(evs) == 0 {
		return nil
	}
	nd, nw := 0, 0
	for i := range evs {
		if d := evs[i].Diagnosis; d != nil {
			nd++
			n, _ := healthyWords(d.Healthy)
			nw += n
		}
	}
	out := make([]compactEvent, len(evs))
	diags := make([]compactDiagnosis, nd)
	words := make([]uint64, nw)
	for i, ev := range evs {
		out[i] = compactEvent{time: ev.Time, kind: ev.Kind}
		if ev.Diagnosis == nil {
			continue
		}
		n, _ := healthyWords(ev.Diagnosis.Healthy)
		compactDiagnosisJSON(&diags[0], ev.Diagnosis, words[:n:n], u)
		out[i].diag = &diags[0]
		diags, words = diags[1:], words[n:]
	}
	return out
}

// wireKept is the inverse of compactEvents: the observations response
// that carried the kept events, built in sc's reusable buffers. It is
// valid until sc is reused.
func (sc *obsScratch) wireKept(kept []compactEvent) obsResponse {
	nh := 0
	for _, ev := range kept {
		if ev.diag != nil {
			nh += ev.diag.healthyLen()
		}
	}
	sc.events = slices.Grow(sc.events[:0], len(kept))
	sc.diags = slices.Grow(sc.diags[:0], len(kept))[:len(kept)]
	sc.healthy = slices.Grow(sc.healthy[:0], nh)
	healthy := sc.healthy
	for i, ev := range kept {
		var d *diagnosisJSON
		if ev.diag != nil {
			d = &sc.diags[i]
			healthy = ev.diag.wireInto(d, healthy)
		}
		sc.events = append(sc.events, eventJSON{Time: ev.time, Kind: ev.kind, Diagnosis: d})
	}
	return obsResponse{Events: sc.events}
}

// exportDedup renders window entries as the records a snapshot or a
// migration document carries: each body is the bytes the entry replays,
// encoded through one scratch.
func exportDedup(items []dedupItem) []dedupRecord {
	if len(items) == 0 {
		return nil
	}
	sc := getObsScratch()
	defer putObsScratch(sc)
	out := make([]dedupRecord, len(items))
	for i, it := range items {
		out[i] = dedupRecord{ID: it.id, Status: it.entry.status, Body: emptyObsBody}
		if len(it.entry.events) == 0 {
			continue
		}
		// Cannot fail: every kept time was a JSON number, so it is finite.
		b, _ := sc.encode(sc.wireKept(it.entry.events))
		out[i].Body = bytes.Clone(b)
	}
	return out
}

// storedDiagnosis is a diagnosis as restore decodes it from a stored
// response body or ledger row: the wire struct, with the unobserved list
// still JSON text. Stored events repeat one unobserved list event after
// event, and it is most of their bytes, so storedLists decodes each run
// of equal texts once.
type storedDiagnosis struct {
	diagnosisJSON
	Unobserved json.RawMessage `json:"unobserved"`
}

// storedLists decodes the unobserved texts of one document's stored
// diagnoses in order; a text equal to the one before is not decoded
// again, and its events share the list.
type storedLists struct {
	text []byte
	list []int
}

// wire is d's wire struct, nil for nil.
func (l *storedLists) wire(d *storedDiagnosis) (*diagnosisJSON, error) {
	if d == nil {
		return nil, nil
	}
	if !bytes.Equal(d.Unobserved, l.text) {
		l.text, l.list = d.Unobserved, nil
		if len(l.text) > 0 { // a missing list decodes as nil
			if err := json.Unmarshal(l.text, &l.list); err != nil {
				return nil, err
			}
		}
	}
	w := d.diagnosisJSON
	w.Unobserved = l.list
	return &w, nil
}

// decodeObsBody compacts a stored response body (a snapshot's or a
// migration document's dedup entry), decoding it once with
// encoding/json; it decodes to the events json.Unmarshal into obsResponse
// gives.
func decodeObsBody(body []byte, u *unobservedSet, lists *storedLists) ([]compactEvent, error) {
	var stored struct {
		Events []struct {
			eventJSON
			Diagnosis *storedDiagnosis `json:"diagnosis"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &stored); err != nil {
		return nil, err
	}
	evs := make([]eventJSON, len(stored.Events))
	for i, e := range stored.Events {
		d, err := lists.wire(e.Diagnosis)
		if err != nil {
			return nil, err
		}
		evs[i] = e.eventJSON
		evs[i].Diagnosis = d
	}
	return compactEvents(evs, u), nil
}

// storedAudit is the ledger rows a snapshot or a migration document
// carries. It encodes as the wire rows do and decodes them through
// storedDiagnosis, so a ledger whose rows repeat one unobserved list
// decodes that list once.
type storedAudit []auditEvent

func (a *storedAudit) UnmarshalJSON(b []byte) error {
	var rows []struct {
		auditEvent
		Diagnosis *storedDiagnosis `json:"diagnosis"`
	}
	if err := json.Unmarshal(b, &rows); err != nil {
		return err
	}
	var lists storedLists
	out := make(storedAudit, len(rows))
	for i, r := range rows {
		d, err := lists.wire(r.Diagnosis)
		if err != nil {
			return err
		}
		out[i] = r.auditEvent
		out[i].Diagnosis = d
	}
	*a = out
	return nil
}

// unobservedSet interns one tenant's unobserved lists: a kept event whose
// list equals the last one kept shares its copy. A monitor's lists only
// shrink while connections first report and then stay equal, so equal
// lists arrive one after another, and a tenant holds at most one per
// connection plus one, and the lists of restored entries. A tenant built
// by a network replacement starts a set of its own, and the entries it
// adopts keep pointing at the old network's lists.
type unobservedSet struct {
	last []int
}

// intern returns the set's copy of list when it equals the last list
// kept, and list itself otherwise; the lists are immutable. Empty lists,
// nil or not, come back as they are.
func (u *unobservedSet) intern(list []int) []int {
	if len(list) == 0 {
		return list
	}
	// The monitor hands out one list until a connection first reports.
	if len(u.last) == len(list) && &u.last[0] == &list[0] || slices.Equal(u.last, list) {
		return u.last
	}
	u.last = list
	return list
}

// shareKept points the diagnosis of ev at an equal one among kept with
// the same time and kind, if there is one, so a restored or replayed
// ledger row and window entry keep one record between them.
func shareKept(ev *compactEvent, kept []compactEvent) {
	for i := range kept {
		k := &kept[i]
		if k.time == ev.time && k.kind == ev.kind && k.diag != nil && k.diag.equal(ev.diag) {
			ev.diag = k.diag
			return
		}
	}
}
