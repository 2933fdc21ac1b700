package main

import (
	"fmt"
	"slices"

	placemon "repro"
	"repro/placemonclient"
)

// localized is one cached facade localization.
type localized struct {
	diag *placemon.Diagnosis
	err  error
}

// localize is the facade's from-scratch diagnosis of the deployed
// placement with the given connections down. An error means no failure
// set within the budget explains the states.
func (t *tenant) localize(down []bool) (*placemon.Diagnosis, error) {
	key := string(boolBytes(down))
	if l, ok := t.localized[key]; ok {
		return l.diag, l.err
	}
	obs := *t.base
	obs.Failed = slices.Clone(down)
	d, err := t.nw.Localize(&obs, 1)
	t.localized[key] = localized{d, err}
	return d, err
}

func boolBytes(bs []bool) []byte {
	out := make([]byte, len(bs))
	for i, b := range bs {
		if b {
			out[i] = 1
		}
	}
	return out
}

// model is the benchmark's reference for one scenario's event stream: the
// daemon's rolling-diagnosis protocol applied report by report (an outage
// starts with the first down connection, a diagnosis-changed event fires
// when the candidate sets change, the outage clears when every connection
// is up), with every diagnosis computed from scratch by the facade. It
// starts from every connection up, which the setup's priming batch
// establishes.
type model struct {
	t        *tenant
	down     []bool
	nDown    int
	inOutage bool
	lastKey  string
}

func newModel(t *tenant) *model { return &model{t: t, down: make([]bool, len(t.paths))} }

// wantEvent is one event the model predicts.
type wantEvent struct {
	kind string
	diag *placemon.Diagnosis
}

// apply feeds a batch and returns the events the daemon must answer.
func (m *model) apply(b batch) []wantEvent {
	var out []wantEvent
	for _, r := range b.reports {
		d := !r.Up
		if m.down[r.Connection] == d {
			continue
		}
		m.down[r.Connection] = d
		if d {
			m.nDown++
		} else {
			m.nDown--
		}
		switch {
		case m.nDown > 0 && !m.inOutage:
			m.inOutage = true
			diag, err := m.t.localize(m.down)
			if err != nil {
				m.lastKey = "!"
				out = append(out, wantEvent{kind: "outage-started"}, wantEvent{kind: "inconsistent"})
				continue
			}
			m.lastKey = candidatesKey(diag.Candidates)
			out = append(out, wantEvent{"outage-started", diag})
		case m.nDown > 0:
			diag, err := m.t.localize(m.down)
			if err != nil {
				if m.lastKey != "!" {
					m.lastKey = "!"
					out = append(out, wantEvent{kind: "inconsistent"})
				}
				continue
			}
			if k := candidatesKey(diag.Candidates); k != m.lastKey {
				m.lastKey = k
				out = append(out, wantEvent{"diagnosis-changed", diag})
			}
		case m.inOutage:
			m.inOutage = false
			m.lastKey = ""
			out = append(out, wantEvent{kind: "outage-cleared"})
		}
	}
	return out
}

func candidatesKey(cands [][]int) string { return fmt.Sprint(cands) }

// checkIngest applies the op's batch to the model and compares the
// daemon's reply with the predicted events. It also checks that the state
// the batch leaves is diagnosed with the injected failure among the
// candidates.
func (m *model) checkIngest(b batch, res *placemonclient.IngestResult) error {
	want := m.apply(b)
	if len(res.Events) != len(want) {
		return fmt.Errorf("reply has %d events, the model %d", len(res.Events), len(want))
	}
	for i, ev := range res.Events {
		if ev.Kind != want[i].kind {
			return fmt.Errorf("event %d is %s, the model's %s", i, ev.Kind, want[i].kind)
		}
		if err := sameDiagnosis(ev.Diagnosis, want[i].diag); err != nil {
			return fmt.Errorf("event %d (%s): %w", i, ev.Kind, err)
		}
	}
	if b.failed >= 0 && m.nDown > 0 {
		final, err := m.t.localize(m.down)
		if err != nil {
			return fmt.Errorf("failure %d left an inconsistent state: %w", b.failed, err)
		}
		if !slices.ContainsFunc(final.Candidates, func(c []int) bool { return slices.Equal(c, []int{b.failed}) }) {
			return fmt.Errorf("injected failure %d is not a candidate", b.failed)
		}
	}
	return nil
}

// checkDiagnosis compares a GET …/diagnosis answer with the model's
// current state.
func (m *model) checkDiagnosis(got *placemonclient.DiagnosisResponse) error {
	if got.InOutage != m.inOutage {
		return fmt.Errorf("in_outage=%t, the model's %t", got.InOutage, m.inOutage)
	}
	if got.Stale {
		return fmt.Errorf("stale diagnosis served")
	}
	if !m.inOutage {
		return sameDiagnosis(got.Diagnosis, nil)
	}
	want, err := m.t.localize(m.down)
	if err != nil {
		want = nil
	}
	return sameDiagnosis(got.Diagnosis, want)
}

// sameDiagnosis compares the wire and facade forms field by field; an
// empty list equals a missing one.
func sameDiagnosis(got *placemonclient.Diagnosis, want *placemon.Diagnosis) error {
	switch {
	case got == nil && want == nil:
		return nil
	case got == nil:
		return fmt.Errorf("no diagnosis, the facade's has candidates %v", want.Candidates)
	case want == nil:
		return fmt.Errorf("diagnosis %v, the facade has none", got.Candidates)
	}
	eq := func(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b)) }
	switch {
	case !slices.EqualFunc(got.Candidates, want.Candidates, eq):
		return fmt.Errorf("candidates %v, the facade's %v", got.Candidates, want.Candidates)
	case !eq(got.DefinitelyFailed, want.DefinitelyFailed), !eq(got.PossiblyFailed, want.PossiblyFailed),
		!eq(got.Healthy, want.Healthy), !eq(got.Unobserved, want.Unobserved):
		return fmt.Errorf("node classes differ from the facade's for candidates %v", want.Candidates)
	}
	return nil
}
