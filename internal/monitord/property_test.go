package monitord

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/monitor"
	"repro/internal/tomography"
)

// The daemon's diagnosis must always equal an offline Localize over the
// currently known connection states, whatever the report order and
// across ExportState/RestoreState round trips — the event-driven path
// adds no approximation, and a restored monitor serves the diagnosis the
// exported one served. Errors count too: outside an outage Diagnosis
// fails, and in an outage no single node explains it fails with
// Localize's error.
func TestDaemonMatchesOfflineLocalization(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	// A separate stream picks the round trips, so the report streams stay
	// the ones seed 307 has always drawn.
	restores := rand.New(rand.NewSource(308))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(6)
		numConns := 2 + rng.Intn(4)
		paths := make([]*bitset.Set, numConns)
		for i := range paths {
			p := bitset.New(n)
			start := rng.Intn(n)
			for j := 0; j <= rng.Intn(3); j++ {
				p.Add((start + j) % n)
			}
			paths[i] = p
		}
		m, err := New(n, 1, paths)
		if err != nil {
			t.Fatal(err)
		}
		check := func(step int, after string) {
			t.Helper()
			daemonDiag, daemonErr := m.Diagnosis()
			if !m.InOutage() {
				if daemonDiag != nil || daemonErr == nil {
					t.Fatalf("trial %d step %d after %s: no outage, yet diagnosis %+v, error %v",
						trial, step, after, daemonDiag, daemonErr)
				}
				return
			}
			offlineDiag, offlineErr := offlineLocalize(n, paths, m)
			if fmt.Sprint(daemonErr) != fmt.Sprint(offlineErr) {
				t.Fatalf("trial %d step %d after %s: error disagreement: %v vs %v",
					trial, step, after, daemonErr, offlineErr)
			}
			if !reflect.DeepEqual(daemonDiag, offlineDiag) {
				t.Fatalf("trial %d step %d after %s: daemon %+v != offline %+v",
					trial, step, after, daemonDiag, offlineDiag)
			}
		}

		// Random report stream.
		for step := 0; step < 12; step++ {
			conn := rng.Intn(numConns)
			up := rng.Intn(2) == 0
			if _, err := m.Report(float64(step), conn, up); err != nil {
				t.Fatal(err)
			}
			check(step, "report")
			if restores.Intn(3) == 0 {
				restored, err := New(n, 1, paths)
				if err != nil {
					t.Fatal(err)
				}
				if err := restored.RestoreState(m.ExportState()); err != nil {
					t.Fatal(err)
				}
				m = restored
				check(step, "restore")
			}
		}
	}
}

// offlineLocalize rebuilds the observation from the daemon's visible
// state and runs plain tomography.
func offlineLocalize(n int, paths []*bitset.Set, m *Monitor) (*tomography.Diagnosis, error) {
	ps := monitor.NewPathSet(n)
	var failed []bool
	for i, p := range paths {
		switch m.State(i) {
		case StateUnknown:
			continue
		case StateUp:
			failed = append(failed, false)
		case StateDown:
			failed = append(failed, true)
		}
		if err := ps.Add(p); err != nil {
			return nil, err
		}
	}
	obs, err := tomography.NewObservation(ps, failed)
	if err != nil {
		return nil, err
	}
	return tomography.Localize(obs, 1)
}
