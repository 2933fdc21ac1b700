package wal

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// crashWorkload is the deterministic op stream the crash matrix drives:
// numbered observation records, with (in compact mode) a fold every
// compactEvery appends. The op index is recoverable from the log alone,
// so a resumed life knows exactly where to pick up.
type crashWorkload struct {
	ops          int
	payloadBytes int
	segmentBytes int64
	compactEvery int
}

func (w crashWorkload) payload(i int) []byte {
	p := make([]byte, w.payloadBytes)
	copy(p, fmt.Sprintf("op-%06d|", i))
	return p
}

func (w crashWorkload) state(applied uint64) []byte {
	return []byte(fmt.Sprintf(`{"applied":%d}`, applied))
}

// run appends ops [from, w.ops) to l, compacting on schedule. It returns
// the index of the first op that did NOT get acknowledged (== w.ops on a
// clean run) and the error that stopped it.
func (w crashWorkload) run(t *testing.T, l *Log, from int) (int, error) {
	t.Helper()
	for i := from; i < w.ops; i++ {
		if _, err := l.Append(TypeObservations, w.payload(i)); err != nil {
			return i, err
		}
		applied := i + 1
		if w.compactEvery > 0 && applied%w.compactEvery == 0 {
			if err := l.Compact(w.state(uint64(applied))); err != nil {
				return applied, err
			}
		}
	}
	return w.ops, nil
}

// applied reads how many ops a recovered log has absorbed: the snapshot's
// fold point plus the replay tail.
func appliedOps(t *testing.T, rec *Recovery) int {
	t.Helper()
	base := 0
	if len(rec.SnapshotState) > 0 {
		var s struct {
			Applied int `json:"applied"`
		}
		if err := json.Unmarshal(rec.SnapshotState, &s); err != nil {
			t.Fatalf("snapshot state %q: %v", rec.SnapshotState, err)
		}
		base = s.Applied
	}
	if base != int(rec.SnapshotSeq) {
		t.Fatalf("snapshot state applied=%d but seq=%d", base, rec.SnapshotSeq)
	}
	return base + len(rec.Records)
}

// durableNames are the -wal-sync names of the durable mode; the crash
// tests run it under each, so neither name can drift to a weaker mode.
var durableNames = []string{"always", "group"}

// TestCrashMatrix is the wal-level half of the crash-injection
// acceptance criterion: for seeded kill points landing mid-append,
// mid-rotation, and mid-compaction, under each name of the durable sync
// mode, a recovered log (a) keeps every acknowledged record, (b) holds
// exactly a prefix of the reference op stream, and (c) after finishing
// the workload, is hash-chain-identical to a never-crashed reference run
// — verified offline by Check, the engine behind `placemon fsck`.
func TestCrashMatrix(t *testing.T) {
	modes := []struct {
		name string
		w    crashWorkload
	}{
		{"append", crashWorkload{ops: 60, payloadBytes: 200, segmentBytes: 1 << 20}},
		{"rotate", crashWorkload{ops: 60, payloadBytes: 600, segmentBytes: 4 << 10}},
		{"compact", crashWorkload{ops: 60, payloadBytes: 200, segmentBytes: 4 << 10, compactEvery: 10}},
	}
	const seeds = 10
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			// Reference life: never crashes. Its total FS cost also sizes
			// the seeded budgets so kills land inside the workload. The
			// log bytes do not depend on the sync mode, so one reference
			// serves every mode.
			refDir := t.TempDir()
			refFS := NewCrashFSBudget(OSFS{}, 1<<60)
			refLog, _, err := Open(refDir, Options{Sync: SyncAlways, SegmentBytes: mode.w.segmentBytes, FS: refFS})
			if err != nil {
				t.Fatal(err)
			}
			if n, err := mode.w.run(t, refLog, 0); err != nil || n != mode.w.ops {
				t.Fatalf("reference run stopped at %d: %v", n, err)
			}
			_, refHead := refLog.HeadHex()
			refSeqs := refLog.LastSeq()
			if err := refLog.Close(); err != nil {
				t.Fatal(err)
			}
			cost := (1 << 60) - refFS.budget
			if cost <= 0 {
				t.Fatal("reference consumed no budget")
			}

			for seed := int64(1); seed <= seeds; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					budget := 1 + rng.Int63n(cost)
					for _, name := range durableNames {
						t.Run(name, func(t *testing.T) {
							syncMode, err := ParseSyncMode(name)
							if err != nil {
								t.Fatal(err)
							}
							mode.w.crashLife(t, syncMode, budget, refSeqs, refHead)
						})
					}
				})
			}
		})
	}
}

// crashLife runs the workload under syncMode until the byte budget kills
// it, recovers, finishes the workload, and checks the result against
// the never-crashed reference's final sequence and chain head.
func (w crashWorkload) crashLife(t *testing.T, syncMode SyncMode, budget int64, refSeqs uint64, refHead string) {
	t.Helper()
	dir := t.TempDir()
	fs := NewCrashFSBudget(OSFS{}, budget)

	// First life: run until the injected crash (or clean finish when the
	// budget covers everything).
	acked := 0
	l, _, err := Open(dir, Options{Sync: syncMode, SegmentBytes: w.segmentBytes, FS: fs})
	if err == nil {
		acked, err = w.run(t, l, 0)
		l.Abort()
	}
	crashed := fs.Crashed()
	if err != nil && !crashed {
		t.Fatalf("first life failed without a crash: %v", err)
	}

	// Second life: the frozen remains, no fault injection.
	fs.Disarm()
	l2, rec, err := Open(dir, Options{Sync: syncMode, SegmentBytes: w.segmentBytes, FS: fs})
	if err != nil {
		t.Fatalf("recovery refused (budget=%d): %v", budget, err)
	}
	applied := appliedOps(t, rec)
	if applied < acked {
		t.Fatalf("lost acknowledged records: acked=%d recovered=%d (budget=%d)",
			acked, applied, budget)
	}
	if applied > w.ops {
		t.Fatalf("recovered %d ops, workload has %d", applied, w.ops)
	}
	// Prefix property: the replay tail is exactly the ops after the fold
	// point, in order.
	base := int(rec.SnapshotSeq)
	for j, r := range rec.Records {
		want := w.payload(base + j)
		if string(r.Payload) != string(want) {
			t.Fatalf("recovered op %d payload mismatch", base+j)
		}
	}

	// Finish the workload and compare against the reference: the hash
	// chain head commits to every record since genesis, so equality is
	// stream identity.
	if n, err := w.run(t, l2, applied); err != nil || n != w.ops {
		t.Fatalf("resumed run stopped at %d: %v", n, err)
	}
	if got := l2.LastSeq(); got != refSeqs {
		t.Fatalf("final seq %d, reference %d", got, refSeqs)
	}
	if _, head := l2.HeadHex(); head != refHead {
		t.Fatalf("final chain head %s, reference %s", head, refHead)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, err := Check(dir, false); err != nil {
		t.Fatalf("fsck of recovered log: %v (report %+v)", err, rep)
	}
}
