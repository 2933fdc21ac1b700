package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openTest(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openTest(t, dir, Options{Sync: SyncAlways})
	if rec.SnapshotSeq != 0 || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered non-empty: %+v", rec)
	}
	var want []string
	for i := 0; i < 25; i++ {
		payload := []byte(fmt.Sprintf("payload-%d", i))
		res, err := l.Append(TypeObservations, payload)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if res.Seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, res.Seq)
		}
		want = append(want, string(payload))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec2 := openTest(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(want))
	}
	for i, r := range rec2.Records {
		if string(r.Payload) != want[i] {
			t.Fatalf("record %d payload %q, want %q", i, r.Payload, want[i])
		}
		if r.Type != TypeObservations {
			t.Fatalf("record %d type %d", i, r.Type)
		}
	}
	if rec2.TornTruncated {
		t.Fatal("clean log reported torn")
	}
	if got := l2.LastSeq(); got != 25 {
		t.Fatalf("recovered LastSeq %d, want 25", got)
	}
	// Appends continue the chain seamlessly after recovery.
	res, err := l2.Append(TypeDiagnosis, []byte("after"))
	if err != nil || res.Seq != 26 {
		t.Fatalf("post-recovery append: seq %d err %v", res.Seq, err)
	}
}

func TestRotationAndRecoveryAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several rotations.
	l, _ := openTest(t, dir, Options{SegmentBytes: 4 << 10, Sync: SyncNone})
	payload := make([]byte, 512)
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Append(TypeObservations, payload); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if sc := l.SegmentCount(); sc < 3 {
		t.Fatalf("expected several segments, got %d", sc)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, rec := openTest(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(rec.Records), n)
	}
}

func TestCompactionFoldsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{SegmentBytes: 4 << 10, Sync: SyncNone})
	payload := make([]byte, 256)
	for i := 0; i < 30; i++ {
		if _, err := l.Append(TypeObservations, payload); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	state := []byte(`{"applied":30}`)
	if err := l.Compact(state); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if sc := l.SegmentCount(); sc != 1 {
		t.Fatalf("segments after compact = %d, want 1 (active only)", sc)
	}
	// Tail records after the fold.
	for i := 0; i < 5; i++ {
		if _, err := l.Append(TypeDiagnosis, []byte("tail")); err != nil {
			t.Fatalf("tail append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec := openTest(t, dir, Options{})
	defer l2.Close()
	if rec.SnapshotSeq != 30 {
		t.Fatalf("snapshot seq %d, want 30", rec.SnapshotSeq)
	}
	if string(rec.SnapshotState) != string(state) {
		t.Fatalf("snapshot state %q, want %q", rec.SnapshotState, state)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("tail records %d, want 5", len(rec.Records))
	}
	if rec.Records[0].Seq != 31 {
		t.Fatalf("first tail seq %d, want 31", rec.Records[0].Seq)
	}
}

func TestTornFinalRecordTruncated(t *testing.T) {
	for _, cut := range []int64{1, 3, 7, 20, 45} {
		dir := t.TempDir()
		l, _ := openTest(t, dir, Options{Sync: SyncAlways})
		if _, err := l.Append(TypeObservations, []byte("whole")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(TypeObservations, []byte("gets torn")); err != nil {
			t.Fatal(err)
		}
		l.Abort()

		// Tear the final record: cut `cut` bytes off the segment.
		seg := filepath.Join(dir, segName(1))
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()-cut); err != nil {
			t.Fatal(err)
		}

		l2, rec := openTest(t, dir, Options{})
		if !rec.TornTruncated {
			t.Fatalf("cut=%d: torn tail not reported", cut)
		}
		if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "whole" {
			t.Fatalf("cut=%d: recovered %d records", cut, len(rec.Records))
		}
		// The torn bytes are gone for good: append + re-recover is clean.
		if _, err := l2.Append(TypeObservations, []byte("resume")); err != nil {
			t.Fatalf("cut=%d: resume append: %v", cut, err)
		}
		l2.Close()
		l3, rec3 := openTest(t, dir, Options{})
		if rec3.TornTruncated || len(rec3.Records) != 2 {
			t.Fatalf("cut=%d: second recovery torn=%v n=%d", cut, rec3.TornTruncated, len(rec3.Records))
		}
		l3.Close()
	}
}

func TestTornBatchDroppedWhole(t *testing.T) {
	// An AppendBatch is atomic under torn-tail recovery: a tear anywhere
	// inside the group — even at an exact record boundary — drops the
	// whole group, never a prefix of it. frame = 50 + len(payload) bytes.
	for _, cut := range []int64{10, 57, 57 + 58, 57 + 30} {
		dir := t.TempDir()
		l, _ := openTest(t, dir, Options{Sync: SyncAlways})
		if _, err := l.Append(TypeObservations, []byte("solo")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendBatch([]Op{
			{Type: TypeObservations, Payload: []byte("b-first")}, // 57-byte frame
			{Type: TypeDiagnosis, Payload: []byte("b-second")},   // 58-byte frame
			{Type: TypeDiagnosis, Payload: []byte("b-third")},    // 57-byte frame
		}); err != nil {
			t.Fatal(err)
		}
		l.Abort()

		seg := filepath.Join(dir, segName(1))
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()-cut); err != nil {
			t.Fatal(err)
		}

		l2, rec := openTest(t, dir, Options{})
		if !rec.TornTruncated {
			t.Fatalf("cut=%d: torn tail not reported", cut)
		}
		if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "solo" {
			t.Fatalf("cut=%d: want only the pre-batch record, got %d records", cut, len(rec.Records))
		}
		if got := l2.LastSeq(); got != 1 {
			t.Fatalf("cut=%d: LastSeq = %d, want 1", cut, got)
		}
		// The log stays consistent: a fresh batch lands at seq 2 and a
		// clean re-recovery sees all four records.
		if _, err := l2.AppendBatch([]Op{
			{Type: TypeObservations, Payload: []byte("retry-1")},
			{Type: TypeDiagnosis, Payload: []byte("retry-2")},
			{Type: TypeDiagnosis, Payload: []byte("retry-3")},
		}); err != nil {
			t.Fatalf("cut=%d: retry batch: %v", cut, err)
		}
		l2.Close()
		l3, rec3 := openTest(t, dir, Options{})
		if rec3.TornTruncated || len(rec3.Records) != 4 {
			t.Fatalf("cut=%d: second recovery torn=%v n=%d", cut, rec3.TornTruncated, len(rec3.Records))
		}
		if _, err := Check(dir, false); err != nil {
			t.Fatalf("cut=%d: fsck after recovery: %v", cut, err)
		}
		l3.Close()
	}
}

func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{Sync: SyncAlways})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(TypeObservations, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Abort()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the file.
	tampered := append([]byte(nil), data...)
	tampered[len(tampered)/2] ^= 0x40
	if err := os.WriteFile(seg, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir, Options{})
	if err == nil {
		t.Fatal("open accepted a flipped bit mid-log")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("corruption error carries no offset: %v", err)
	}
	// fsck sees the same thing with a non-nil error.
	if _, cerr := Check(dir, false); cerr == nil {
		t.Fatal("Check accepted a flipped bit")
	}
}

func TestSnapshotTamperRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(TypeObservations, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact([]byte(`{"s":1}`)); err != nil {
		t.Fatal(err)
	}
	l.Abort()
	snap := filepath.Join(dir, snapName(5))
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open accepted a tampered snapshot")
	}
}

// slowSyncFS makes every file Sync take about d longer — simulated disk
// latency, so appends that arrive during a flush queue behind it.
type slowSyncFS struct {
	FS
	d time.Duration
}

func (s slowSyncFS) Create(name string) (File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{File: f, d: s.d}, nil
}

type slowSyncFile struct {
	File
	d time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.d)
	return f.File.Sync()
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	var fsyncs atomic.Int64
	l, _ := openTest(t, dir, Options{
		Sync:    SyncAlways,
		FS:      slowSyncFS{FS: OSFS{}, d: time.Millisecond},
		OnFsync: func(time.Duration) { fsyncs.Add(1) },
	})
	defer l.Close()
	const workers, each = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append(TypeObservations, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("group append: %v", err)
	}
	// Appends that landed during a flush shared the next one.
	if n := fsyncs.Load(); n >= workers*each {
		t.Fatalf("%d fsyncs for %d appends: no flush was shared", n, workers*each)
	}
	if got := l.LastSeq(); got != workers*each {
		t.Fatalf("LastSeq %d, want %d", got, workers*each)
	}
	rep, err := l.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rep.Records != workers*each {
		t.Fatalf("verify saw %d records, want %d", rep.Records, workers*each)
	}
}

// TestWaitSyncedWatermarkBeforeError pins the order waitSynced reads its
// state in: a record an fsync already covered is durable, so a failure
// recorded afterwards — another appender's failed write, a Close — must
// not report it failed; a record the watermark does not cover gets the
// error.
func TestWaitSyncedWatermarkBeforeError(t *testing.T) {
	l, _ := openTest(t, t.TempDir(), Options{Sync: SyncAlways})
	defer l.Close()
	res, err := l.Append(TypeObservations, []byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("another appender's write failed")
	l.mu.Lock()
	l.fail(boom)
	l.mu.Unlock()
	if err := l.waitSynced(res.Seq); err != nil {
		t.Fatalf("waitSynced(%d) with syncedSeq %d = %v, want nil", res.Seq, l.syncedSeq, err)
	}
	if err := l.waitSynced(res.Seq + 1); !errors.Is(err, boom) {
		t.Fatalf("waitSynced(%d) past the watermark = %v, want %v", res.Seq+1, err, boom)
	}
}

func TestAppendBatchAtomicOrder(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{Sync: SyncAlways})
	res, err := l.AppendBatch([]Op{
		{Type: TypeObservations, Payload: []byte("batch")},
		{Type: TypeDiagnosis, Payload: []byte("event-1")},
		{Type: TypeDiagnosis, Payload: []byte("event-2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0].Seq != 1 || res[2].Seq != 3 {
		t.Fatalf("batch results %+v", res)
	}
	l.Close()
	_, rec := openTest(t, dir, Options{})
	if len(rec.Records) != 3 || rec.Records[1].Type != TypeDiagnosis {
		t.Fatalf("recovered batch wrong: %+v", rec.Records)
	}
}

func TestCheckReport(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{Sync: SyncAlways})
	l.Append(TypeScenarioCreate, []byte("create"))
	l.Append(TypeObservations, []byte("obs"))
	l.Append(TypeObservations, []byte("obs"))
	l.Append(TypeDiagnosis, []byte("diag"))
	wantSeq, wantHead := l.HeadHex()
	l.Close()

	rep, err := Check(dir, false)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if rep.Records != 4 || rep.FirstSeq != 1 || rep.LastSeq != wantSeq {
		t.Fatalf("report %+v", rep)
	}
	if rep.ChainHead != wantHead {
		t.Fatalf("chain head %s, want %s", rep.ChainHead, wantHead)
	}
	if rep.TypeCounts["observations"] != 2 || rep.TypeCounts["diagnosis"] != 1 {
		t.Fatalf("type counts %+v", rep.TypeCounts)
	}
}

func TestCheckRepairTruncatesTorn(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{Sync: SyncAlways})
	l.Append(TypeObservations, []byte("keep"))
	l.Append(TypeObservations, []byte("torn"))
	l.Abort()
	seg := filepath.Join(dir, segName(1))
	fi, _ := os.Stat(seg)
	os.Truncate(seg, fi.Size()-5)

	rep, err := Check(dir, false)
	if err != nil || !rep.Torn || rep.Repaired {
		t.Fatalf("dry-run check: rep=%+v err=%v", rep, err)
	}
	rep, err = Check(dir, true)
	if err != nil || !rep.Torn || !rep.Repaired {
		t.Fatalf("repair check: rep=%+v err=%v", rep, err)
	}
	rep, err = Check(dir, false)
	if err != nil || rep.Torn {
		t.Fatalf("post-repair check: rep=%+v err=%v", rep, err)
	}
	if rep.Records != 1 {
		t.Fatalf("post-repair records %d, want 1", rep.Records)
	}
}

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{"always": SyncAlways, "": SyncAlways, "group": SyncAlways, "none": SyncNone} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestReadOnlyAfterFailureSticky(t *testing.T) {
	for _, name := range durableNames {
		t.Run(name, func(t *testing.T) {
			mode, err := ParseSyncMode(name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			fs := NewCrashFSBudget(OSFS{}, 200) // enough for open + a couple of appends
			l, _, err := Open(dir, Options{Sync: mode, FS: fs})
			if err != nil {
				t.Fatalf("open under budget: %v", err)
			}
			var firstErr error
			for i := 0; i < 100; i++ {
				if _, err := l.Append(TypeObservations, []byte("spend the budget")); err != nil {
					firstErr = err
					break
				}
			}
			if firstErr == nil {
				t.Fatal("budget never exhausted")
			}
			// Poisoned: every later operation reports the original failure.
			if _, err := l.Append(TypeObservations, []byte("more")); err == nil {
				t.Fatal("append succeeded after failure")
			}
			if l.Err() == nil {
				t.Fatal("Err() nil after failure")
			}
		})
	}
}
