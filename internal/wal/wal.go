package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncMode selects when appends reach stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs every append before it returns: an acknowledged
	// write survives any crash. The safest and slowest mode.
	SyncAlways SyncMode = iota
	// SyncGroup is leader/follower group commit: each append still
	// returns only after its record is durable, but appends that land
	// while an fsync is in flight share the next one. A lone append pays
	// one fsync, as under SyncAlways.
	SyncGroup
	// SyncNone never fsyncs on append (only on rotation, compaction, and
	// close): fastest, but a crash can lose acknowledged writes.
	SyncNone
)

// String renders the mode as its flag value.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncGroup:
		return "group"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// ParseSyncMode parses a -wal-sync flag value.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "group":
		return SyncGroup, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync mode %q (want always, group, or none)", s)
	}
}

// Options parameterizes Open. The zero value is a production default:
// 4 MiB segments, fsync on every append, OS filesystem. Group commit
// has nothing to tune: its batches grow with the fsync's own duration.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that finds the
	// active segment at or past it seals the segment and starts a new one
	// (default 4 MiB; minimum 4 KiB).
	SegmentBytes int64
	// Sync is the append durability policy (default SyncAlways).
	Sync SyncMode
	// FS is the filesystem the log writes through (default OSFS); the
	// crash-injection harness substitutes CrashFS.
	FS FS
	// Logger receives recovery and compaction records (default discard).
	Logger *slog.Logger
	// OnFsync observes every fsync's duration (for the daemon's
	// placemond_wal_fsync_duration_seconds histogram).
	OnFsync func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SegmentBytes < 4<<10 {
		o.SegmentBytes = 4 << 10
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Op is one record to append.
type Op struct {
	Type    byte
	Payload []byte
}

// AppendResult identifies one appended record for the caller's audit
// bookkeeping.
type AppendResult struct {
	Seq  uint64
	Hash [HashSize]byte
}

// Recovery is what Open found on disk: the newest snapshot (if any) plus
// every record after it, in order, chain-verified.
type Recovery struct {
	// SnapshotSeq is the last sequence folded into the snapshot (0 when
	// the log has no snapshot).
	SnapshotSeq uint64
	// SnapshotState is the caller-owned state document the snapshot holds.
	SnapshotState []byte
	// Records is the replay tail: every record with Seq > SnapshotSeq.
	Records []Record
	// TornTruncated reports that a torn final record was cut off, and
	// TornOffset is where (in the final segment) the tear began.
	TornTruncated bool
	TornOffset    int64
	// SegmentsRemoved counts stale segments (already folded into the
	// snapshot by an interrupted compaction) cleaned up during open.
	SegmentsRemoved int
}

// Log is the open write-ahead log. Create with Open.
type Log struct {
	dir  string
	fs   FS
	opts Options

	mu       sync.Mutex
	f        File   // active segment
	segPath  string // active segment path
	segBytes int64
	segCount int // sealed + active
	seq      uint64
	chain    [HashSize]byte
	snapSeq  uint64
	failed   error
	encBuf   []byte

	// Group-commit state: appenders wait until syncedSeq covers their
	// record; one that finds no flush in flight becomes the leader.
	flushMu   sync.Mutex
	flushCond *sync.Cond
	flushing  bool
	syncedSeq uint64
	syncErr   error
}

const (
	segExt  = ".wal"
	snapExt = ".snap"
)

func segName(start uint64) string { return fmt.Sprintf("%016x%s", start, segExt) }
func snapName(upTo uint64) string { return fmt.Sprintf("%016x%s", upTo, snapExt) }
func parseSeqName(name, ext string) (uint64, bool) {
	if !strings.HasSuffix(name, ext) || strings.HasPrefix(name, ".") {
		return 0, false
	}
	base := strings.TrimSuffix(name, ext)
	if len(base) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// snapshotFile is the on-disk snapshot document.
type snapshotFile struct {
	Version  int    `json:"version"`
	Seq      uint64 `json:"seq"`
	Chain    string `json:"chain"` // hex chain head at Seq
	StateSum string `json:"state_sha256"`
	State    []byte `json:"state"` // caller-owned document (base64 in JSON)
}

// Open opens (creating if needed) the log in dir, recovers its contents,
// and returns the log ready for appends plus what recovery found. A torn
// final record is truncated and reported in Recovery; any other
// inconsistency — mid-log corruption, sequence gaps, a broken hash
// chain, an unreadable snapshot — fails loudly.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	if dir == "" {
		return nil, nil, fmt.Errorf("wal: empty directory")
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, fs: fs, opts: opts}
	l.flushCond = sync.NewCond(&l.flushMu)

	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	// Recovery never appends to a surviving segment: a fresh active
	// segment starts right after the last recovered record, which keeps
	// the append path oblivious to how the previous process died.
	if err := l.openSegment(l.seq + 1); err != nil {
		return nil, nil, err
	}
	if err := fs.SyncDir(dir); err != nil {
		l.closeFileLocked()
		return nil, nil, fmt.Errorf("wal: sync dir: %w", err)
	}
	l.syncedSeq = l.seq
	return l, rec, nil
}

// recover loads the snapshot and replays the segments, leaving l.seq,
// l.chain, l.snapSeq, and l.segCount set. Runs before any appends, so no
// locking.
func (l *Log) recover() (*Recovery, error) {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var snaps []uint64
	var segs []uint64
	for _, name := range names {
		if n, ok := parseSeqName(name, snapExt); ok {
			snaps = append(snaps, n)
		} else if n, ok := parseSeqName(name, segExt); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	rec := &Recovery{}
	var chain [HashSize]byte
	if len(snaps) > 0 {
		newest := snaps[len(snaps)-1]
		snap, err := l.readSnapshot(newest)
		if err != nil {
			return nil, err
		}
		ch, err := hex.DecodeString(snap.Chain)
		if err != nil || len(ch) != HashSize {
			return nil, fmt.Errorf("wal: snapshot %s: malformed chain head", snapName(newest))
		}
		copy(chain[:], ch)
		rec.SnapshotSeq = snap.Seq
		rec.SnapshotState = snap.State
		l.snapSeq = snap.Seq
		// Older snapshots are superseded; an interrupted compaction can
		// leave one behind.
		for _, n := range snaps[:len(snaps)-1] {
			if err := l.fs.Remove(filepath.Join(l.dir, snapName(n))); err != nil {
				return nil, fmt.Errorf("wal: remove stale snapshot: %w", err)
			}
		}
	}

	l.seq = rec.SnapshotSeq
	l.chain = chain
	logger := l.opts.Logger
	for i, start := range segs {
		path := filepath.Join(l.dir, segName(start))
		if start <= rec.SnapshotSeq {
			// Fully folded into the snapshot (compaction rotates before it
			// snapshots, so a segment starting at or before the snapshot
			// sequence holds no live records); an interrupted compaction
			// left it behind.
			if err := l.fs.Remove(path); err != nil {
				return nil, fmt.Errorf("wal: remove folded segment: %w", err)
			}
			rec.SegmentsRemoved++
			continue
		}
		if start != l.seq+1 {
			return nil, fmt.Errorf("wal: segment %s starts at %d where %d expected (missing segment?)",
				segName(start), start, l.seq+1)
		}
		data, err := readAll(l.fs, path)
		if err != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", segName(start), err)
		}
		last := i == len(segs)-1
		n, tornOff, err := l.scanSegment(segName(start), data, last, func(r Record) {
			rec.Records = append(rec.Records, r)
		})
		if err != nil {
			return nil, err
		}
		if tornOff >= 0 {
			// Torn final record: everything before the tear is intact;
			// truncate the tail so the tear can never be misread later.
			if err := l.fs.Truncate(path, tornOff); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", segName(start), err)
			}
			rec.TornTruncated = true
			rec.TornOffset = tornOff
			logger.Warn("wal: truncated torn final record",
				"segment", segName(start), "offset", tornOff, "records_kept", n)
		}
		l.segCount++
	}
	return rec, nil
}

// scanSegment decodes every record in data, verifying the chain as it
// goes, and calls emit for each record of every *complete* atomic batch.
// It returns the committed record count and, when a torn tail was found
// (last segment only), the byte offset to truncate at; tornOff is -1
// otherwise. A tear inside an atomic batch truncates back to the batch's
// first record — an interrupted AppendBatch leaves either the whole
// group or none of it. Corruption of fully present bytes is an error.
func (l *Log) scanSegment(name string, data []byte, lastSegment bool, emit func(Record)) (int, int64, error) {
	var off int64
	count := 0
	batchStart := int64(0)
	var pending []Record
	tentSeq, tentChain := l.seq, l.chain
	for {
		if len(pending) == 0 {
			batchStart = off
		}
		r, next, ok, err := decodeRecord(data, off)
		if err != nil {
			de := err.(*decodeErr)
			if lastSegment && de.torn {
				return count, batchStart, nil
			}
			return count, -1, fmt.Errorf("wal: segment %s: %w "+
				"(mid-log corruption refuses recovery; run `placemon fsck` to inspect)", name, err)
		}
		if !ok {
			if len(pending) == 0 {
				return count, -1, nil
			}
			if !lastSegment {
				return count, -1, fmt.Errorf("wal: segment %s: atomic batch at offset %d has no terminator "+
					"(mid-log corruption refuses recovery; run `placemon fsck` to inspect)", name, batchStart)
			}
			// The data ends at a record boundary inside a batch: same
			// torn-tail treatment, cutting the whole group.
			return count, batchStart, nil
		}
		if err := verifyChain(tentChain, tentSeq+1, r, off); err != nil {
			return count, -1, fmt.Errorf("wal: segment %s: %w", name, err)
		}
		tentSeq, tentChain = r.Seq, r.Hash
		pending = append(pending, r)
		if !r.cont {
			for _, p := range pending {
				emit(p)
			}
			count += len(pending)
			pending = pending[:0]
			l.seq, l.chain = tentSeq, tentChain
		}
		off = next
	}
}

// readSnapshot loads and integrity-checks one snapshot file.
func (l *Log) readSnapshot(upTo uint64) (*snapshotFile, error) {
	name := snapName(upTo)
	data, err := readAll(l.fs, filepath.Join(l.dir, name))
	if err != nil {
		return nil, fmt.Errorf("wal: read snapshot %s: %w", name, err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", name, err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("wal: snapshot %s: unsupported version %d", name, snap.Version)
	}
	if snap.Seq != upTo {
		return nil, fmt.Errorf("wal: snapshot %s claims seq %d", name, snap.Seq)
	}
	sum := sha256.Sum256(snap.State)
	if got := hex.EncodeToString(sum[:]); got != snap.StateSum {
		return nil, fmt.Errorf("wal: snapshot %s: state checksum mismatch", name)
	}
	return &snap, nil
}

func readAll(fs FS, path string) ([]byte, error) {
	f, err := fs.OpenRead(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// openSegment creates the active segment whose first record will be
// start. Caller holds l.mu (or runs before concurrency starts).
func (l *Log) openSegment(start uint64) error {
	path := filepath.Join(l.dir, segName(start))
	f, err := l.fs.Create(path)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.f = f
	l.segPath = path
	l.segBytes = 0
	l.segCount++
	return nil
}

func (l *Log) closeFileLocked() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// fail poisons the log: every later operation returns the first error.
// Group-commit waiters are woken with it.
func (l *Log) fail(err error) error {
	if l.failed == nil {
		l.failed = err
	}
	l.flushMu.Lock()
	if l.syncErr == nil {
		l.syncErr = l.failed
	}
	l.flushCond.Broadcast()
	l.flushMu.Unlock()
	return l.failed
}

// Append appends one record and returns once it is durable under the
// configured sync policy.
func (l *Log) Append(typ byte, payload []byte) (AppendResult, error) {
	res, err := l.AppendBatch([]Op{{Type: typ, Payload: payload}})
	if err != nil {
		return AppendResult{}, err
	}
	return res[0], nil
}

// AppendBatch appends ops back to back with one write (and, under
// SyncAlways/SyncGroup, one fsync covering them all). The records are
// contiguous in the log; no other append interleaves.
func (l *Log) AppendBatch(ops []Op) ([]AppendResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	for _, op := range ops {
		if len(op.Payload) > MaxPayload {
			return nil, fmt.Errorf("wal: payload %d bytes exceeds cap %d", len(op.Payload), MaxPayload)
		}
	}
	l.mu.Lock()
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return nil, err
	}
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return nil, err
		}
	}
	buf := l.encBuf[:0]
	results := make([]AppendResult, len(ops))
	seq, chain := l.seq, l.chain
	for i, op := range ops {
		seq++
		// All but the last record carry the continuation flag, making the
		// batch atomic under torn-tail recovery.
		buf, chain = appendRecord(buf, chain, seq, op.Type, i < len(ops)-1, op.Payload)
		results[i] = AppendResult{Seq: seq, Hash: chain}
	}
	n, err := l.f.Write(buf)
	l.segBytes += int64(n)
	l.encBuf = buf[:0]
	if err != nil {
		err = l.fail(fmt.Errorf("wal: append: %w", err))
		l.mu.Unlock()
		return nil, err
	}
	l.seq, l.chain = seq, chain
	mode := l.opts.Sync
	if mode == SyncAlways {
		err := l.syncLocked()
		l.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return results, nil
	}
	l.mu.Unlock()
	if mode == SyncGroup {
		if err := l.waitSynced(seq); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// syncLocked fsyncs the active segment under l.mu, feeding the fsync
// observer and advancing the group-commit watermark.
func (l *Log) syncLocked() error {
	start := time.Now()
	err := l.f.Sync()
	if l.opts.OnFsync != nil {
		l.opts.OnFsync(time.Since(start))
	}
	if err != nil {
		return l.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	l.flushMu.Lock()
	if l.seq > l.syncedSeq {
		l.syncedSeq = l.seq
	}
	l.flushCond.Broadcast()
	l.flushMu.Unlock()
	return nil
}

// waitSynced blocks until the group-commit watermark covers target. An
// appender that finds no flush in flight leads: it fsyncs at once and
// wakes everyone. Appenders whose records land while a flush is in
// flight follow: they wait, and the next flush covers them all, so a
// batch grows with the fsync's own duration, not with a timer. The
// watermark is tested before the sticky error, so a record an fsync
// already covered is never reported failed because another appender's
// write failed or the log closed afterwards.
func (l *Log) waitSynced(target uint64) error {
	l.flushMu.Lock()
	for {
		if l.syncedSeq >= target {
			l.flushMu.Unlock()
			return nil
		}
		if l.syncErr != nil {
			err := l.syncErr
			l.flushMu.Unlock()
			return err
		}
		if l.flushing {
			l.flushCond.Wait()
			continue
		}
		l.flushing = true
		l.flushMu.Unlock()

		l.mu.Lock()
		var err error
		if l.failed != nil {
			err = l.failed
		} else if l.f != nil {
			err = l.syncLocked()
		}
		l.mu.Unlock()

		l.flushMu.Lock()
		l.flushing = false
		if err != nil && l.syncErr == nil {
			l.syncErr = err
		}
		l.flushCond.Broadcast()
	}
}

// rotateLocked seals the active segment (fsync + close) and opens the
// next one. Records in sealed segments are durable by construction.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return l.fail(fmt.Errorf("wal: seal segment: %w", err))
	}
	l.f = nil
	if err := l.openSegment(l.seq + 1); err != nil {
		return l.fail(err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return l.fail(fmt.Errorf("wal: sync dir: %w", err))
	}
	return nil
}

// Compact folds the caller's state document — which must describe the
// state after applying every record up to the moment of the call, with
// no appends racing it — into a snapshot, then removes the sealed
// segments it supersedes. After Compact, recovery is snapshot + active
// tail only.
func (l *Log) Compact(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.segBytes > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	upTo := l.seq
	sum := sha256.Sum256(state)
	doc, err := json.Marshal(snapshotFile{
		Version:  1,
		Seq:      upTo,
		Chain:    hex.EncodeToString(l.chain[:]),
		StateSum: hex.EncodeToString(sum[:]),
		State:    state,
	})
	if err != nil {
		return fmt.Errorf("wal: encode snapshot: %w", err)
	}
	tmp := filepath.Join(l.dir, ".tmp-"+snapName(upTo))
	f, err := l.fs.Create(tmp)
	if err != nil {
		return l.fail(fmt.Errorf("wal: snapshot: %w", err))
	}
	if _, err := f.Write(doc); err != nil {
		f.Close()
		return l.fail(fmt.Errorf("wal: snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return l.fail(fmt.Errorf("wal: snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		return l.fail(fmt.Errorf("wal: snapshot: %w", err))
	}
	if err := l.fs.Rename(tmp, filepath.Join(l.dir, snapName(upTo))); err != nil {
		return l.fail(fmt.Errorf("wal: snapshot: %w", err))
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return l.fail(fmt.Errorf("wal: snapshot: %w", err))
	}
	// The snapshot is durable; everything it folded is garbage. A crash
	// between here and the end is cleaned up by the next Open.
	l.snapSeq = upTo
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return l.fail(fmt.Errorf("wal: compact cleanup: %w", err))
	}
	for _, name := range names {
		if n, ok := parseSeqName(name, snapExt); ok && n != upTo {
			if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil {
				return l.fail(fmt.Errorf("wal: compact cleanup: %w", err))
			}
		} else if n, ok := parseSeqName(name, segExt); ok && n <= upTo {
			if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil {
				return l.fail(fmt.Errorf("wal: compact cleanup: %w", err))
			}
			l.segCount--
		}
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return l.fail(fmt.Errorf("wal: compact cleanup: %w", err))
	}
	l.opts.Logger.Info("wal: compacted", "up_to_seq", upTo, "segments", l.segCount)
	return nil
}

// Close fsyncs and closes the active segment. The log is unusable
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.failed == nil {
		err = l.syncLocked()
	}
	l.closeFileLocked()
	if l.failed == nil {
		l.failed = ErrClosed
	}
	l.flushMu.Lock()
	if l.syncErr == nil {
		l.syncErr = l.failed
	}
	l.flushCond.Broadcast()
	l.flushMu.Unlock()
	return err
}

// Abort closes the log without a final fsync — the in-process stand-in
// for kill -9 in crash tests and emergency shutdown paths. Durability is
// whatever the sync policy already provided.
func (l *Log) Abort() {
	l.mu.Lock()
	l.closeFileLocked()
	if l.failed == nil {
		l.failed = ErrClosed
	}
	l.mu.Unlock()
	l.flushMu.Lock()
	if l.syncErr == nil {
		l.syncErr = ErrClosed
	}
	l.flushCond.Broadcast()
	l.flushMu.Unlock()
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// LastSeq returns the sequence of the most recently appended record.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// SegmentCount returns how many segment files the log currently spans
// (sealed plus active), the feed for placemond_wal_segment_count.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segCount
}

// SnapshotSeq returns the sequence of the last compaction fold.
func (l *Log) SnapshotSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapSeq
}

// Err returns the sticky failure that poisoned the log, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if errors.Is(l.failed, ErrClosed) {
		return nil
	}
	return l.failed
}

// Verify walks the log on disk — snapshot integrity, record CRCs, the
// full hash chain — and returns the report. Appends are blocked for the
// duration; meant for the audit endpoint and tests, not the hot path.
func (l *Log) Verify() (*Report, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return check(l.dir, l.fs, false, nil)
}

// head returns the current chain head and sequence (for audit reports).
func (l *Log) head() (uint64, [HashSize]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq, l.chain
}

// HeadHex returns the current chain head as (seq, hex hash).
func (l *Log) HeadHex() (uint64, string) {
	seq, h := l.head()
	return seq, hex.EncodeToString(h[:])
}
