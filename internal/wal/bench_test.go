package wal

import (
	"fmt"
	"testing"
)

// BenchmarkWALAppend measures the append hot path per sync policy —
// the cost every acknowledged mutation pays before its HTTP response.
func BenchmarkWALAppend(b *testing.B) {
	for _, mode := range []SyncMode{SyncNone, SyncAlways} {
		b.Run(mode.String(), func(b *testing.B) {
			dir := b.TempDir()
			l, _, err := Open(dir, Options{Sync: mode, SegmentBytes: 64 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := make([]byte, 256)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(TypeObservations, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures boot-time replay of a log tail — the
// daemon's crash-to-serving latency driver.
func BenchmarkRecovery(b *testing.B) {
	for _, records := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dir := b.TempDir()
			l, _, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 4 << 20})
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 256)
			for i := 0; i < records; i++ {
				if _, err := l.Append(TypeObservations, payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l2, rec, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(rec.Records) != records {
					b.Fatalf("recovered %d", len(rec.Records))
				}
				l2.Abort()
			}
		})
	}
}
