package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of samples by the nearest-rank rule on
// the sorted samples: the smallest sample with at least q·n samples at or
// below it. It never interpolates, so it always returns an observed value;
// it returns NaN for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is quantile(samples, 0.5), or 0 for no samples, so an operation
// a workload does not issue reads 0 rather than NaN.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return quantile(samples, 0.5)
}

// mean is the arithmetic mean, or 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// tail summarizes a latency sample for the run record: the median, the
// tails with the sample count they rest on, in milliseconds.
type tail struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

func summarize(ms []float64) tail {
	if len(ms) == 0 {
		return tail{}
	}
	return tail{N: len(ms), P50: quantile(ms, 0.5), P90: quantile(ms, 0.9), P99: quantile(ms, 0.99), Max: quantile(ms, 1)}
}

// stageRec is one stage of a daemon trace record, as /debug/traces
// serves it.
type stageRec struct {
	Name     string  `json:"name"`
	Offset   float64 `json:"offset_seconds"`
	Duration float64 `json:"duration_seconds"`
}

// traceRec is one /debug/traces record; only the fields the benchmark
// reads are decoded.
type traceRec struct {
	TraceID  string     `json:"trace_id"`
	Method   string     `json:"method"`
	Path     string     `json:"path"`
	Status   int        `json:"status"`
	Start    time.Time  `json:"start"`
	Duration float64    `json:"duration_seconds"`
	Stages   []stageRec `json:"stages"`
}

// interval is a half-open time range [lo, hi) in seconds.
type interval struct{ lo, hi float64 }

// unionLength is the total length covered by a set of intervals.
func unionLength(iv []interval) float64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	total, cur := 0.0, s[0]
	for _, x := range s[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// contains reports whether stage a's interval holds stage b's. Stages are
// filed when they end, so of two stages with the same interval the one
// filed first (lower index) is the inner one.
func contains(a, b stageRec, ai, bi int) bool {
	const eps = 1e-9
	aEnd, bEnd := a.Offset+a.Duration, b.Offset+b.Duration
	if b.Offset < a.Offset-eps || bEnd > aEnd+eps {
		return false
	}
	if math.Abs(a.Offset-b.Offset) <= eps && math.Abs(aEnd-bEnd) <= eps {
		return bi < ai
	}
	return true
}

// selfTimes returns each stage's self time — its duration minus the part
// covered by stages nested in it — summed per stage name, plus the
// record's unstaged time: its duration minus the part covered by any
// stage. Placement rounds are folded under one name per record.
func selfTimes(r traceRec) (self map[string]float64, unstaged float64) {
	self = map[string]float64{}
	var top []interval
	for i, st := range r.Stages {
		var inner []interval
		nested := false
		for j, other := range r.Stages {
			if i == j {
				continue
			}
			if contains(st, other, i, j) {
				inner = append(inner, interval{other.Offset, other.Offset + other.Duration})
			}
			if contains(other, st, j, i) {
				nested = true
			}
		}
		self[stageName(st.Name)] += st.Duration - unionLength(inner)
		if !nested {
			top = append(top, interval{st.Offset, st.Offset + st.Duration})
		}
	}
	return self, r.Duration - unionLength(top)
}

// stageName folds the numbered "placement round N" stages into one name.
func stageName(name string) string {
	if strings.HasPrefix(name, "placement round") {
		return "placement round"
	}
	return name
}

// stageTotal sums the durations of the stages with the given (folded)
// name.
func stageTotal(r traceRec, name string) float64 {
	var sum float64
	for _, st := range r.Stages {
		if stageName(st.Name) == name {
			sum += st.Duration
		}
	}
	return sum
}

// routeKey names a record's route with scenario IDs elided, so the stage
// table has one row per route and stage.
func routeKey(r traceRec) string {
	path := r.Path
	if rest, ok := strings.CutPrefix(path, "/v1/scenarios/"); ok {
		_, sub, found := strings.Cut(rest, "/")
		path = "/v1/scenarios/{id}"
		if found {
			path += "/" + sub
		}
	}
	return r.Method + " " + path
}

// joinTraces indexes daemon records by trace ID. One logical request has
// one record per node it crossed, so the index keeps them all.
func joinTraces(recs []traceRec) map[string][]traceRec {
	idx := make(map[string][]traceRec, len(recs))
	for _, r := range recs {
		idx[r.TraceID] = append(idx[r.TraceID], r)
	}
	return idx
}

// promSum sums every sample of a metric family member in Prometheus text
// exposition (all label sets), e.g. "placemond_wal_fsync_duration_seconds_count".
// It reports whether any sample was found.
func promSum(text []byte, name string) (float64, bool) {
	var sum float64
	found := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if rest != "" && rest[0] == '{' {
			end := strings.LastIndexByte(rest, '}')
			if end < 0 {
				continue
			}
			rest = rest[end+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		sum += v
		found = true
	}
	return sum, found
}
