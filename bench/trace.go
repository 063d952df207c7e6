package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a call into a layer
// (named "<layer>.<call>") or a structural interval of the benchmark
// itself (named "bench.<what>"). Spans of one operation share Trace;
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once the run
// ends, so recording costs a lock and an append.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(trace, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// open records a span whose end is not known yet; close it with end.
func (r *recorder) open(trace, parent int, name string) int {
	now := time.Now()
	return r.add(trace, parent, name, now, now)
}

func (r *recorder) end(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = time.Since(r.epoch).Nanoseconds()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Overlapping children (runs
// on other goroutines) count once, and child time outside the parent's
// interval is ignored.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the kids' intervals clipped to p.
func covered(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// spanTotals sums self time per span name, in seconds.
func spanTotals(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}

// replayRoot names the root of the post-run gate and fit replay, which
// is not part of any traced operation's wall time.
const replayRoot = "bench.replay"

// unattributed is the share of the traced operations' wall time that no
// layer span covers: the self time of the benchmark's own structural
// spans over the duration of the operations' root spans.
func unattributed(spans []span) float64 {
	self := selfTimes(spans)
	replay := make(map[int]bool)
	var glue, wall int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == replayRoot {
			replay[s.Trace] = true
		}
	}
	for _, s := range spans {
		if replay[s.Trace] || !strings.HasPrefix(s.Name, "bench.") {
			continue
		}
		glue += self[s.ID]
		if s.Parent == 0 {
			wall += s.dur()
		}
	}
	return ratio(float64(glue), float64(wall))
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
