package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"snd"
)

// counters is what a span snapshots at its boundaries: the engine's
// cumulative counters and the Go runtime's.
type counters struct {
	Engine  snd.EngineStats
	Runtime runtimeSnap
}

// sub returns the counter change from prev to c; engine gauges keep
// c's value (EngineStats.Sub's rule).
func (c counters) sub(prev counters) counters {
	return counters{Engine: c.Engine.Sub(prev.Engine), Runtime: c.Runtime.sub(prev.Runtime)}
}

// span is one timed call the benchmark made into a layer. Times are
// microseconds since the tracer started; Parent 0 is the root.
type span struct {
	ID       int       `json:"id"`
	Parent   int       `json:"parent"`
	Name     string    `json:"name"`
	Req      int64     `json:"req,omitempty"`
	Start    float64   `json:"start_us"`
	End      float64   `json:"end_us"`
	Counters *counters `json:"counters,omitempty"`

	before counters
}

// tracer records spans in memory around the benchmark's own calls
// into the program; nothing inside the program is instrumented. A nil
// or disabled tracer records nothing and costs one branch per call.
type tracer struct {
	epoch time.Time
	snap  func() counters // counter source; nil records times only

	mu       sync.Mutex
	spans    []span
	open     map[int]int // span id -> index in spans
	overhead time.Duration
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{epoch: time.Now(), open: make(map[int]int)}
}

func (t *tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Microsecond)
}

// setSnap sets the counter source for the spans started after it; it
// must not race with start or end.
func (t *tracer) setSnap(f func() counters) {
	if t != nil {
		t.snap = f
	}
}

// start opens a span named name under parent for request req and
// returns its id (0 when tracing is off).
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	t0 := time.Now()
	var before counters
	if t.snap != nil {
		before = t.snap()
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, before: before})
	t.open[id] = len(t.spans) - 1
	t1 := time.Now()
	t.spans[len(t.spans)-1].Start = t.since(t1)
	t.overhead += t1.Sub(t0)
	t.mu.Unlock()
	return id
}

// end closes span id, recording the counter change over its interval.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t0 := time.Now()
	var after counters
	if t.snap != nil {
		after = t.snap()
	}
	t.mu.Lock()
	i, ok := t.open[id]
	if ok {
		delete(t.open, id)
		s := &t.spans[i]
		s.End = t.since(t0)
		if t.snap != nil {
			d := after.sub(s.before)
			s.Counters = &d
		}
	}
	t.overhead += time.Since(t0)
	t.mu.Unlock()
}

// overheadRatio is the tracer's own time as a share of wall.
func (t *tracer) overheadRatio(wall time.Duration) float64 {
	if t == nil || wall <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.overhead) / float64(wall)
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval that its children cover;
// children may overlap each other (concurrent requests), so the
// covered part is the union of their intervals clipped to the parent.
func selfTimes(spans []span) []spanTotal {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	byName := make(map[string]*spanTotal)
	for _, s := range spans {
		dur := s.End - s.Start
		self := dur - covered(children[s.ID], s.Start, s.End)
		st := byName[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalS += dur / 1e6
		st.SelfS += self / 1e6
	}
	out := make([]spanTotal, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]float64(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	started := false
	for _, iv := range s {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		switch {
		case !started:
			curLo, curHi, started = a, b, true
		case a > curHi:
			total += curHi - curLo
			curLo, curHi = a, b
		case b > curHi:
			curHi = b
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// write stores the spans and their per-name totals as JSON in path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Totals []spanTotal `json:"totals"`
		Spans  []span      `json:"spans"`
	}{selfTimes(t.spans), t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
