package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark's own files: the program under test carries no tracing of its
// own yet (ROADMAP item 14).
type span struct {
	name       string
	parent     int // index into tracer.spans, -1 for a root
	lane       int // one lane per concurrent caller, so spans never overlap in a lane
	start, end time.Duration
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, which is how the untraced run is spelled.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent (-1 for none) in the parent's lane and
// returns its id.
func (t *tracer) begin(name string, parent int) int {
	return t.beginLane(name, parent, -1)
}

// beginLane is begin for a span that starts a lane of its own (lane >= 0).
func (t *tracer) beginLane(name string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	if lane < 0 {
		lane = 0
		if parent >= 0 {
			lane = t.spans[parent].lane
		}
	}
	t.spans = append(t.spans, span{name: name, parent: parent, lane: lane, start: now, end: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record stores a span whose ends were observed elsewhere (an epoch hook
// only sees epoch ends).
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, lane: t.spans[parent].lane,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time; with a nil tracer it
// only times.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.finish(id)
	return d
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanCost measures what one begin/finish pair costs this process, so the
// traced run can state its own overhead.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer("calibration")
	start := time.Now()
	for i := 0; i < n; i++ {
		t.finish(t.begin("x", -1))
	}
	return time.Since(start) / n
}

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.end - s.start
	}
	for _, s := range t.spans {
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// write stores the spans as a chrome://tracing file.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfTimes()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{
				"id": i, "parent": s.parent, "workload": t.workload,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
