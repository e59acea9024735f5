package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls.
type span struct {
	name       string
	start, end time.Time
	id, parent int64
	req        int64
}

// recorder keeps spans in memory during a traced run. A nil recorder
// records nothing, which is how untraced phases run. To bound memory
// and the span file it keeps the spans of the first maxReqs requests
// only (request 0, the set-up, is always kept), so that every kept
// request's tree is whole; the per-layer metrics are aggregated
// separately over every request.
type recorder struct {
	ids     atomic.Int64
	maxReqs atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder {
	r := &recorder{}
	r.maxReqs.Store(2000)
	return r
}

// keepRequests sets how many requests' spans are kept.
func (r *recorder) keepRequests(n int64) {
	if r != nil {
		r.maxReqs.Store(n)
	}
}

// newID reserves a span id, so that children can name their parent
// before the parent's span ends.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span under a reserved id.
func (r *recorder) add(id int64, name string, start, end time.Time, parent, req int64) {
	if r == nil || req > r.maxReqs.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: start, end: end, id: id, parent: parent, req: req})
	r.mu.Unlock()
}

// record adds a span with a fresh id and returns the id.
func (r *recorder) record(name string, start, end time.Time, parent, req int64) int64 {
	id := r.newID()
	r.add(id, name, start, end, parent, req)
	return id
}

// selfTime is one layer's total and self time over the recorded spans:
// a span's self time is its duration minus the part of it that its
// children cover.
type selfTime struct {
	Spans   int     `json:"spans"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

func (r *recorder) selfTimes() map[string]selfTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]selfTime)
	for _, s := range r.spans {
		dur := s.end.Sub(s.start)
		covered := coveredTime(s, children[s.id])
		st := out[s.name]
		st.Spans++
		st.TotalUS += float64(dur) / 1e3
		st.SelfUS += float64(dur-covered) / 1e3
		out[s.name] = st
	}
	return out
}

// coveredTime is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredTime(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	var total time.Duration
	var curStart, curEnd time.Time
	for i, k := range kids {
		s, e := k.start, k.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if !e.After(s) {
			continue
		}
		if i == 0 || s.After(curEnd) {
			total += curEnd.Sub(curStart)
			curStart, curEnd = s, e
		} else if e.After(curEnd) {
			curEnd = e
		}
	}
	return total + curEnd.Sub(curStart)
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto), one thread row per request, with each
// layer's self time under otherData.
func (r *recorder) writeChrome(path, workload string) error {
	self := r.selfTimes()
	r.mu.Lock()
	var t0 time.Time
	for i, s := range r.spans {
		if i == 0 || s.start.Before(t0) {
			t0 = s.start
		}
	}
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		PID  int              `json:"pid"`
		TID  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TS:  float64(s.start.Sub(t0)) / 1e3,
			Dur: float64(s.end.Sub(s.start)) / 1e3,
			PID: 1, TID: s.req,
			Args: map[string]int64{"id": s.id, "parent": s.parent, "req": s.req},
		}
	}
	r.mu.Unlock()
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"workload":     workload,
			"self_time_us": self,
		},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerOf is the module part of a span name ("exec.fetch" -> "exec").
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
