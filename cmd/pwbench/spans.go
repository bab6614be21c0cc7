package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the harness made into a layer. Spans nest through
// Parent (0 = a root); a layer's self time is its span minus the part
// its children cover.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps the traced pass's spans in memory until the run ends.
// A nil recorder records nothing, which is how untraced repeats run the
// same workload code at no cost.
type recorder struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent and returns its id.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Workload: r.workload, Name: name, StartNS: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// do wraps one call in a span.
func (r *recorder) do(parent int, name string, fn func(id int)) {
	id := r.begin(parent, name)
	fn(id)
	r.end(id)
}

// selfTime is one span name's aggregate over a trace.
type selfTime struct {
	Name  string
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus what child spans cover
}

// selfTimes folds spans by name. Children of one parent are assumed not
// to overlap each other, which holds here because each parent issues its
// child calls sequentially.
func (r *recorder) selfTimes() []selfTime {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	childSum := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		childSum[s.Parent] += s.EndNS - s.StartNS
	}
	byName := map[string]*selfTime{}
	for _, s := range r.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.EndNS - s.StartNS
		st.Count++
		st.Total += time.Duration(d)
		st.Self += time.Duration(d - childSum[s.ID])
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
