package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public functions. Times are nanoseconds since the
// recorder's epoch. Parent is the index of the span that caused this one
// (-1 for a root); every span of one operation (a pass, a request) carries
// the same Op.
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Op         int
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// "tracing off": begin returns -1 and end does nothing, so the measured
// code path is the same with and without tracing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far. A span still open (its
// operation failed before end) is returned with zero length, so indices —
// which parents refer to — stay valid.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out {
		if out[i].End < 0 {
			out[i].End = out[i].Start
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are counted once, and a
// child is clipped to its parent's interval).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// layerTotal aggregates the spans of one name.
type layerTotal struct {
	Count    int64
	Total    int64 // summed durations, ns
	Self     int64 // summed self times, ns
	Duration []float64
}

// layerTotals are the spans grouped by name.
type layerTotals map[string]*layerTotal

// get returns the totals of one span name; a name never recorded has none.
func (m layerTotals) get(name string) *layerTotal {
	if t := m[name]; t != nil {
		return t
	}
	return &layerTotal{}
}

// medianUs is the median duration of one span name in microseconds.
func (m layerTotals) medianUs(name string) float64 { return median(m.get(name).Duration) / 1e3 }

// byName groups span durations and self times by span name.
func byName(spans []span) layerTotals {
	self := selfTimes(spans)
	out := make(layerTotals)
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotal{}
			out[s.Name] = t
		}
		t.Count++
		t.Total += s.End - s.Start
		t.Self += self[i]
		t.Duration = append(t.Duration, float64(s.End-s.Start))
	}
	return out
}

// rootSelfGap reports the worst relative gap, over all root spans, between a
// root's duration and the summed self times of its subtree. With children
// nested inside their parents the two are equal; a gap means a child ran
// outside its parent's interval (a mislinked span or a clock anomaly).
func rootSelfGap(spans []span) float64 {
	self := selfTimes(spans)
	root := make([]int, len(spans))
	sum := make(map[int]int64)
	for i, s := range spans {
		// Spans are appended in begin order, so a parent precedes its
		// children and its root is already resolved.
		if s.Parent < 0 {
			root[i] = i
		} else {
			root[i] = root[s.Parent]
		}
		sum[root[i]] += self[i]
	}
	worst := 0.0
	for r, total := range sum {
		d := spans[r].End - spans[r].Start
		if d <= 0 {
			continue
		}
		gap := float64(total-d) / float64(d)
		if gap < 0 {
			gap = -gap
		}
		worst = max(worst, gap)
	}
	return worst
}

// writeTrace writes the spans as compact JSON: a name table and one row per
// span, [id, name index, parent id, op, start ns, end ns].
func writeTrace(path, workload string, host hostInfo, spans []span) error {
	index := make(map[string]int)
	var names []string
	rows := make([][6]int64, len(spans))
	for i, s := range spans {
		ni, ok := index[s.Name]
		if !ok {
			ni = len(names)
			index[s.Name] = ni
			names = append(names, s.Name)
		}
		rows[i] = [6]int64{int64(i), int64(ni), int64(s.Parent), int64(s.Op), s.Start, s.End}
	}
	doc := struct {
		Workload string     `json:"workload"`
		Host     hostInfo   `json:"host"`
		Columns  []string   `json:"columns"`
		Names    []string   `json:"names"`
		Spans    [][6]int64 `json:"spans"`
	}{workload, host, []string{"id", "name", "parent", "op", "start_ns", "end_ns"}, names, rows}
	blob, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// maxTraceOverhead is how much more CPU per value a traced pass may use than
// an untraced one before the per-layer table stops describing the program
// the end-to-end table measured.
const maxTraceOverhead = 1.05

// finishTrace ends a traced run: it adds the tracing overhead (traced over
// untraced CPU per value, both measured inside this run) and the span-tree
// consistency gap to the per-layer table, and writes the spans out. An
// overhead beyond maxTraceOverhead is flagged in the report rather than
// failed: on a shared host it is as often a neighbour as the recorder.
func finishTrace(res *result, cfg runConfig, overhead float64, rec *recorder) error {
	spans := rec.snapshot()
	res.PerLayer["gpustream.trace_overhead_ratio"] = overhead
	res.PerLayer["trace.root_self_gap"] = rootSelfGap(spans)
	verdict := "ok"
	if overhead > maxTraceOverhead {
		verdict = "EXCEEDED: read the per-layer times with care"
	}
	res.Detail = append(res.Detail, fmt.Sprintf("trace overhead %.3f, limit %.2f: %s; %d spans", overhead, maxTraceOverhead, verdict, len(spans)))
	if cfg.TraceOut == "" {
		return nil
	}
	return writeTrace(cfg.TraceOut, res.Workload, res.Host, spans)
}
