package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a call the benchmark makes into a
// layer. Times are seconds since the tracer's epoch. Parent is the ID of
// the span that caused this one (0 for a root); Run identifies the
// job every span of one request shares.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{epoch: time.Now()}
}

// add records a finished span and returns its ID (0 when not tracing).
func (t *tracer) add(name string, run, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds(),
	})
	return id
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its direct children covers.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][][2]float64{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[p.ID] = append(children[p.ID], [2]float64{lo, hi})
			}
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - unionLength(children[s.ID])
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// layerTable aggregates spans by name, largest self time first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalS += s.End - s.Start
		r.SelfS += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func writeLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-20s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %8d %12.4f %12.4f\n", r.Name, r.Count, r.TotalS, r.SelfS)
	}
}
