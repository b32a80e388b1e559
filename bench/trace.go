package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval of a solve or a job. Spans of one solve or
// one job share a trace; parent is the enclosing span's id (0: none).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run writes them out.
// A nil tracer records nothing, which is how an untraced run skips the
// work. It is not safe for concurrent use: runs add spans from the
// records their clients and hooks kept, after the measured window.
type tracer struct {
	spans []span
}

// add records a span and returns its id (0 on a nil tracer). Times are
// wall-clock nanoseconds, the clock the service's Status timestamps use.
func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// spanStat sums the spans of one name.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize totals each span name's duration and self time.
func summarize(spans []span) map[string]spanStat {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalMS += ms(time.Duration(s.End - s.Start))
		st.SelfMS += ms(time.Duration(selfTime(s, children[s.ID])))
		out[s.Name] = st
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children are clipped to the parent (a job's queue wait
// starts inside its submit, before the stream span that holds it opens)
// and overlapping children count once.
func selfTime(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.End - s.Start - covered
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
