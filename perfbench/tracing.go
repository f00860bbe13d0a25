package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hadfl/internal/trace"
)

// spanLog is the traced run's span sink: a trace.Buffer that the
// benchmark's wrappers record into through trace.Start, plus add for
// spans whose start was observed before they could be opened (a
// generator's wait, a run's first round). Every span carries a "job"
// attribute, the key that joins the client's and the layers' views of
// one operation. A nil *spanLog records nothing.
type spanLog struct {
	trace.Buffer
}

func (l *spanLog) add(name, job string, start, end time.Time) {
	if l == nil {
		return
	}
	l.Record(trace.SpanData{
		TraceID: job, SpanID: trace.NewSpanID(), Name: name,
		Start: start, End: end, Attrs: map[string]string{"job": job},
	})
}

// stageParent is the benchmark's stage tree: which stage a span is
// nested in, for the self-time table. A stage missing from the map is
// a root.
var stageParent = map[string]string{
	"client.wait":       "client.op",
	"client.post":       "client.op",
	"serve.queue":       "client.op",
	"http.get":          "client.op",
	"http.post":         "client.op",
	"serve.runner":      "client.op",
	"hadfl.run":         "client.op",
	"worker.runner":     "serve.runner",
	"hadfl.first_round": "*run", // the innermost run span of the job
	"hadfl.round":       "*run",
}

// runSpanNames are the candidates for "*run", innermost first.
var runSpanNames = []string{"worker.runner", "hadfl.run", "serve.runner"}

// stageRow is one line of the self-time table.
type stageRow struct {
	Stage   string  `json:"stage"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Ms   float64 `json:"p50_ms"`
}

// selfTimes groups spans by job and charges each span its duration
// minus the part of its interval its child spans cover.
func selfTimes(spans []trace.SpanData) []stageRow {
	byJob := map[string][]trace.SpanData{}
	for _, s := range spans {
		byJob[s.Attrs["job"]] = append(byJob[s.Attrs["job"]], s)
	}
	rows := map[string]*stageRow{}
	durs := map[string][]float64{}
	for _, js := range byJob {
		present := map[string]bool{}
		for _, s := range js {
			present[s.Name] = true
		}
		children := map[string][]interval{}
		for _, s := range js {
			p := stageParent[s.Name]
			if p == "*run" {
				p = ""
				for _, n := range runSpanNames {
					if present[n] {
						p = n
						break
					}
				}
			}
			children[p] = append(children[p], interval{time.Duration(s.Start.UnixNano()), time.Duration(s.End.UnixNano())})
		}
		for _, s := range js {
			r := rows[s.Name]
			if r == nil {
				r = &stageRow{Stage: s.Name}
				rows[s.Name] = r
			}
			d := s.Duration()
			from := time.Duration(s.Start.UnixNano())
			r.Count++
			r.TotalMs += ms(d)
			r.SelfMs += ms(d) * (1 - coverage(from, from+d, children[s.Name]))
			durs[s.Name] = append(durs[s.Name], ms(d))
		}
	}
	out := make([]stageRow, 0, len(rows))
	for name, r := range rows {
		r.P50Ms = median(durs[name])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	return out
}

func printStages(w io.Writer, rows []stageRow) {
	fmt.Fprintf(w, "%-18s %8s %12s %12s %10s\n", "stage", "count", "total_ms", "self_ms", "p50_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %8d %12.1f %12.1f %10.3f\n", r.Stage, r.Count, r.TotalMs, r.SelfMs, r.P50Ms)
	}
}

// interval is a time range: a rung's slice of the window, or a stage
// for coverage accounting.
type interval struct{ from, to time.Duration }

// coverage is the share of [from, to] that the union of parts covers.
func coverage(from, to time.Duration, parts []interval) float64 {
	if to <= from {
		return 0
	}
	clipped := make([]interval, 0, len(parts))
	for _, p := range parts {
		if p.from < from {
			p.from = from
		}
		if p.to > to {
			p.to = to
		}
		if p.to > p.from {
			clipped = append(clipped, p)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].from < clipped[j].from })
	var covered, end time.Duration
	end = from
	for _, p := range clipped {
		if p.from > end {
			end = p.from
		}
		if p.to > end {
			covered += p.to - end
			end = p.to
		}
	}
	return float64(covered) / float64(to-from)
}

// crossCheck is one stage measured both by the benchmark's spans and
// by the program's own histogram.
type crossCheck struct {
	Stage     string  `json:"stage"`
	Histogram string  `json:"histogram"`
	SpanP50Ms float64 `json:"span_p50_ms"`
	HistP50Ms float64 `json:"hist_p50_ms"`
	Count     int64   `json:"hist_count"`
}

func printCrossChecks(w io.Writer, cs []crossCheck) {
	fmt.Fprintf(w, "%-16s %-22s %12s %12s %8s\n", "stage", "histogram", "span_p50_ms", "hist_p50_ms", "count")
	for _, c := range cs {
		fmt.Fprintf(w, "%-16s %-22s %12.3f %12.3f %8d\n", c.Stage, c.Histogram, c.SpanP50Ms, c.HistP50Ms, c.Count)
	}
}

// spanEnds maps each job to the end of its last span of the given name.
func spanEnds(spans []trace.SpanData, name string) map[string]time.Time {
	out := map[string]time.Time{}
	for _, s := range spans {
		if s.Name == name && s.End.After(out[s.Attrs["job"]]) {
			out[s.Attrs["job"]] = s.End
		}
	}
	return out
}

// histCheck pairs a span-derived stage with the program's histogram of
// the same stage.
func histCheck(st *stack, stage, hist string, spanMs []float64) crossCheck {
	c := crossCheck{Stage: stage, Histogram: hist, SpanP50Ms: median(spanMs)}
	if h, ok := st.histogram(hist); ok {
		c.HistP50Ms, c.Count = h.P50*1000, h.Count
	}
	return c
}
