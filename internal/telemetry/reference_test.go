package telemetry

// The span store before startups became root spans, kept as the reference
// model for FuzzSpanStore: per-container start/end marks in maps and a flat
// list of stage spans that every query rescans.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fastiov/internal/stats"
)

// refSpan is one recorded interval of a stage within one container's startup.
type refSpan struct {
	Container int
	Stage     Stage
	Start     time.Duration
	End       time.Duration
}

// Dur returns the span length.
func (s refSpan) Dur() time.Duration { return s.End - s.Start }

// refRecorder accumulates spans and per-container start/finish marks.
type refRecorder struct {
	spans  []refSpan
	starts map[int]time.Duration
	ends   map[int]time.Duration
}

// newRefRecorder returns an empty recorder.
func newRefRecorder() *refRecorder {
	return &refRecorder{
		starts: make(map[int]time.Duration),
		ends:   make(map[int]time.Duration),
	}
}

// Record adds a completed span.
func (r *refRecorder) Record(container int, stage Stage, start, end time.Duration) {
	if end < start {
		panic(fmt.Sprintf("telemetry: span ends before it starts: %v < %v", end, start))
	}
	r.spans = append(r.spans, refSpan{Container: container, Stage: stage, Start: start, End: end})
}

// MarkStart records the issuance time of a container's startup command.
func (r *refRecorder) MarkStart(container int, at time.Duration) { r.starts[container] = at }

// MarkEnd records a container's startup completion time.
func (r *refRecorder) MarkEnd(container int, at time.Duration) { r.ends[container] = at }

// Spans returns all recorded spans (not a copy).
func (r *refRecorder) Spans() []refSpan { return r.spans }

// Containers returns the sorted ids of containers with a recorded start.
func (r *refRecorder) Containers() []int {
	ids := make([]int, 0, len(r.starts))
	for id := range r.starts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Start returns container id's recorded start mark.
func (r *refRecorder) Start(container int) (time.Duration, bool) {
	s, ok := r.starts[container]
	return s, ok
}

// End returns container id's recorded completion mark.
func (r *refRecorder) End(container int) (time.Duration, bool) {
	e, ok := r.ends[container]
	return e, ok
}

// Total returns container id's end-to-end startup time, or 0 if incomplete.
func (r *refRecorder) Total(container int) time.Duration {
	s, okS := r.starts[container]
	e, okE := r.ends[container]
	if !okS || !okE {
		return 0
	}
	return e - s
}

// Totals returns the sample of end-to-end startup times across containers.
func (r *refRecorder) Totals() *stats.Sample {
	s := stats.NewSample()
	for _, id := range r.Containers() {
		if t := r.Total(id); t > 0 {
			s.Add(t)
		}
	}
	return s
}

// StageTime returns the summed span time of stage within container id.
func (r *refRecorder) StageTime(container int, stage Stage) time.Duration {
	var total time.Duration
	for _, sp := range r.spans {
		if sp.Container == container && sp.Stage == stage {
			total += sp.Dur()
		}
	}
	return total
}

// ByStage returns, for each stage, the sample of per-container stage times.
func (r *refRecorder) ByStage() map[Stage]*stats.Sample {
	perCtr := make(map[Stage]map[int]time.Duration)
	for _, sp := range r.spans {
		m := perCtr[sp.Stage]
		if m == nil {
			m = make(map[int]time.Duration)
			perCtr[sp.Stage] = m
		}
		m[sp.Container] += sp.Dur()
	}
	out := make(map[Stage]*stats.Sample, len(perCtr))
	for st, m := range perCtr {
		s := stats.NewSample()
		for _, id := range r.Containers() {
			s.Add(m[id]) // containers without the stage contribute 0
		}
		out[st] = s
	}
	return out
}

// VFRelatedTime returns the summed VF-related stage time for container id.
func (r *refRecorder) VFRelatedTime(container int) time.Duration {
	var total time.Duration
	for _, sp := range r.spans {
		if sp.Container == container && sp.Stage.VFRelated() {
			total += sp.Dur()
		}
	}
	return total
}

// Breakdown reproduces Tab. 1: the proportion each stage contributes to the
// average startup time and to the 99th-percentile startup time. The p99
// column is computed over the containers whose total time is at or above the
// p99 threshold, matching the paper's long-tail framing.
func (r *refRecorder) Breakdown(stages []Stage) []StageRow {
	totals := r.Totals()
	meanTotal := totals.Mean()
	p99 := totals.Percentile(99)

	var tailIDs []int
	for _, id := range r.Containers() {
		if r.Total(id) >= p99 && r.Total(id) > 0 {
			tailIDs = append(tailIDs, id)
		}
	}

	rows := make([]StageRow, 0, len(stages))
	for _, st := range stages {
		var sumAll, sumTail time.Duration
		n := 0
		for _, id := range r.Containers() {
			if r.Total(id) == 0 {
				continue
			}
			sumAll += r.StageTime(id, st)
			n++
		}
		for _, id := range tailIDs {
			sumTail += r.StageTime(id, st)
		}
		row := StageRow{Stage: st}
		if n > 0 {
			row.MeanTime = sumAll / time.Duration(n)
		}
		if meanTotal > 0 && n > 0 {
			row.PropAvg = 100 * float64(sumAll/time.Duration(n)) / float64(meanTotal)
		}
		if p99 > 0 && len(tailIDs) > 0 {
			meanTail := sumTail / time.Duration(len(tailIDs))
			row.PropP99 = 100 * float64(meanTail) / float64(p99)
		}
		rows = append(rows, row)
	}
	return rows
}

// Timeline renders a Fig. 5-style ASCII Gantt chart: one row per container
// (sampled down to maxRows), columns spanning [0, makespan], each stage
// drawn with its digit. Useful for eyeballing where serialization happens.
func (r *refRecorder) Timeline(width, maxRows int) string {
	ids := r.Containers()
	if len(ids) == 0 {
		return "(no containers recorded)\n"
	}
	var makespan time.Duration
	for _, id := range ids {
		if e, ok := r.ends[id]; ok && e > makespan {
			makespan = e
		}
	}
	if makespan == 0 {
		return "(no completed containers)\n"
	}
	if width < 20 {
		width = 20
	}
	step := len(ids) / maxRows
	if step < 1 {
		step = 1
	}
	col := func(t time.Duration) int {
		c := int(int64(t) * int64(width) / int64(makespan))
		if c >= width {
			c = width - 1
		}
		return c
	}
	// colEnd is the exclusive column bound of a span end: unclamped, so a
	// span ending at the makespan owns the final column.
	colEnd := func(t time.Duration) int {
		return int(int64(t) * int64(width) / int64(makespan))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %d containers, makespan %v, '·'=waiting\n", len(ids), makespan.Round(time.Millisecond))
	for i := 0; i < len(ids); i += step {
		id := ids[i]
		row := make([]byte, width)
		for j := range row {
			row[j] = ' '
		}
		if s, ok := r.starts[id]; ok {
			e, okE := r.ends[id]
			if !okE {
				e = makespan
			}
			for j := col(s); j <= col(e) && j < width; j++ {
				row[j] = '-'
			}
		}
		for _, sp := range r.spans {
			if sp.Container != id {
				continue
			}
			g, ok := timelineGlyphs[sp.Stage]
			if !ok {
				g = '?'
			}
			// Half-open drawing: a span owns [col(Start), col(End)), so
			// adjacent stages never clobber each other's closing column
			// regardless of recording order. Sub-column spans keep one
			// glyph so short stages stay visible.
			lo, hi := col(sp.Start), colEnd(sp.End)
			if hi <= lo {
				hi = lo + 1
			}
			for j := lo; j < hi && j < width; j++ {
				row[j] = g
			}
		}
		fmt.Fprintf(&b, "ctr%-4d |%s|\n", id, string(row))
	}
	return b.String()
}
