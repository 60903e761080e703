package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// benchRank is the Chrome-trace pid of the benchmark's own spans, clear
// of every world rank the runtime uses.
const benchRank = 1000

// A span is one call from the benchmark into a layer: a rung, a set-up,
// a solve or a job.  Spans are kept in memory and written when the
// traced pass ends.
type span struct {
	name, parent string
	start, end   time.Time
}

// recorder collects the benchmark's own spans.  A nil recorder records
// nothing, so the untraced pass pays one nil check.
type recorder struct {
	workload string
	mu       sync.Mutex
	spans    []span
}

// begin opens a span and returns the function that closes it.
func (r *recorder) begin(name, parent string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		r.mu.Lock()
		r.spans = append(r.spans, span{name: name, parent: parent, start: start, end: end})
		r.mu.Unlock()
	}
}

// writeChrome merges the benchmark's spans with the runtime's own
// tracer export (the last traced unit's, nil if the workload kept none)
// into one Chrome trace on the runtime tracer's clock.
func (r *recorder) writeChrome(path string, runtime *obs.Tracer) error {
	origin := runtime.WallStart()
	r.mu.Lock()
	if origin.IsZero() && len(r.spans) > 0 {
		origin = r.spans[0].start
	}
	events := make([]obs.Event, len(r.spans))
	for i, s := range r.spans {
		events[i] = obs.Event{
			Name: s.name, Cat: "bench",
			TS:   s.start.Sub(origin).Microseconds(),
			Dur:  s.end.Sub(s.start).Microseconds(),
			Args: [2]obs.Arg{obs.A("parent", s.parent), obs.A("workload", r.workload)},
			NArg: 2,
		}
	}
	r.mu.Unlock()

	segs := []obs.ChromeSegment{{TrackSegment: obs.TrackSegment{
		Rank: benchRank, Proc: "bench", Name: r.workload, Events: events,
	}}}
	for _, s := range runtime.Segments(false) {
		segs = append(segs, obs.ChromeSegment{TrackSegment: s})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeSegments(f, segs); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
