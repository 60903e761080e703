// Package obs is the SIP's built-in observability layer: per-rank span
// tracing with Chrome trace-event export, and a registry of named
// counters, gauges, and histograms.
//
// The paper's SIP collects timing data for pardo loops, procedures, and
// individual super instructions without any external profiler (§VI-B);
// this package generalizes that idea into structured, exportable form.
// Spans are recorded into fixed-size per-track ring buffers so long
// runs keep the most recent window of events; the whole layer is
// nil-safe, so a disabled tracer or registry costs only a nil check on
// the hot paths.
package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// Span categories used by the SIP instrumentation.  Traces may use any
// category string; these are the conventional ones rendered by the
// Perfetto color scheme and documented in docs/OBSERVABILITY.md.
const (
	CatInterp      = "interp"       // byte-code instruction execution
	CatGet         = "get"          // block fetch requests
	CatPut         = "put"          // block put/prepare traffic
	CatWait        = "wait"         // blocked on an in-flight block
	CatChunk       = "chunk"        // pardo chunk scheduling
	CatServerCache = "server_cache" // I/O-server cache operations
	CatDisk        = "disk"         // I/O-server disk reads/writes
	CatFault       = "fault"        // failure detection and injection events
)

// Arg is one key=value attribute attached to an event.  Events hold at
// most two inline args; extras are dropped.
type Arg struct {
	Key, Val string
}

// A builds a string-valued attribute.
func A(k, v string) Arg { return Arg{k, v} }

// AInt builds an integer-valued attribute.
func AInt(k string, v int) Arg { return Arg{k, strconv.Itoa(v)} }

// Flow direction markers on an Event.  A span tagged FlowOut starts (or
// continues) a Chrome flow arrow identified by Event.Flow; a span tagged
// FlowIn terminates it.  The merged trace writer pairs them into
// cross-rank message arrows.
const (
	FlowNone = uint8(iota)
	FlowOut
	FlowIn
)

// Event is one recorded trace event.  Durations and timestamps are in
// microseconds since the tracer was created (the Chrome trace-event
// time base).
type Event struct {
	Name string
	Cat  string
	TS   int64 // µs since tracer start
	Dur  int64 // µs; < 0 marks an instant event
	Args [2]Arg
	NArg int
	// Flow correlates send→recv span pairs across ranks: both ends
	// record the same id, the producer with FlowDir=FlowOut and the
	// consumer with FlowDir=FlowIn.
	Flow    uint64
	FlowDir uint8
}

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// Capacity is the number of events retained per track (a ring
	// buffer; older events are dropped).  0 means 32768.
	Capacity int
	// Ranks restricts recording — spans and Text lines alike — to these
	// world ranks.  Empty means all ranks record.
	Ranks []int
	// Text, when non-nil, receives the plain-text instruction trace: one
	// line per byte-code instruction a traced worker is about to execute
	// (rank, pc, source line, opcode, current pardo iteration), written
	// before the instruction runs, so a hung run's last line says where it
	// stopped.  The SIP formats each line; the tracer serializes the
	// writes of every rank and run sharing it.
	Text io.Writer
}

// Tracer records spans and instants across the tracks (rank ×
// goroutine) of one run.  A nil *Tracer is valid and records nothing.
type Tracer struct {
	start time.Time
	cap   int
	ranks map[int]bool // nil = all
	text  io.Writer    // nil = no text trace

	mu     sync.Mutex
	tracks []*Track
}

// NewTracer creates a tracer.  The zero config is usable.
func NewTracer(cfg TracerConfig) *Tracer {
	t := &Tracer{start: time.Now(), cap: cfg.Capacity}
	if t.cap <= 0 {
		t.cap = 32768
	}
	if len(cfg.Ranks) > 0 {
		t.ranks = map[int]bool{}
		for _, r := range cfg.Ranks {
			t.ranks[r] = true
		}
	}
	if cfg.Text != nil {
		t.text = &lockedWriter{w: cfg.Text}
	}
	return t
}

// Text returns the writer of rank's text trace lines (TracerConfig.Text),
// or nil when the tracer is nil, has no Text, or filters the rank out.
// Writes through it are serialized across every rank and run.
func (t *Tracer) Text(rank int) io.Writer {
	if t == nil || (t.ranks != nil && !t.ranks[rank]) {
		return nil
	}
	return t.text
}

// lockedWriter serializes Writes to w.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// Track returns the event track of one goroutine of one rank,
// registering it on first use.  rank becomes the Chrome pid, tid
// distinguishes goroutines within the rank, proc names the rank
// ("worker 2"), and name the track ("interp", "service").  Returns nil —
// a valid no-op track — when the tracer is nil or the rank is filtered
// out.
//
// Asking again for the same (rank, tid, proc, name) returns the same
// track, so a long-lived tracer shared by many short runs (a pool-wide
// tracer under sial serve) holds one ring per rank-goroutine, not one
// per run.  Recording is serialized per track, so successive — or
// concurrent — runs may share it.
func (t *Tracer) Track(rank, tid int, proc, name string) *Track {
	if t == nil || (t.ranks != nil && !t.ranks[rank]) {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, trk := range t.tracks {
		if trk.pid == rank && trk.tid == tid && trk.proc == proc && trk.name == name {
			return trk
		}
	}
	trk := &Track{tr: t, pid: rank, tid: tid, proc: proc, name: name, ring: make([]Event, t.cap)}
	t.tracks = append(t.tracks, trk)
	return trk
}

// since converts a wall-clock time to trace microseconds.
func (t *Tracer) since(at time.Time) int64 {
	return at.Sub(t.start).Microseconds()
}

// WallStart returns the wall-clock instant that trace microsecond 0
// corresponds to.  The zero time is returned for a nil tracer.
func (t *Tracer) WallStart() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Track is one rank-goroutine's event stream.  All methods are nil-safe
// so call sites need no enabled checks beyond avoiding attribute
// construction.
type Track struct {
	tr         *Tracer
	pid, tid   int
	proc, name string

	// mu guards ring/n/drained: runs sharing the track record
	// concurrently, and the observability shipper drains segments.
	mu      sync.Mutex
	ring    []Event
	n       int // total events recorded; ring index is n % len(ring)
	drained int // events [0, drained) already exported via Drain
}

func (t *Track) record(ev Event) {
	t.mu.Lock()
	t.ring[t.n%len(t.ring)] = ev
	t.n++
	t.mu.Unlock()
}

// Start returns the start of a span the caller records later (End,
// FlowOut, FlowIn): now, or on a nil track, which records nothing, the
// zero time without reading the clock.
func (t *Track) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Complete records a span with an explicit start time and duration
// (use when the caller already timed the work, e.g. for profiling).
func (t *Track) Complete(start time.Time, d time.Duration, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	ev := Event{Name: name, Cat: cat, TS: t.tr.since(start), Dur: d.Microseconds()}
	ev.NArg = copy(ev.Args[:], args)
	t.record(ev)
}

// End records a span that began at start and ends now.
func (t *Track) End(start time.Time, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.Complete(start, time.Since(start), cat, name, args...)
}

// Instant records a point-in-time event.
func (t *Track) Instant(cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	ev := Event{Name: name, Cat: cat, TS: t.tr.since(time.Now()), Dur: -1}
	ev.NArg = copy(ev.Args[:], args)
	t.record(ev)
}

// FlowOut records a span that began at start and ends now, starting a
// flow arrow with the given id (the matching FlowIn on the peer rank
// terminates it).
func (t *Track) FlowOut(start time.Time, flow uint64, cat, name string, args ...Arg) {
	t.flowEnd(start, flow, FlowOut, cat, name, args...)
}

// FlowIn records a span that began at start and ends now, terminating
// the flow arrow with the given id.
func (t *Track) FlowIn(start time.Time, flow uint64, cat, name string, args ...Arg) {
	t.flowEnd(start, flow, FlowIn, cat, name, args...)
}

func (t *Track) flowEnd(start time.Time, flow uint64, dir uint8, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	ev := Event{Name: name, Cat: cat, TS: t.tr.since(start),
		Dur: time.Since(start).Microseconds(), Flow: flow, FlowDir: dir}
	ev.NArg = copy(ev.Args[:], args)
	t.record(ev)
}

// Dropped returns how many events were overwritten in the ring.
func (t *Track) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.droppedLocked()
}

func (t *Track) droppedLocked() int {
	if t.n <= len(t.ring) {
		return 0
	}
	return t.n - len(t.ring)
}

// Events returns the retained events, oldest first.  Intended for
// export and tests after the traced goroutines have stopped.
func (t *Track) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eventsLocked(0)
}

// eventsLocked copies retained events with total index >= from,
// oldest first.
func (t *Track) eventsLocked(from int) []Event {
	lo := t.n - len(t.ring)
	if lo < 0 {
		lo = 0
	}
	if from > lo {
		lo = from
	}
	if lo >= t.n {
		return nil
	}
	out := make([]Event, t.n-lo)
	for i := range out {
		out[i] = t.ring[(lo+i)%len(t.ring)]
	}
	return out
}

// TrackSegment is an exportable slice of one track's ring buffer: the
// unit shipped from a rank to the master's trace aggregator.
type TrackSegment struct {
	Rank    int
	Tid     int
	Proc    string
	Name    string
	Dropped int // cumulative overwritten events on this track
	Events  []Event
}

// Segments snapshots every track as a TrackSegment.  With drain set,
// each track remembers what was exported and the next call returns only
// newer events (events that fell out of the ring in between count as
// dropped, not re-sent).  Tracks with no new events and no drops are
// skipped when draining.
func (t *Tracer) Segments(drain bool) []TrackSegment {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	tracks := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()
	var segs []TrackSegment
	for _, trk := range tracks {
		trk.mu.Lock()
		from := 0
		if drain {
			from = trk.drained
		}
		evs := trk.eventsLocked(from)
		dropped := trk.droppedLocked()
		if drain {
			if len(evs) == 0 && trk.drained == trk.n {
				trk.mu.Unlock()
				continue
			}
			trk.drained = trk.n
		}
		trk.mu.Unlock()
		segs = append(segs, TrackSegment{Rank: trk.pid, Tid: trk.tid,
			Proc: trk.proc, Name: trk.name, Dropped: dropped, Events: evs})
	}
	return segs
}

// DroppedTotal sums ring-buffer overwrites across all tracks.
func (t *Tracer) DroppedTotal() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	tracks := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()
	total := 0
	for _, trk := range tracks {
		total += trk.Dropped()
	}
	return total
}
