package obs

// Cluster-side aggregation of per-rank telemetry: the master collects
// RankReports (metric snapshots + trace ring segments) shipped over the
// runtime's tagObs plane, aligns the per-rank clocks, and serves merged
// views — one Chrome trace for the whole cluster, Prometheus text
// exposition with per-rank labels, a %wait report, and post-mortem
// flight-recorder bundles.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// RankReport is one rank's telemetry delivery: a point-in-time metric
// snapshot plus the trace events recorded since its previous report.
type RankReport struct {
	Rank  int
	Role  string
	Seq   int  // per-rank report sequence, starting at 1
	Final bool // last report of the run
	// WallStartUs is the rank tracer's wall-clock start in unix µs on
	// that rank's clock (0 when the rank traces nothing); it anchors
	// the rank's trace timestamps for cross-rank alignment.
	WallStartUs int64
	Snap        *Snapshot
	Tracks      []TrackSegment
}

type rankState struct {
	role        string
	seq         int
	final       bool
	wallStartUs int64
	offsetUs    int64 // rank clock − master clock, µs (0 = unknown/shared clock)
	snap        *Snapshot
	segs        []TrackSegment
}

// Aggregator is the master-side sink of the observability plane.  All
// methods are safe for concurrent use (reports arrive from the runtime
// loop while the HTTP endpoint reads).  A nil *Aggregator ignores
// reports and renders empty views.
type Aggregator struct {
	mu       sync.Mutex
	selfRank int
	selfRole string
	tracer   *Tracer   // master's own tracer (may be nil)
	reg      *Registry // master's own registry (may be nil)
	ranks    map[int]*rankState
	flight   string // flight-recorder bundle directory ("" = off)
}

// NewAggregator creates an aggregator for the given local rank.  tracer
// and reg are the local telemetry sources, merged into every view
// alongside the remote reports; either may be nil.
func NewAggregator(selfRank int, selfRole string, tracer *Tracer, reg *Registry) *Aggregator {
	return &Aggregator{selfRank: selfRank, selfRole: selfRole,
		tracer: tracer, reg: reg, ranks: map[int]*rankState{}}
}

// SetFlightRecorder turns the flight recorder on: FlightRecord writes its
// bundles into dir.  Call it before the run starts.
func (a *Aggregator) SetFlightRecorder(dir string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.flight = dir
}

// SetClockOffset records the estimated offset (rank clock − local
// clock, µs) used to place that rank's trace events on the merged
// timeline.
func (a *Aggregator) SetClockOffset(rank int, offsetUs int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.state(rank).offsetUs = offsetUs
}

func (a *Aggregator) state(rank int) *rankState {
	st, ok := a.ranks[rank]
	if !ok {
		st = &rankState{}
		a.ranks[rank] = st
	}
	return st
}

// Report folds one rank's delivery into the cluster view: the snapshot
// replaces the rank's previous one (snapshots are cumulative), the
// trace segments accumulate.  Stale or duplicate sequence numbers are
// dropped.
func (a *Aggregator) Report(r RankReport) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.state(r.Rank)
	if r.Seq != 0 && r.Seq <= st.seq {
		return
	}
	st.seq = r.Seq
	if r.Role != "" {
		st.role = r.Role
	}
	if r.Final {
		st.final = true
	}
	if r.WallStartUs != 0 {
		st.wallStartUs = r.WallStartUs
	}
	if r.Snap != nil {
		st.snap = r.Snap
	}
	st.segs = append(st.segs, r.Tracks...)
}

// FinalCount returns how many remote ranks have delivered their final
// report.
func (a *Aggregator) FinalCount() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, st := range a.ranks {
		if st.final {
			n++
		}
	}
	return n
}

// ReportedRanks returns the ranks that have delivered at least one
// report, sorted.
func (a *Aggregator) ReportedRanks() []int {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []int
	for r, st := range a.ranks {
		if st.seq > 0 {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// selfSnapshot captures the local registry plus the local trace-drop
// counter, so the master's own telemetry matches what remote ranks
// ship.
func (a *Aggregator) selfSnapshot() *Snapshot {
	s := a.reg.Snapshot()
	if d := a.tracer.DroppedTotal(); d > 0 {
		s.Counters[MetricTraceDropped] = int64(d)
	}
	return s
}

// MetricTraceDropped counts trace ring-buffer overwrites per rank, so
// silently truncated traces are diagnosable from /metrics.
const MetricTraceDropped = "obs.trace.dropped"

// MergedSnapshot merges the local snapshot with every reported rank's
// latest snapshot (counter sums, gauge maxima, histogram bucket
// addition).
func (a *Aggregator) MergedSnapshot() *Snapshot {
	if a == nil {
		return (*Registry)(nil).Snapshot()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.selfSnapshot()
	for _, st := range a.ranks {
		m.Merge(st.snap)
	}
	return m
}

// Labeled returns one LabeledSnapshot per rank (local first), each
// tagged with rank and role labels for Prometheus exposition.
func (a *Aggregator) Labeled() []LabeledSnapshot {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := []LabeledSnapshot{{
		Labels: map[string]string{"rank": strconv.Itoa(a.selfRank), "role": a.selfRole},
		Snap:   a.selfSnapshot(),
	}}
	ranks := make([]int, 0, len(a.ranks))
	for r := range a.ranks {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		st := a.ranks[r]
		if st.snap == nil {
			continue
		}
		out = append(out, LabeledSnapshot{
			Labels: map[string]string{"rank": strconv.Itoa(r), "role": st.role},
			Snap:   st.snap,
		})
	}
	return out
}

// WritePrometheus renders the cluster metrics in Prometheus text
// exposition format: the aggregated series carry no rank label, the
// per-rank series are labeled {rank=...,role=...}.
func (a *Aggregator) WritePrometheus(w io.Writer) error {
	snaps := []LabeledSnapshot{{Snap: a.MergedSnapshot()}}
	snaps = append(snaps, a.Labeled()...)
	return WritePrometheus(w, snaps)
}

// chromeSegments assembles every rank's accumulated segments with the
// timestamp offsets that place them on one timeline.  The master's
// tracer start is the time base; each remote event's timestamp becomes
//
//	(remote wall start − clock offset − base) + event ts
//
// i.e. the event's wall-clock instant translated into the master's
// clock, expressed in µs since the base.
func (a *Aggregator) chromeSegments() []ChromeSegment {
	a.mu.Lock()
	defer a.mu.Unlock()
	var baseUs int64
	haveBase := false
	if a.tracer != nil {
		baseUs = a.tracer.WallStart().UnixMicro()
		haveBase = true
	}
	if !haveBase {
		// No local tracer: base the merged timeline on the earliest
		// aligned remote start instead.
		for _, st := range a.ranks {
			if st.wallStartUs == 0 {
				continue
			}
			adj := st.wallStartUs - st.offsetUs
			if !haveBase || adj < baseUs {
				baseUs = adj
				haveBase = true
			}
		}
	}
	var segs []ChromeSegment
	for _, s := range a.tracer.Segments(false) {
		segs = append(segs, ChromeSegment{TrackSegment: s})
	}
	for _, st := range a.ranks {
		if st.wallStartUs == 0 {
			continue
		}
		off := st.wallStartUs - st.offsetUs - baseUs
		for _, s := range st.segs {
			segs = append(segs, ChromeSegment{TrackSegment: s, TSOffset: off})
		}
	}
	return segs
}

// WriteMergedChrome writes the cluster-wide Chrome trace: every rank's
// spans on one clock-aligned timeline with cross-rank flow arrows.
func (a *Aggregator) WriteMergedChrome(w io.Writer) error {
	if a == nil {
		return WriteChromeSegments(w, nil)
	}
	return WriteChromeSegments(w, a.chromeSegments())
}

// WaitReport computes the paper's cluster metric — the percentage of
// each rank's traced wall-span spent in CatWait spans — from the merged
// trace, and renders it as a sorted text table.  Returns "" when no
// spans were collected.
func (a *Aggregator) WaitReport() string {
	if a == nil {
		return ""
	}
	type span struct{ lo, hi, wait int64 }
	perRank := map[int]*span{}
	role := map[int]string{}
	for _, seg := range a.chromeSegments() {
		sp, ok := perRank[seg.Rank]
		if !ok {
			sp = &span{lo: 1<<62 - 1, hi: -(1<<62 - 1)}
			perRank[seg.Rank] = sp
		}
		if role[seg.Rank] == "" {
			role[seg.Rank] = seg.Proc
		}
		for _, ev := range seg.Events {
			ts := ev.TS + seg.TSOffset
			end := ts
			if ev.Dur > 0 {
				end += ev.Dur
			}
			if ts < sp.lo {
				sp.lo = ts
			}
			if end > sp.hi {
				sp.hi = end
			}
			if ev.Cat == CatWait && ev.Dur > 0 {
				sp.wait += ev.Dur
			}
		}
	}
	if len(perRank) == 0 {
		return ""
	}
	ranks := make([]int, 0, len(perRank))
	for r := range perRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	var b strings.Builder
	b.WriteString("wait report (% of traced span in wait):\n")
	var totWait, totSpan int64
	for _, r := range ranks {
		sp := perRank[r]
		span := sp.hi - sp.lo
		if span <= 0 {
			continue
		}
		totWait += sp.wait
		totSpan += span
		fmt.Fprintf(&b, "  rank %-3d %-12s span %10s wait %10s  %5.1f%%\n",
			r, role[r],
			time.Duration(span)*time.Microsecond,
			time.Duration(sp.wait)*time.Microsecond,
			100*float64(sp.wait)/float64(span))
	}
	if totSpan > 0 {
		fmt.Fprintf(&b, "  cluster: %d ranks, %5.1f%% wait\n",
			len(ranks), 100*float64(totWait)/float64(totSpan))
	}
	return b.String()
}

// flightSpan is one trace event in a flight-recorder bundle.
type flightSpan struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	TSUs  int64             `json:"ts_us"`
	DurUs int64             `json:"dur_us,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// flightRank is one rank's post-mortem state in a bundle.
type flightRank struct {
	Role    string       `json:"role,omitempty"`
	LastSeq int          `json:"last_seq"`
	Final   bool         `json:"final"`
	Metrics *Snapshot    `json:"metrics,omitempty"`
	Spans   []flightSpan `json:"spans,omitempty"`
}

// flightBundle is the JSON document the flight recorder writes when a
// rank dies or is evicted.
type flightBundle struct {
	Reason    string                `json:"reason"`
	Rank      int                   `json:"rank"`
	Role      string                `json:"role,omitempty"`
	Diagnosis string                `json:"diagnosis,omitempty"`
	WrittenAt string                `json:"written_at"`
	Ranks     map[string]flightRank `json:"ranks"`
}

// flightSpanTail returns the last n events across a rank's segments.
func flightSpanTail(segs []TrackSegment, n int) []flightSpan {
	var all []flightSpan
	for _, seg := range segs {
		for _, ev := range seg.Events {
			fs := flightSpan{Name: ev.Name, Cat: ev.Cat, TSUs: ev.TS}
			if ev.Dur > 0 {
				fs.DurUs = ev.Dur
			}
			if ev.NArg > 0 {
				fs.Args = map[string]string{}
				for i := 0; i < ev.NArg; i++ {
					fs.Args[ev.Args[i].Key] = ev.Args[i].Val
				}
			}
			all = append(all, fs)
		}
	}
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// FlightSpanTail is the number of trailing spans kept per rank in a
// flight-recorder bundle.
const FlightSpanTail = 64

// FlightRecord dumps a post-mortem bundle for deadRank into the flight
// directory (SetFlightRecorder): the reason and failure diagnosis, plus every
// reported rank's last metrics snapshot and last-N trace spans.  role
// names the dead rank's cluster role for readers of the bundle (the rank
// may have died before ever reporting one itself).  Returns the bundle
// path, or "" and no error when the recorder is off.
func (a *Aggregator) FlightRecord(reason string, deadRank int, role, diagnosis string) (string, error) {
	if a == nil {
		return "", nil
	}
	a.mu.Lock()
	dir := a.flight
	if dir == "" {
		a.mu.Unlock()
		return "", nil
	}
	b := flightBundle{
		Reason:    reason,
		Rank:      deadRank,
		Role:      role,
		Diagnosis: diagnosis,
		WrittenAt: time.Now().UTC().Format(time.RFC3339Nano),
		Ranks:     map[string]flightRank{},
	}
	if st, ok := a.ranks[deadRank]; ok && b.Role == "" {
		b.Role = st.role
	}
	b.Ranks[strconv.Itoa(a.selfRank)] = flightRank{
		Role:    a.selfRole,
		Metrics: a.selfSnapshot(),
		Spans:   flightSpanTail(a.tracer.Segments(false), FlightSpanTail),
	}
	for r, st := range a.ranks {
		if st.seq == 0 {
			continue
		}
		b.Ranks[strconv.Itoa(r)] = flightRank{
			Role:    st.role,
			LastSeq: st.seq,
			Final:   st.final,
			Metrics: st.snap,
			Spans:   flightSpanTail(st.segs, FlightSpanTail),
		}
	}
	a.mu.Unlock()

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-rank%d.json", deadRank))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(b); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
