package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func snapA() *Snapshot {
	return &Snapshot{
		Counters: map[string]int64{"fetches": 3, "only.a": 7},
		Gauges:   map[string]GaugeValue{"depth": {Value: 2, Max: 9}},
		Hists: map[string]HistValue{"wait": {
			Count: 3, Sum: 10, Buckets: []int64{1, 2},
		}},
	}
}

func snapB() *Snapshot {
	return &Snapshot{
		Counters: map[string]int64{"fetches": 5},
		Gauges:   map[string]GaugeValue{"depth": {Value: 6, Max: 6}},
		Hists: map[string]HistValue{"wait": {
			Count: 4, Sum: 100, Buckets: []int64{0, 1, 2, 1},
		}},
	}
}

func snapC() *Snapshot {
	return &Snapshot{
		Counters: map[string]int64{"fetches": 1, "only.c": 2},
		Gauges:   map[string]GaugeValue{"depth": {Value: 1, Max: 12}},
		Hists: map[string]HistValue{"wait": {
			Count: 1, Sum: 1000, Buckets: []int64{0, 0, 0, 0, 0, 1},
		}},
	}
}

// TestSnapshotMergeSemantics: counters sum, gauges keep both maxima
// independently, histogram buckets add element-wise across different
// lengths with quantiles recomputed from the merged vector.
func TestSnapshotMergeSemantics(t *testing.T) {
	m := snapA()
	m.Merge(snapB())
	if m.Counters["fetches"] != 8 || m.Counters["only.a"] != 7 {
		t.Errorf("counter sums: %v", m.Counters)
	}
	// Value max comes from B, Max high-water from A.
	if g := m.Gauges["depth"]; g.Value != 6 || g.Max != 9 {
		t.Errorf("gauge merge: %+v", g)
	}
	h := m.Hists["wait"]
	if h.Count != 7 || h.Sum != 110 {
		t.Errorf("hist count/sum: %+v", h)
	}
	if want := []int64{1, 3, 2, 1}; !reflect.DeepEqual(h.Buckets, want) {
		t.Errorf("hist buckets: got %v, want %v", h.Buckets, want)
	}
	// Merged buckets [1,3,2,1], count 7: p50 target 4 falls in bucket 1
	// (bound 1), p99 target 7 in bucket 3 (bound 7).
	if h.P50 != 1 || h.P99 != 7 {
		t.Errorf("hist quantiles: %+v", h)
	}
	// Merging a nil snapshot is a no-op.
	before := m.Clone()
	m.Merge(nil)
	if !reflect.DeepEqual(m, before) {
		t.Error("nil merge changed snapshot")
	}
}

// TestSnapshotMergeAssociative: (a⊕b)⊕c == a⊕(b⊕c), so per-rank
// snapshots can be folded in any arrival order.
func TestSnapshotMergeAssociative(t *testing.T) {
	left := snapA()
	left.Merge(snapB())
	left.Merge(snapC())

	bc := snapB()
	bc.Merge(snapC())
	right := snapA()
	right.Merge(bc)

	if !reflect.DeepEqual(left, right) {
		t.Fatalf("merge not associative:\n(a+b)+c = %+v\na+(b+c) = %+v", left, right)
	}

	com := snapB()
	com.Merge(snapA())
	com.Merge(snapC())
	if !reflect.DeepEqual(left, com) {
		t.Fatalf("merge not commutative:\n a-first %+v\n b-first %+v", left, com)
	}
}

func TestPromEscape(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{"all\\\"\n", `all\\\"\n`},
	}
	for _, tc := range cases {
		if got := promEscape(tc.in); got != tc.want {
			t.Errorf("promEscape(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// promSeriesRe matches one sample line of the text exposition format:
// name{labels} value.
var promSeriesRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// TestAggregatorPrometheus: the rendered exposition parses line-by-line,
// aggregated series carry no rank label and sum the per-rank values,
// per-rank series are labeled, and label values with quotes survive
// escaped.
func TestAggregatorPrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sip.master.chunks").Add(4)
	agg := NewAggregator(0, "master", nil, reg)
	agg.Report(RankReport{Rank: 1, Role: `worker "one"`, Seq: 1, Snap: &Snapshot{
		Counters: map[string]int64{"sip.worker.fetches": 11},
		Gauges:   map[string]GaugeValue{"sip.queue": {Value: 2, Max: 5}},
		Hists: map[string]HistValue{"sip.wait_ns": {
			Count: 3, Sum: 9, P50: 3, P90: 3, P99: 3, Buckets: []int64{1, 2}}},
	}})
	agg.Report(RankReport{Rank: 2, Role: "worker 2", Seq: 1, Snap: &Snapshot{
		Counters: map[string]int64{"sip.worker.fetches": 31},
	}})

	var buf bytes.Buffer
	if err := agg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	types := map[string]string{}
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE comment %q", i+1, line)
			}
			types[f[2]] = f[3]
			continue
		}
		if !promSeriesRe.MatchString(line) {
			t.Errorf("line %d not valid exposition syntax: %q", i+1, line)
		}
	}
	for name, kind := range map[string]string{
		"sip_worker_fetches": "counter",
		"sip_master_chunks":  "counter",
		"sip_queue":          "gauge",
		"sip_wait_ns":        "histogram",
	} {
		if types[name] != kind {
			t.Errorf("TYPE %s = %q, want %q", name, types[name], kind)
		}
	}
	for _, want := range []string{
		"sip_worker_fetches 42\n", // aggregated, unlabeled: 11 + 31
		"sip_master_chunks 4\n",   // master's own counter in the aggregate
		`sip_worker_fetches{rank="1",role="worker \"one\""} 11`,
		`sip_worker_fetches{rank="2",role="worker 2"} 31`,
		`sip_master_chunks{rank="0",role="master"} 4`,
		`sip_wait_ns_bucket{rank="1",role="worker \"one\"",le="+Inf"} 3`,
		`sip_wait_ns_sum{rank="1",role="worker \"one\""} 9`,
		`sip_queue_max{rank="1",role="worker \"one\""} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
}

// TestAggregatorStaleSeq: duplicate or stale sequence numbers (e.g. a
// retransmitted report) are dropped instead of double-counted.
func TestAggregatorStaleSeq(t *testing.T) {
	agg := NewAggregator(0, "master", nil, nil)
	r := RankReport{Rank: 1, Seq: 2, Snap: &Snapshot{Counters: map[string]int64{"c": 5}}}
	agg.Report(r)
	agg.Report(r) // duplicate
	agg.Report(RankReport{Rank: 1, Seq: 1, Snap: &Snapshot{Counters: map[string]int64{"c": 100}}})
	if got := agg.MergedSnapshot().Counters["c"]; got != 5 {
		t.Errorf("merged counter = %d, want 5 (stale reports must be ignored)", got)
	}
}

// TestMergedChromeClockAlignment: remote events land on the master
// timeline at (wall start − clock offset − base) + ts, so two ranks
// whose clocks disagree still interleave correctly, and flow ids pair
// across ranks.
func TestMergedChromeClockAlignment(t *testing.T) {
	agg := NewAggregator(0, "master", nil, nil)

	var out, in Event
	out.Name, out.Cat, out.TS, out.Dur = "serve_get", CatGet, 10, 5
	out.Flow, out.FlowDir = 0xbeef, FlowOut
	in.Name, in.Cat, in.TS, in.Dur = "wait_block", CatWait, 10, 5
	in.Flow, in.FlowDir = 0xbeef, FlowIn

	// Rank 1's clock runs 200µs ahead of the master's.
	agg.SetClockOffset(1, 200)
	agg.Report(RankReport{Rank: 1, Seq: 1, WallStartUs: 1_000_000,
		Tracks: []TrackSegment{{Rank: 1, Proc: "server 1", Name: "serve", Events: []Event{out}}}})
	// Rank 2 shares the master's clock but started 500µs later.
	agg.Report(RankReport{Rank: 2, Seq: 1, WallStartUs: 1_000_500,
		Tracks: []TrackSegment{{Rank: 2, Proc: "worker 2", Name: "run", Events: []Event{in}}}})

	var buf bytes.Buffer
	if err := agg.WriteMergedChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			TS   int64  `json:"ts"`
			ID   string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace: %v\n%s", err, buf.String())
	}
	// Base = earliest aligned start = min(1_000_000−200, 1_000_500) = 999_800.
	// Rank 1: offset 0, event at ts 10.  Rank 2: offset 700, event at 710.
	wantTS := map[int]int64{1: 10, 2: 710}
	flows := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			if want := wantTS[ev.Pid]; ev.TS != want {
				t.Errorf("rank %d span at ts %d, want %d", ev.Pid, ev.TS, want)
			}
		}
		if ev.Ph == "s" || ev.Ph == "f" {
			if ev.ID != "0xbeef" {
				t.Errorf("flow id %q, want 0xbeef", ev.ID)
			}
			flows[ev.Ph]++
		}
	}
	if flows["s"] != 1 || flows["f"] != 1 {
		t.Errorf("flow events: %v, want one s and one f", flows)
	}
}

// TestFlightRecord: the recorder writes nothing until SetFlightRecorder; then
// the bundle names the dead rank, carries the given role and diagnosis,
// includes every reported rank's last metrics, and truncates span tails
// to FlightSpanTail.
func TestFlightRecord(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	trk := tr.Track(0, 0, "master", "run")
	trk.Complete(tr.WallStart(), 3*time.Microsecond, CatChunk, "dispatch_chunk")
	reg := NewRegistry()
	reg.Counter("sip.master.chunks").Add(2)
	agg := NewAggregator(0, "master", tr, reg)

	evs := make([]Event, FlightSpanTail+6)
	for i := range evs {
		evs[i].Name, evs[i].Cat, evs[i].TS, evs[i].Dur = fmt.Sprintf("op%d", i), CatChunk, int64(i), 1
	}
	agg.Report(RankReport{Rank: 2, Role: "worker 2", Seq: 3, Final: true,
		Snap:   &Snapshot{Counters: map[string]int64{"sip.worker.fetches": 9}},
		Tracks: []TrackSegment{{Rank: 2, Proc: "worker 2", Name: "run", Events: evs}}})

	// Off until it has a directory.
	if path, err := agg.FlightRecord("evicted", 2, "worker 2", "x"); path != "" || err != nil {
		t.Fatalf("recorder without a directory wrote %q (%v)", path, err)
	}
	agg.SetFlightRecorder(filepath.Join(t.TempDir(), "flight"))
	path, err := agg.FlightRecord("evicted", 2, "worker 2", "no traffic for 1.6s")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "flight-rank2.json" {
		t.Errorf("bundle path %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Reason    string `json:"reason"`
		Rank      int    `json:"rank"`
		Role      string `json:"role"`
		Diagnosis string `json:"diagnosis"`
		Ranks     map[string]struct {
			Role    string `json:"role"`
			LastSeq int    `json:"last_seq"`
			Metrics *Snapshot
			Spans   []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"ranks"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("bundle: %v", err)
	}
	if b.Reason != "evicted" || b.Rank != 2 || b.Role != "worker 2" ||
		b.Diagnosis != "no traffic for 1.6s" {
		t.Errorf("bundle header: %+v", b)
	}
	self, ok := b.Ranks["0"]
	if !ok || self.Metrics == nil || self.Metrics.Counters["sip.master.chunks"] != 2 {
		t.Errorf("self state: %+v", self)
	}
	if len(self.Spans) != 1 || self.Spans[0].Name != "dispatch_chunk" {
		t.Errorf("self spans: %+v", self.Spans)
	}
	dead, ok := b.Ranks["2"]
	if !ok || dead.LastSeq != 3 || dead.Metrics.Counters["sip.worker.fetches"] != 9 {
		t.Errorf("dead rank state: %+v", dead)
	}
	if len(dead.Spans) != FlightSpanTail {
		t.Errorf("span tail = %d, want %d", len(dead.Spans), FlightSpanTail)
	}
	if last := dead.Spans[len(dead.Spans)-1].Name; last != fmt.Sprintf("op%d", len(evs)-1) {
		t.Errorf("tail keeps oldest spans, last = %q", last)
	}
}
