package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// chromeDoc mirrors the trace-event container for decoding in tests.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		TS   int64          `json:"ts"`
		Cat  string         `json:"cat"`
		Dur  *int64         `json:"dur"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func decodeChrome(t *testing.T, tr *Tracer) chromeDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome produced invalid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

func TestChromeExport(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	trk := tr.Track(1, 0, "worker 1", "interp")
	start := time.Now()
	trk.Complete(start, 5*time.Millisecond, CatInterp, "contract", AInt("line", 12))
	trk.Instant(CatGet, "fetch_issued", A("block", "T[0]"))

	doc := decodeChrome(t, tr)
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var sawProc, sawThread, sawSpan, sawInstant bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			sawProc = true
			if ev.Args["name"] != "worker 1" {
				t.Errorf("process_name args = %v", ev.Args)
			}
		case ev.Ph == "M" && ev.Name == "thread_name":
			sawThread = true
		case ev.Ph == "X":
			sawSpan = true
			if ev.Name != "contract" || ev.Cat != CatInterp || ev.Pid != 1 {
				t.Errorf("span = %+v", ev)
			}
			if ev.Dur == nil || *ev.Dur != 5000 {
				t.Errorf("span dur = %v, want 5000µs", ev.Dur)
			}
			if ev.Args["line"] != "12" {
				t.Errorf("span args = %v", ev.Args)
			}
		case ev.Ph == "i":
			sawInstant = true
			if ev.S != "t" {
				t.Errorf("instant scope = %q, want t", ev.S)
			}
		}
	}
	for name, ok := range map[string]bool{
		"process_name": sawProc, "thread_name": sawThread,
		"span": sawSpan, "instant": sawInstant,
	} {
		if !ok {
			t.Errorf("export missing %s event", name)
		}
	}
}

func TestRingBufferDrops(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 4})
	trk := tr.Track(0, 0, "master", "dispatch")
	for i := 0; i < 10; i++ {
		trk.Complete(time.Now(), time.Duration(i)*time.Microsecond, CatChunk, "ev")
	}
	if got := trk.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	evs := trk.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	// Oldest-first: the survivors are events 6..9.
	for i, ev := range evs {
		if ev.Dur != int64(6+i) {
			t.Errorf("event %d dur = %d, want %d", i, ev.Dur, 6+i)
		}
	}
	doc := decodeChrome(t, tr)
	var meta map[string]any
	for _, ev := range doc.TraceEvents {
		if ev.Name == "thread_name" {
			meta = ev.Args
		}
	}
	if meta == nil || meta["dropped_events"] != float64(6) {
		t.Errorf("thread_name metadata = %v, want dropped_events 6", meta)
	}
}

// TestRankFilter: Ranks filters the text trace exactly as it filters
// spans, and a tracer without Text hands out no text writer.
func TestRankFilter(t *testing.T) {
	var text bytes.Buffer
	tr := NewTracer(TracerConfig{Ranks: []int{1, 3}, Text: &text})
	if trk := tr.Track(2, 0, "worker 2", "interp"); trk != nil {
		t.Error("filtered rank returned a live track")
	}
	if trk := tr.Track(1, 0, "worker 1", "interp"); trk == nil {
		t.Error("selected rank returned nil track")
	}
	if tr.Text(2) != nil {
		t.Error("filtered rank returned a text writer")
	}
	tr.Text(1).Write([]byte("w1 x\n"))
	if text.String() != "w1 x\n" {
		t.Errorf("text trace = %q", text.String())
	}
	if NewTracer(TracerConfig{}).Text(1) != nil || (*Tracer)(nil).Text(1) != nil {
		t.Error("a tracer without Text returned a text writer")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	trk := tr.Track(1, 0, "worker 1", "interp")
	if trk != nil {
		t.Fatal("nil tracer returned non-nil track")
	}
	// All methods must be no-ops on the nil track.
	trk.Complete(time.Now(), time.Second, CatInterp, "x")
	trk.End(time.Now(), CatGet, "y")
	trk.Instant(CatPut, "z")
	if trk.Dropped() != 0 || trk.Events() != nil {
		t.Error("nil track reported state")
	}
}

// TestTrackReused: asking for the same rank-goroutine's track twice
// returns one track (a pool-wide tracer must not grow per job), and a
// different tid, proc or name is a different track.
func TestTrackReused(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 4})
	a := tr.Track(1, 0, "worker 1", "interp")
	if b := tr.Track(1, 0, "worker 1", "interp"); b != a {
		t.Error("same (rank, tid, proc, name) produced a second track")
	}
	if b := tr.Track(1, 1, "worker 1", "service"); b == a {
		t.Error("a different tid shares the interp track")
	}
	a.Instant(CatInterp, "x")
	tr.Track(1, 0, "worker 1", "interp").Instant(CatInterp, "y")
	if n := len(a.Events()); n != 2 {
		t.Errorf("shared track holds %d events, want 2", n)
	}
	if n := len(tr.Segments(false)); n != 2 {
		t.Errorf("tracer holds %d tracks, want 2", n)
	}
}
