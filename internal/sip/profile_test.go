package sip

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bytecode"
)

// fakeWorker builds a worker carrying only the state mergeProfiles
// reads.
func fakeWorker(prog *bytecode.Program, p *Profile) *worker {
	return &worker{interp: interp{rt: &runtime{prog: prog}, prof: p}, cache: &blockCache{}}
}

func TestMergeProfiles(t *testing.T) {
	// Workers record by pc; the merge folds the pcs into per-opcode and
	// per-line rows.
	prog := &bytecode.Program{Code: []bytecode.Instr{
		{Op: bytecode.OpContract, Line: 5},
		{Op: bytecode.OpDot, Line: 9},
	}}
	p1 := &Profile{
		Pardos: []PardoStat{{Elapsed: 10 * time.Millisecond, Wait: 1 * time.Millisecond, Iterations: 6}},
		Procs:  []ProcStat{{Count: 1, Time: 2 * time.Millisecond}},
		pcs:    []pcStat{{count: 3, timed: 3, time: 30 * time.Millisecond}, {}},
	}
	p2 := &Profile{
		Pardos: []PardoStat{{Elapsed: 4 * time.Millisecond, Wait: 2 * time.Millisecond, Iterations: 4}},
		Procs:  []ProcStat{{Count: 2, Time: 3 * time.Millisecond}},
		pcs:    []pcStat{{count: 2, timed: 2, time: 20 * time.Millisecond}, {count: 1, timed: 1, time: 1 * time.Millisecond}},
	}
	srv := &ioServer{rank: 6, hits: 10, misses: 2, diskReads: 2, diskWrites: 5}
	out := mergeProfiles([]*worker{fakeWorker(prog, p1), fakeWorker(prog, p2)}, []*ioServer{srv})

	if st := out.Ops[bytecode.OpContract]; st == nil || st.Count != 5 || st.Time != 50*time.Millisecond {
		t.Errorf("op stat = %+v, want count 5 time 50ms", st)
	}
	if st := out.Ops[bytecode.OpDot]; st == nil || st.Count != 1 {
		t.Errorf("dot stat = %+v, want count 1", st)
	}
	// Pardo elapsed takes the per-worker max (slowest worker's wall
	// time); wait sums across workers.
	ps := out.Pardos[0]
	if ps.Elapsed != 10*time.Millisecond {
		t.Errorf("pardo elapsed = %s, want max 10ms", ps.Elapsed)
	}
	if ps.Wait != 3*time.Millisecond {
		t.Errorf("pardo wait = %s, want sum 3ms", ps.Wait)
	}
	if ps.Iterations != 10 {
		t.Errorf("pardo iterations = %d, want 10", ps.Iterations)
	}
	if st := out.Procs[0]; st.Count != 3 || st.Time != 5*time.Millisecond {
		t.Errorf("proc stat = %+v, want count 3 time 5ms", st)
	}
	if ls := out.Lines[5]; ls == nil || ls.Count != 5 || ls.Time != 50*time.Millisecond {
		t.Errorf("line 5 = %+v, want count 5 time 50ms", out.Lines[5])
	}
	if ls := out.Lines[9]; ls == nil || ls.Count != 1 {
		t.Errorf("line 9 = %+v, want count 1", out.Lines[9])
	}
	if len(out.Servers) != 1 {
		t.Fatalf("servers = %d, want 1", len(out.Servers))
	}
	if s := out.Servers[0]; s.Rank != 6 || s.CacheHits != 10 || s.DiskReads != 2 || s.DiskWrites != 5 {
		t.Errorf("server stat = %+v", s)
	}
}

// TestMergeProfilesScalesSampledTimes pins the estimate of a sampled
// pc: the time of its timed runs, scaled by executions ÷ timed ones.
func TestMergeProfilesScalesSampledTimes(t *testing.T) {
	prog := &bytecode.Program{Code: []bytecode.Instr{
		{Op: bytecode.OpBlockCopy, Line: 7},
		{Op: bytecode.OpPushLit, Line: 7},
	}}
	p := &Profile{pcs: []pcStat{{count: 64, timed: 2, time: 2 * time.Millisecond}, {count: 64}}}
	out := mergeProfiles([]*worker{fakeWorker(prog, p)}, nil)
	if st := out.Ops[bytecode.OpBlockCopy]; st == nil || st.Count != 64 || st.Time != 64*time.Millisecond {
		t.Errorf("block_copy = %+v, want count 64 time 64ms", st)
	}
	if st := out.Ops[bytecode.OpPushLit]; st == nil || st.Count != 64 || st.Time != 0 {
		t.Errorf("push_lit = %+v, want count 64 time 0", st)
	}
	if ls := out.Lines[7]; ls == nil || ls.Count != 128 || ls.Time != 64*time.Millisecond {
		t.Errorf("line 7 = %+v, want count 128 time 64ms", ls)
	}
}

// TestSampleDue pins when a pc's next execution is timed: its first,
// every 32nd, and every one while its timed runs average 4 µs or more.
func TestSampleDue(t *testing.T) {
	for _, c := range []struct {
		st   pcStat
		want bool
	}{
		{pcStat{}, true}, // the first execution
		{pcStat{count: 1, timed: 1, time: time.Microsecond}, false},
		{pcStat{count: 31, timed: 1, time: time.Microsecond}, false},
		{pcStat{count: 32, timed: 1, time: time.Microsecond}, true},
		{pcStat{count: 33, timed: 2, time: 2 * time.Microsecond}, false},
		{pcStat{count: 64, timed: 3, time: 3 * time.Microsecond}, true},
		{pcStat{count: 1, timed: 1, time: slowOp}, true}, // mean 4 µs
		{pcStat{count: 5, timed: 5, time: 5*slowOp - 1}, false},
		{pcStat{count: 40, timed: 2, time: 3 * slowOp}, true}, // a slow pc back on every run
	} {
		if got := c.st.due(); got != c.want {
			t.Errorf("%+v: due = %v, want %v", c.st, got, c.want)
		}
	}
}

func TestMergeProfilesNoWorkers(t *testing.T) {
	out := mergeProfiles(nil, []*ioServer{{rank: 3, diskWrites: 1}})
	if len(out.Servers) != 1 || out.Servers[0].DiskWrites != 1 {
		t.Errorf("servers = %+v", out.Servers)
	}
}

func TestProfileStringSections(t *testing.T) {
	p := &Profile{
		Ops:     map[bytecode.Op]*OpStat{bytecode.OpContract: {Count: 1, Time: time.Millisecond}},
		Lines:   map[int]*LineStat{12: {Count: 4, Time: 8 * time.Millisecond}},
		Servers: []ServerStat{{Rank: 5, CacheHits: 2, CacheMisses: 1, DiskReads: 1, DiskWrites: 3}},
	}
	out := p.String()
	for _, want := range []string{
		"hot lines:", "    12", "server r5: cache 2/3 hits, 1 disk reads, 3 disk writes",
		"servers total: cache 2/3 hits, 1 disk reads, 3 disk writes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("profile missing %q:\n%s", want, out)
		}
	}
}

func TestProfileHotLineTableBounded(t *testing.T) {
	p := &Profile{Ops: map[bytecode.Op]*OpStat{}, Lines: map[int]*LineStat{}}
	for i := 1; i <= 25; i++ {
		p.Lines[i] = &LineStat{Count: 1, Time: time.Duration(i) * time.Millisecond}
	}
	out := p.String()
	rows := 0
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "hot lines:"):
			inTable = true
		case inTable && strings.HasPrefix(line, "    ") && !strings.Contains(line, "line"):
			rows++
		case inTable && !strings.HasPrefix(line, "    "):
			inTable = false
		}
	}
	if rows != hotLineRows {
		t.Errorf("hot-line rows = %d, want %d", rows, hotLineRows)
	}
	// The hottest line must lead the table.
	if !strings.Contains(out, "    25") {
		t.Errorf("hottest line missing:\n%s", out)
	}
}
