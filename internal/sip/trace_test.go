package sip

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/obs"
)

// textTracer is a tracer whose only output is the text trace, as the
// CLI's -trace builds it.
func textTracer(w *bytes.Buffer, ranks ...int) *obs.Tracer {
	return obs.NewTracer(obs.TracerConfig{Capacity: 1, Ranks: ranks, Text: w})
}

func TestTraceOutput(t *testing.T) {
	src := `
sial traced
param n = 4
aoindex I = 1, n
distributed D(I,I)
temp one(I,I)
pardo I
  one(I,I) = 1.0
  put D(I,I) = one(I,I)
endpardo I
sip_barrier
endsial
`
	var buf bytes.Buffer
	cfg := Config{Workers: 1, Seg: bytecode.DefaultSegConfig(2), Tracer: textTracer(&buf)}
	if _, err := RunSource(src, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"pardo_start", "block_fill", "put", "barrier", "halt"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// The pardo body lines must carry the iteration's index values.
	if !strings.Contains(out, "[I=1]") || !strings.Contains(out, "[I=2]") {
		t.Errorf("trace missing pardo iteration annotations:\n%s", out)
	}
	// Source lines are attached.
	if !strings.Contains(out, "line=") {
		t.Errorf("trace missing source lines:\n%s", out)
	}
	// One whole line, verbatim: the format is an interface people grep.
	if want := "\nw1 pc=2    line=8   block_fill [I=1]\n"; !strings.Contains(out, want) {
		t.Errorf("trace missing the line %q:\n%s", want[1:], out)
	}
}

// TestTraceRanksFilter is the regression test for the historical
// single-rank trace: a tracer filtered to rank 1 must reproduce the old
// worker-1-only output shape.
func TestTraceRanksFilter(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Workers: 3, Seg: bytecode.DefaultSegConfig(2), Tracer: textTracer(&buf, 1),
		Params: map[string]int{"norb": 4, "nocc": 2},
		Preset: map[string]PresetFunc{"T": presetFrom(tElem)}}
	if _, err := RunSource(paperProgram, cfg); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(buf.String())
	if out == "" {
		t.Fatal("no trace output")
	}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "w1 ") {
			t.Fatalf("trace line from a worker other than 1: %q", line)
		}
	}
}

// TestTraceAllRanks checks that without a filter every worker traces,
// each line carrying its rank prefix.
func TestTraceAllRanks(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Workers: 3, Seg: bytecode.DefaultSegConfig(2), Tracer: textTracer(&buf),
		Params: map[string]int{"norb": 4, "nocc": 2},
		Preset: map[string]PresetFunc{"T": presetFrom(tElem)}}
	if _, err := RunSource(paperProgram, cfg); err != nil {
		t.Fatal(err)
	}
	ranks := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		prefix, _, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(prefix, "w") {
			t.Fatalf("malformed trace line: %q", line)
		}
		ranks[prefix] = true
	}
	for _, want := range []string{"w1", "w2", "w3"} {
		if !ranks[want] {
			t.Errorf("no trace lines from %s (saw %v)", want, ranks)
		}
	}
}
