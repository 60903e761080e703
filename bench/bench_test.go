package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestWorkloadsSmoke runs every workload at a tiny size through the code
// path the benchmark uses — prepare, open (with its warm-up), verified
// units, the traced accumulator, Close — and asserts the oracle passes.
func TestWorkloadsSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads(true) {
		meta := w.info()
		t.Run(meta.name, func(t *testing.T) {
			if err := w.prepare(7); err != nil {
				t.Fatal(err)
			}
			units := 1
			if meta.clients > 1 {
				units = 40 // jobs: enough to draw every kind of the mix
			}
			for _, o := range []options{{}, {rec: &recorder{workload: meta.name}}} {
				inst, err := w.open(o)
				if err != nil {
					t.Fatalf("open traced=%v: %v", o.rec != nil, err)
				}
				for i := 0; i < units; i++ {
					if err := inst.unit(i); err != nil {
						inst.Close()
						t.Fatalf("unit %d traced=%v: %v", i, o.rec != nil, err)
					}
				}
				v := inst.layers().values()
				if err := inst.Close(); err != nil {
					t.Fatal(err)
				}
				if o.rec == nil {
					continue
				}
				if v["sip.instr_count"] <= 0 {
					t.Errorf("traced units recorded no instructions: %v", v["sip.instr_count"])
				}
				sum := 0.0
				for _, k := range budgetNames {
					sum += v[k]
				}
				if math.Abs(sum-100) > 1 {
					t.Errorf("time budget sums to %.2f, want 100 +- 1", sum)
				}
				if d, n := o.rec.total("solve"); meta.clients == 1 && (n != units || d <= 0) {
					t.Errorf("recorder kept %d solve spans (%v), want %d", n, d, units)
				}
			}
			for _, sd := range meta.sides {
				inst, err := w.open(options{variant: sd.variant})
				if err != nil {
					t.Fatalf("open %s: %v", sd.variant, err)
				}
				if err := inst.unit(0); err != nil {
					t.Errorf("unit under %s: %v", sd.variant, err)
				}
				if err := inst.Close(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// total sums the spans of one name.
func (r *recorder) total(name string) (d time.Duration, n int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
			n++
		}
	}
	return d, n
}

// TestOracleRejectsWrongAnswer: the check the benchmark relies on must
// fail on a result that is off by more than the tolerance.
func TestOracleRejectsWrongAnswer(t *testing.T) {
	res := &core.Result{Scalars: map[string]float64{"e": 1 + 1e-8}}
	if err := checkScalar(res, "e", 1); err == nil {
		t.Error("a scalar off by 1e-8 relative passed")
	}
	res.Scalars["e"] = 1 + 1e-11
	if err := checkScalar(res, "e", 1); err != nil {
		t.Errorf("a scalar off by 1e-11 relative failed: %v", err)
	}
	if err := checkScalar(res, "missing", 1); err == nil {
		t.Error("a missing scalar passed")
	}
}

// TestSpread pins the quartile rule to Python's
// statistics.quantiles(values, n=4).
func TestSpread(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	// quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
}

// TestBenchmarkJSON validates BENCHMARK.json against the builder's
// contract and against the tables it is generated from.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("../BENCHMARK.json differs from the tables in metrics.go and workloads.go; regenerate it with `go run . -json > ../BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's charset or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, better string) {
		t.Helper()
		if better != "lower" && better != "higher" {
			t.Errorf("%s: direction %q", n, better)
		}
	}

	gated := 0
	isWorkload := map[string]bool{}
	for _, w := range workloads(false) {
		meta := w.info()
		checkName(meta.name)
		isWorkload[meta.name] = true
		if meta.gated {
			gated++
		}
		if meta.why == "" || len(meta.why) > 200 || strings.Contains(meta.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", meta.name)
		}
		if meta.clients < 1 || meta.clients > 2 {
			t.Errorf("%s: %d load generators, the reference host has 2 cores", meta.name, meta.clients)
		}
	}

	if gated < 2 || gated > 8 {
		t.Errorf("%d gated workloads, contract allows 2 to 8", gated)
	}

	if len(endToEndMetrics) < 1 || len(endToEndMetrics) > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", len(endToEndMetrics))
	}
	isEndToEnd := map[string]bool{}
	for _, m := range endToEndMetrics {
		checkName(m.name)
		isEndToEnd[m.name] = true
		direction(m.name, m.better)
		if !unit.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	if !isEndToEnd["setup_s"] {
		t.Error("setup_s is missing from the end-to-end metrics")
	}

	if len(perLayerMetrics) < 1 || len(perLayerMetrics) > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", len(perLayerMetrics))
	}
	for _, m := range perLayerMetrics {
		checkName(m.name)
		direction(m.name, m.better)
		if !unit.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if len(m.moves) == 0 {
			t.Errorf("%s: no prediction of what it moves", m.name)
		}
		for _, mv := range m.moves {
			if !isEndToEnd[mv.metric] || !isWorkload[mv.workload] {
				t.Errorf("%s: moves %s on %s, which is not an end-to-end metric on a workload", m.name, mv.metric, mv.workload)
			}
		}
		for _, w := range m.still {
			if !isWorkload[w] {
				t.Errorf("%s: predicted still on unknown workload %s", m.name, w)
			}
		}
	}
}
