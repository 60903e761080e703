// The core's tests drive the chemistry programs, so they live in the
// external test package (internal/chem imports sip).
package sip_test

import (
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/chem"
	"repro/internal/compiler"
	"repro/internal/sip"
)

// mp2Core returns the MP2 program and the configuration chem.MP2SIP runs
// it under, at one worker.
func mp2Core(tb testing.TB, no, nv int) (*bytecode.Program, sip.Config) {
	tb.Helper()
	prog, err := compiler.CompileSource(chem.MP2EnergyProgram())
	if err != nil {
		tb.Fatal(err)
	}
	return prog, sip.Config{
		Workers:   1,
		Params:    map[string]int{"no": no, "nv": nv},
		Seg:       bytecode.DefaultSegConfig(2),
		Integrals: chem.MOIntegrals(no),
		Super:     chem.MP2Super(),
		Output:    io.Discard,
	}
}

// TestCoreMatchesRun: MP2 through the interpreter core alone, over an
// in-memory mover, gives sip.Run's energy at one worker bit for bit, in
// as many instructions.  The count is pinned too: the profile samples
// its clock, never its counts.
func TestCoreMatchesRun(t *testing.T) {
	prog, cfg := mp2Core(t, 4, 8)
	res, err := sip.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, st := range res.Profile.Ops {
		want += st.Count
	}
	core, err := sip.NewCoreRuntime(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer core.Close()
	scalars, instrs, err := core.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, ref := scalars["emp2"], res.Scalars["emp2"]; math.Float64bits(got) != math.Float64bits(ref) || ref == 0 {
		t.Errorf("core emp2 = %v, sip.Run %v", got, ref)
	}
	if instrs != want {
		t.Errorf("core executed %d instructions, sip.Run %d", instrs, want)
	}
	const mp2Instrs = 1154 // MP2 at no=4 nv=8, seg 2
	if want != mp2Instrs {
		t.Errorf("sip.Run executed %d instructions, want %d", want, mp2Instrs)
	}
}

// BenchmarkCore measures dispatch with nothing around it: MP2 at seg 2,
// the size of internal/chem's BenchmarkMP2Pardo, on the interpreter core
// over an in-memory mover.  Beside that benchmark's figures, its ns/instr
// and allocs/iter show what the runtime around the core costs.
func BenchmarkCore(b *testing.B) {
	const no, nv = 8, 24
	prog, cfg := mp2Core(b, no, nv)
	core, err := sip.NewCoreRuntime(prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer core.Close()
	var instrs int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n, err := core.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += n
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	iters := float64(b.N * (no / 2) * (nv / 2) * (no / 2) * (nv / 2))
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(instrs), "ns/instr")
	b.ReportMetric(ns/iters, "ns/iter")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/iters, "allocs/iter")
}
