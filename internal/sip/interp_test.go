package sip

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/obs"
)

// TestProfileTimesOnlySuperInstructions pins the profile's timing rule:
// every instruction is counted, but only super instructions are timed.
// The scalar and branch ops between two of them are charged to the second,
// so their rows (and the rows of lines holding nothing else) carry exact
// counts and zero time.  The text trace, which lists every instruction
// executed, is the oracle for the counts.
func TestProfileTimesOnlySuperInstructions(t *testing.T) {
	const src = `
sial timing
param n = 4
aoindex I = 1, n
temp a(I,I)
scalar x = 3
scalar y
scalar s
if x < 2
  y = 10
else
  y = 20
endif
y = y + x * 2
do I
  a(I,I) = y
  s += dot(a(I,I), a(I,I))
enddo I
endsial
`
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 2, Seg: bytecode.DefaultSegConfig(2), Output: io.Discard}

	var trace bytes.Buffer
	traced := cfg
	traced.Tracer = textTracer(&trace)
	if _, err := Run(prog, traced); err != nil {
		t.Fatal(err)
	}
	opCount := map[bytecode.Op]int64{}
	lineCount := map[int]int64{}
	superLine := map[int]bool{}
	for _, in := range prog.Code {
		superLine[in.Line] = superLine[in.Line] || in.Op.Super()
	}
	re := regexp.MustCompile(`pc=(\d+)\s+line=(\d+)`)
	for _, m := range re.FindAllStringSubmatch(trace.String(), -1) {
		pc, _ := strconv.Atoi(m[1])
		in := &prog.Code[pc]
		if in.Op == bytecode.OpHalt {
			continue // the run loop's, never profiled
		}
		opCount[in.Op]++
		lineCount[in.Line]++
	}

	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two diagonal 2x2 blocks of 26s.
	if res.Scalars["y"] != 26 || res.Scalars["s"] != 8*26*26 {
		t.Fatalf("y = %g, s = %g; want 26 and %d", res.Scalars["y"], res.Scalars["s"], 8*26*26)
	}
	p := res.Profile
	var scalarOps, superOps int
	for op, want := range opCount {
		st := p.Ops[op]
		if st == nil || st.Count != want {
			t.Errorf("%s: profile %+v, want count %d", op, st, want)
			continue
		}
		switch {
		case op.Super() && st.Time <= 0:
			t.Errorf("super instruction %s: %d executions timed %s, want > 0", op, st.Count, st.Time)
		case !op.Super() && st.Time != 0:
			t.Errorf("scalar/branch op %s: timed %s, want 0 (charged to the next super instruction)", op, st.Time)
		}
		if op.Super() {
			superOps++
		} else {
			scalarOps++
		}
	}
	if len(p.Ops) != len(opCount) {
		t.Errorf("profile has %d op rows, the trace %d", len(p.Ops), len(opCount))
	}
	if scalarOps < 5 || superOps < 4 {
		t.Fatalf("program exercised %d scalar/branch and %d super ops; the test needs both kinds", scalarOps, superOps)
	}
	pureScalarLines := 0
	for line, want := range lineCount {
		ls := p.Lines[line]
		if ls == nil || ls.Count != want {
			t.Errorf("line %d: profile %+v, want count %d", line, ls, want)
			continue
		}
		if !superLine[line] {
			pureScalarLines++
			if ls.Time != 0 {
				t.Errorf("line %d holds no super instruction but was timed %s", line, ls.Time)
			}
		}
	}
	if pureScalarLines == 0 {
		t.Fatal("no line of only scalar and branch ops executed")
	}
}

// sampledSrc runs each of its super instructions 40 times, past one
// sampling period (sampleEvery), with a user super instruction among
// them.
const sampledSrc = `
sial sampled
param n = 40
aoindex I = 1, n
temp a(I,I)
scalar s
do I
  a(I,I) = 1.0
  s += dot(a(I,I), a(I,I))
  execute spin a(I,I)
enddo I
endsial
`

// corePCs runs src on the interpreter core, one worker over memMover, and
// returns the program and its per-pc record.
func corePCs(t *testing.T, src string, cfg Config) (*bytecode.Program, []pcStat) {
	t.Helper()
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seg, cfg.Output = bytecode.DefaultSegConfig(1), io.Discard
	core, err := NewCoreRuntime(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer core.Close()
	var in interp
	if err := core.run(&in); err != nil {
		t.Fatal(err)
	}
	return prog, in.prof.pcs
}

// spinFor is a super instruction that busy-waits d and changes nothing.
func spinFor(d time.Duration) SuperFunc {
	return func(*ExecCtx, []*block.Block, []*float64) error {
		for start := time.Now(); time.Since(start) < d; {
		}
		return nil
	}
}

// TestSampledProfileFlags pins which executions the sampled profile
// times, by its counts and flags alone: every super pc is timed on its
// first execution and then at least once per sampling period, a user
// super instruction that runs 10 µs is timed on every execution, no
// scalar or branch op is ever timed, and with a tracer attached every
// super instruction is timed.
func TestSampledProfileFlags(t *testing.T) {
	cfg := Config{Super: map[string]SuperFunc{"spin": spinFor(10 * time.Microsecond)}}
	check := func(name string, cfg Config, traced bool) {
		prog, pcs := corePCs(t, sampledSrc, cfg)
		spun := false
		for pc, st := range pcs {
			in := prog.Code[pc]
			switch {
			case st.count == 0:
			case !in.Op.Super():
				if st.timed != 0 || st.time != 0 {
					t.Errorf("%s: pc %d (%s): timed %d of %d, want none", name, pc, in.Op, st.timed, st.count)
				}
			case traced || in.Op == bytecode.OpExecute:
				if st.timed != st.count {
					t.Errorf("%s: pc %d (%s): timed %d of %d, want all", name, pc, in.Op, st.timed, st.count)
				}
				spun = spun || in.Op == bytecode.OpExecute && st.count == 40
			default:
				if st.timed < (st.count+sampleEvery-1)/sampleEvery || st.timed > st.count {
					t.Errorf("%s: pc %d (%s): timed %d of %d, want its first and every %dth at least",
						name, pc, in.Op, st.timed, st.count, sampleEvery)
				}
			}
		}
		if !spun {
			t.Errorf("%s: the execute of spin did not run 40 times", name)
		}
	}
	check("untraced", cfg, false)
	traced := cfg
	traced.Tracer = obs.NewTracer(obs.TracerConfig{Capacity: 16})
	check("traced", traced, true)
}

// TestLocateResetsRegion: the worker resolves every reference into one of
// a few locations it owns, so a whole-block reference that follows a
// subblock one of the same array must not inherit its region, nor a
// subblock reference along another dimension its extents.  Each slot
// (destination, source, the execute argument) sees both orders in one
// pardo body, and the result must equal the dense evaluation.
func TestLocateResetsRegion(t *testing.T) {
	const src = `
sial regions
param n = 8
moaindex i = 1, n
moaindex j = 1, n
subindex ii of i
subindex jj of j
distributed D(i,j)
distributed R(i,j)
temp X(i,j)
temp Y(i,j)
temp Z(i,j)
scalar fro
pardo i, j
  get D(i,j)
  X(i,j) = D(i,j)
  do ii in i
    Y(ii,j) = D(ii,j)
    Y(ii,j) *= 2.0
  enddo ii
  X(i,j) += Y(i,j)
  do jj in j
    Z(i,jj) = X(i,jj)
  enddo jj
  execute frobenius Z(i,j), fro
  put R(i,j) = Z(i,j)
endpardo i, j
sip_barrier
collective fro
endsial
`
	cfg := Config{Workers: 2, Seg: bytecode.DefaultSegConfig(4), GatherArrays: true,
		Preset: map[string]PresetFunc{"D": presetFrom(tElem)}}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, layout := layoutFor(t, src, cfg)
	got := dense(t, layout.Shapes[prog.ArrayID("R")], res.Arrays["R"])
	const n = 8
	var fro float64
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			want := 3 * tElem([]int{i, j})
			fro += want * want
			if g := got[(i-1)*n+j-1]; g != want {
				t.Fatalf("R(%d,%d) = %g, want %g", i, j, g, want)
			}
		}
	}
	if g := res.Scalars["fro"]; math.Abs(g-fro) > 1e-9*fro {
		t.Fatalf("fro = %g, want %g", g, fro)
	}
}

// TestExecuteUnregisteredFailsOnlyWhenRun: execute resolves its super
// instruction once per run, but a name nothing registers still fails
// only if the instruction runs, and with the same error.
func TestExecuteUnregisteredFailsOnlyWhenRun(t *testing.T) {
	const src = `
sial unregistered
param n = 4
aoindex I = 1, n
temp a(I,I)
scalar flag = %d
scalar s
do I
  a(I,I) = 1.0
  if flag > 0
    execute no_such_op a(I,I)
  endif
  execute trace a(I,I), s
enddo I
endsial
`
	cfg := Config{Workers: 2, Seg: bytecode.DefaultSegConfig(2)}
	res, err := RunSource(fmt.Sprintf(src, 0), cfg)
	if err != nil {
		t.Fatalf("untaken execute of an unregistered name failed the run: %v", err)
	}
	if res.Scalars["s"] != 4 {
		t.Fatalf("s = %g, want 4", res.Scalars["s"])
	}
	_, err = RunSource(fmt.Sprintf(src, 1), cfg)
	if want := `execute: super instruction "no_such_op" not registered`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("taken execute of an unregistered name: err = %v, want %q", err, want)
	}
}
