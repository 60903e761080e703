package sip

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bytecode"
	"repro/internal/compiler"
)

// TestPassDataBetweenPrograms exercises the paper's §IV-C facility:
// "The super instructions blocks_to_list, list_to_blocks serialize and
// deserialize distributed arrays.  This facility is used to pass data
// between different SIAL programs."  Program A computes an array and
// checkpoints it; program B — a separate SIP run sharing the scratch
// directory — restores it and computes a probe.
func TestPassDataBetweenPrograms(t *testing.T) {
	scratch := t.TempDir()
	progA := `
sial producer
param n = 6
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
temp t(I,J)
pardo I, J
  t(I,J) = 4.0
  put D(I,J) = t(I,J)
endpardo
sip_barrier
blocks_to_list D
endsial
`
	progB := `
sial consumer
param n = 6
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
scalar probe
list_to_blocks D
sip_barrier
pardo I, J
  get D(I,J)
  probe += dot(D(I,J), D(I,J))
endpardo
collective probe
endsial
`
	cfgA := Config{Workers: 3, Seg: bytecode.DefaultSegConfig(2), ScratchDir: scratch}
	if _, err := RunSource(progA, cfgA); err != nil {
		t.Fatal(err)
	}
	// The consumer runs with a different worker count: the checkpoint
	// is placement- and geometry-independent.
	cfgB := Config{Workers: 5, Seg: bytecode.DefaultSegConfig(2), ScratchDir: scratch}
	res, err := RunSource(progB, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	// 36 elements of 4.0 squared = 576.
	if res.Scalars["probe"] != 576 {
		t.Fatalf("probe = %g, want 576", res.Scalars["probe"])
	}
}

// TestTornCheckpointFailsAttributed: a checkpoint truncated mid-file
// (disk corruption, or a crash predating the atomic temp-and-rename
// writes) must fail list_to_blocks with a clean attributed error on
// every worker — not a hang and not a partial restore.
func TestTornCheckpointFailsAttributed(t *testing.T) {
	scratch := t.TempDir()
	producer := `
sial torn_producer
param n = 6
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
temp t(I,J)
pardo I, J
  t(I,J) = 3.0
  put D(I,J) = t(I,J)
endpardo
sip_barrier
blocks_to_list D
endsial
`
	consumer := `
sial torn_consumer
param n = 6
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
list_to_blocks D
endsial
`
	mkCfg := func(out *bytes.Buffer) Config {
		return Config{Workers: 2, Seg: bytecode.DefaultSegConfig(2), ScratchDir: scratch, Output: out}
	}
	var prodOut bytes.Buffer
	if _, err := RunSource(producer, mkCfg(&prodOut)); err != nil {
		t.Fatal(err)
	}
	// Tear the checkpoint: truncate it mid-file.  The integrity framing
	// (magic + payload + CRC32) makes any truncation point detectable.
	path := filepath.Join(scratch, "ckpt_j0_D.ckpt")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 2 {
		t.Fatalf("checkpoint suspiciously small: %d bytes", fi.Size())
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	// Restore across a distributed world so each worker's error is
	// observable separately.
	outs := make([]bytes.Buffer, 3)
	mkWorld := routerWorldMaker(t, 3) // 1 master + 2 workers
	_, errs := runRanksOver(t, consumer, mkWorld, func(rank int) Config {
		return mkCfg(&outs[rank])
	})
	for rank := 1; rank <= 2; rank++ {
		if errs[rank] == nil {
			t.Errorf("worker %d: no error restoring a torn checkpoint", rank)
		} else if !strings.Contains(errs[rank].Error(), "list_to_blocks") {
			t.Errorf("worker %d: error not attributed to list_to_blocks: %v", rank, errs[rank])
		}
	}
	if errs[0] == nil {
		t.Error("master: no error after workers failed to restore")
	}
}

func TestRestoreMissingCheckpointFails(t *testing.T) {
	src := `
sial orphan
param n = 4
aoindex I = 1, n
distributed D(I,I)
list_to_blocks D
endsial
`
	_, err := RunSource(src, Config{Workers: 2, Seg: bytecode.DefaultSegConfig(2), ScratchDir: t.TempDir()})
	if err == nil {
		t.Fatal("restoring a never-saved checkpoint must fail")
	}
}

// TestUnwritableCheckpointFailsAttributed: a checkpoint the master cannot
// write (here: the scratch directory does not exist) fails blocks_to_list
// on the workers — the error travels in the round's release — instead of
// letting the run finish without its file.
func TestUnwritableCheckpointFailsAttributed(t *testing.T) {
	src := `
sial lost_save
param n = 4
aoindex I = 1, n
distributed D(I,I)
blocks_to_list D
endsial
`
	_, err := RunSource(src, Config{Workers: 2, Seg: bytecode.DefaultSegConfig(2),
		ScratchDir: filepath.Join(t.TempDir(), "missing")})
	if err == nil || !strings.Contains(err.Error(), "blocks_to_list") {
		t.Fatalf("saving into a missing scratch directory: %v, want an error naming blocks_to_list", err)
	}
}

// TestPaperProgramRandomConfigs is the integration property test: the
// paper's program must produce the reference result for arbitrary
// (workers, segment size, problem size) combinations.
func TestPaperProgramRandomConfigs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		norb := 2 + rng.Intn(5) // 2..6
		nocc := 1 + rng.Intn(3) // 1..3
		seg := 1 + rng.Intn(4)  // 1..4
		workers := 1 + rng.Intn(5)
		cfg := Config{
			Workers:        workers,
			Params:         map[string]int{"norb": norb, "nocc": nocc},
			Seg:            bytecode.DefaultSegConfig(seg),
			PrefetchWindow: rng.Intn(3),
			CacheBlocks:    2 + rng.Intn(64),
			GatherArrays:   true,
			Preset:         map[string]PresetFunc{"T": presetFrom(tElem)},
		}
		res, err := RunSource(paperProgram, cfg)
		if err != nil {
			t.Logf("seed %d (norb=%d nocc=%d seg=%d workers=%d): %v", seed, norb, nocc, seg, workers, err)
			return false
		}
		prog, _ := compiler.CompileSource(paperProgram)
		layout, err := prog.Resolve(cfg.Params, cfg.Seg)
		if err != nil {
			return false
		}
		got := dense(t, layout.Shapes[prog.ArrayID("R")], res.Arrays["R"])
		pos := 0
		for m := 1; m <= norb; m++ {
			for n := 1; n <= norb; n++ {
				for i := 1; i <= nocc; i++ {
					for j := 1; j <= nocc; j++ {
						var sum float64
						for l := 1; l <= norb; l++ {
							for s := 1; s <= norb; s++ {
								sum += vElem([]int{m, n, l, s}) * tElem([]int{l, s, i, j})
							}
						}
						if math.Abs(got[pos]-sum) > 1e-11 {
							t.Logf("seed %d: R[%d] = %g, want %g", seed, pos, got[pos], sum)
							return false
						}
						pos++
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestStressLargerProblem runs the paper program at a size where every
// mechanism is under load: 16 workers, hundreds of pardo iterations,
// thousands of block transfers, prefetching, and pooled temps.
func TestStressLargerProblem(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped with -short")
	}
	const norb, nocc, seg = 12, 4, 3
	cfg := Config{
		Workers:        16,
		Params:         map[string]int{"norb": norb, "nocc": nocc},
		Seg:            bytecode.DefaultSegConfig(seg),
		PrefetchWindow: 3,
		CacheBlocks:    32,
		GatherArrays:   true,
		Preset:         map[string]PresetFunc{"T": presetFrom(tElem)},
	}
	res, err := RunSource(paperProgram, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := compiler.CompileSource(paperProgram)
	layout, _ := prog.Resolve(cfg.Params, cfg.Seg)
	got := dense(t, layout.Shapes[prog.ArrayID("R")], res.Arrays["R"])
	// Spot-check a scattering of entries against the direct evaluation.
	stride := nocc * nocc
	for _, probe := range []struct{ m, n, i, j int }{
		{1, 1, 1, 1}, {12, 12, 4, 4}, {5, 9, 2, 3}, {11, 2, 4, 1},
	} {
		var want float64
		for l := 1; l <= norb; l++ {
			for s := 1; s <= norb; s++ {
				want += vElem([]int{probe.m, probe.n, l, s}) * tElem([]int{l, s, probe.i, probe.j})
			}
		}
		pos := ((probe.m-1)*norb+(probe.n-1))*stride + (probe.i-1)*nocc + (probe.j - 1)
		if math.Abs(got[pos]-want) > 1e-10 {
			t.Fatalf("R%v = %g, want %g", probe, got[pos], want)
		}
	}
	// All the machinery really ran.
	p := res.Profile
	if p.Fetches() == 0 || p.Prefetches() == 0 || p.PoolReuses == 0 {
		t.Fatalf("machinery idle: fetches=%d prefetches=%d poolReuses=%d",
			p.Fetches(), p.Prefetches(), p.PoolReuses)
	}
	if p.Pardos[0].Iterations != int64(4*4*2*2) {
		t.Fatalf("iterations = %d, want 64", p.Pardos[0].Iterations)
	}
}

func TestServedArrayPreset(t *testing.T) {
	// Presets on served arrays are installed by the I/O servers, so a
	// request without any prior prepare sees the preset values.
	src := `
sial servedpreset
param n = 4
aoindex I = 1, n
served S(I,I)
scalar total
pardo I
  request S(I,I)
  total += dot(S(I,I), S(I,I))
endpardo
collective total
endsial
`
	cfg := Config{Workers: 2, Servers: 2, Seg: bytecode.DefaultSegConfig(2),
		Preset: map[string]PresetFunc{"S": presetFrom(func(idx []int) float64 { return 1.5 })}}
	res, err := RunSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal blocks only: 2 blocks x 4 elements x 1.5^2.
	if res.Scalars["total"] != 2*4*2.25 {
		t.Fatalf("total = %g, want 18", res.Scalars["total"])
	}
}
