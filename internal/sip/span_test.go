package sip

// Chunks are spans of a pardo's row-major iteration space: the master
// counts the candidates of a span that pass the where clauses, the
// worker's pardo frame walks the same candidates and runs those that
// pass.  These tests pin that the two agree on the iteration set, at
// several worker counts and across a resume that steps over holes, and
// that the master's ledger grows with chunks, not iterations.

import (
	"fmt"
	"os"
	goruntime "runtime"
	"testing"
	"unsafe"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/wire"
)

// whereSpanDecls and whereSpanPardo open a pardo with a literal clause
// (K > 2), an index-index clause (I <= J) and a parameter clause
// (J + K <= m + I) over 9^3 candidates.
const whereSpanDecls = `
param n = 9
param m = 10
aoindex I = 1, n
aoindex J = 1, n
aoindex K = 1, n
scalar count
scalar sum
scalar sq
scalar w
`

const whereSpanPardo = `pardo I, J, K where K > 2 where I <= J where J + K <= m + I
  w = I * 10000 + J * 100 + K
  count += 1
  sum += w
  sq += w * w
`

const whereSpanTail = `endpardo
collective count
collective sum
collective sq
endsial
`

// whereSpanFilter is the pardo's where clauses in Go.
func whereSpanFilter(i, j, k int) bool { return k > 2 && i <= j && j+k <= 10+i }

// whereSpanMoments returns the count, sum and sum of squares of the
// weights w = I*10000 + J*100 + K over the iterations with candidate
// ordinal in [lo, hi) that pass the filter.
func whereSpanMoments(lo, hi int) (count, sum, sq float64) {
	for ord := lo; ord < hi; ord++ {
		i, j, k := ord/81+1, ord/9%9+1, ord%9+1
		if whereSpanFilter(i, j, k) {
			w := float64(i*10000 + j*100 + k)
			count, sum, sq = count+1, sum+w, sq+w*w
		}
	}
	return
}

// TestWhereSpansRunTheFilteredSet: every iteration the Go filter admits
// runs exactly once, and no other, at 1, 2 and 3 workers.  Each iteration
// adds 1 to its own block of a served array, so the gathered array is the
// iteration set with its multiplicities.
func TestWhereSpansRunTheFilteredSet(t *testing.T) {
	src := "sial where_spans" + whereSpanDecls + "served S(I,J,K)\ntemp one(I,J,K)\n" + whereSpanPardo +
		"  one(I,J,K) = 1.0\n  prepare S(I,J,K) += one(I,J,K)\n" + whereSpanTail
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	seg := bytecode.DefaultSegConfig(1)
	layout, err := prog.Resolve(nil, seg)
	if err != nil {
		t.Fatal(err)
	}
	shape := layout.Shapes[prog.ArrayID("S")]
	want := map[[3]int]bool{}
	for i := 1; i <= 9; i++ {
		for j := 1; j <= 9; j++ {
			for k := 1; k <= 9; k++ {
				if whereSpanFilter(i, j, k) {
					want[[3]int{i, j, k}] = true
				}
			}
		}
	}
	count, sum, sq := whereSpanMoments(0, 729)
	for workers := 1; workers <= 3; workers++ {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res, err := Run(prog, Config{Workers: workers, Servers: 1, Seg: seg, GatherArrays: true})
			if err != nil {
				t.Fatal(err)
			}
			got := map[[3]int]bool{}
			for _, ab := range res.Served["S"] {
				c := shape.CoordOf(ab.Ord)
				if ab.Data[0] != 1 {
					t.Errorf("iteration %v ran %g times", c, ab.Data[0])
				}
				got[[3]int{c[0], c[1], c[2]}] = true
			}
			for it := range want {
				if !got[it] {
					t.Errorf("iteration %v passes the filter but never ran", it)
				}
			}
			for it := range got {
				if !want[it] {
					t.Errorf("iteration %v fails the filter but ran", it)
				}
			}
			if res.Scalars["count"] != count || res.Scalars["sum"] != sum || res.Scalars["sq"] != sq {
				t.Errorf("count, sum, sq = %g, %g, %g, want %g, %g, %g",
					res.Scalars["count"], res.Scalars["sum"], res.Scalars["sq"], count, sum, sq)
			}
		})
	}
}

// TestWhereSpansResumeWithHoles: a resumed run steps over the spans a
// snapshot recorded as completed, wherever they lie.  The manifest is
// written here: every third span of 20 candidates is completed, with
// the scalar sums those iterations contributed, and the pardo must run
// the rest, each iteration once, at 1, 2 and 3 workers.
func TestWhereSpansResumeWithHoles(t *testing.T) {
	prog, err := compiler.CompileSource("sial where_holes" + whereSpanDecls + whereSpanPardo + whereSpanTail)
	if err != nil {
		t.Fatal(err)
	}
	var holes []span
	var done [3]float64 // count, sum, sq of the skipped iterations
	for lo := 7; lo < 729; lo += 60 {
		hi := min(lo+20, 729)
		c, s, q := whereSpanMoments(lo, hi)
		holes = append(holes, span{lo: lo, hi: hi, n: int(c)})
		done[0], done[1], done[2] = done[0]+c, done[1]+s, done[2]+q
	}
	count, sum, sq := whereSpanMoments(0, 729)
	if done[0] == 0 || done[0] == count {
		t.Fatalf("the holes skip %g of %g iterations; the drill is vacuous", done[0], count)
	}
	for workers := 1; workers <= 3; workers++ {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{Workers: workers, Seg: bytecode.DefaultSegConfig(1), ScratchDir: t.TempDir(),
				CkptInterval: 1, Resume: true, Metrics: obs.NewRegistry()}
			rt, err := newRuntime(prog, cfg, nil, batch(cfg))
			if err != nil {
				t.Fatal(err)
			}
			m := newMaster(rt)
			sums := make([]float64, len(prog.Scalars))
			for i, sc := range prog.Scalars {
				sums[i] = map[string]float64{"count": done[0], "sum": done[1], "sq": done[2]}[sc.Name]
			}
			// The overlay lists the holes out of order, as two workers'
			// watermarks would.
			overlay := append(append([]span(nil), holes[len(holes)/2:]...), holes[:len(holes)/2]...)
			man := ckptManifest{epoch: 1, name: rt.cfg.CkptName, fingerprint: ckptFingerprint(rt),
				sums: sums, overlays: []ckptOverlay{{pardo: 0, gen: 0, spans: overlay}}}
			if err := os.MkdirAll(m.snap.dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := writeIntegrityFile(m.manifestPath(1), manifestMagic, wire.Encode(man)); err != nil {
				t.Fatal(err)
			}
			rt.close()
			res, err := Run(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Scalars["count"] != count || res.Scalars["sum"] != sum || res.Scalars["sq"] != sq {
				t.Errorf("count, sum, sq = %g, %g, %g, want %g, %g, %g",
					res.Scalars["count"], res.Scalars["sum"], res.Scalars["sq"], count, sum, sq)
			}
			counters := cfg.Metrics.Snapshot().Counters
			if counters[metricResumeResumed] != 1 {
				t.Errorf("%s = %d, want 1", metricResumeResumed, counters[metricResumeResumed])
			}
			if got, want := counters[metricMasterIters], int64(count-done[0]); got != want {
				t.Errorf("%s = %d, want %d: the holes were not stepped over exactly", metricMasterIters, got, want)
			}
		})
	}
}

// TestLedgerGrowsWithChunks drives a pardo of 32^4 (about 10^6)
// candidates to exhaustion through take, four workers in turn and none
// acknowledging, so the ledger holds every chunk at the end.  The spans
// must cover exactly the iterations that pass, and the ledger and all
// the master allocated on the way must stay within a constant per chunk.
func TestLedgerGrowsWithChunks(t *testing.T) {
	for _, tc := range []struct {
		where  string
		filter func(i, j, k, l int) bool
	}{
		{"", func(i, j, k, l int) bool { return true }},
		{"where I <= J where K < L", func(i, j, k, l int) bool { return i <= j && k < l }},
	} {
		t.Run(fmt.Sprintf("where=%q", tc.where), func(t *testing.T) {
			prog, err := compiler.CompileSource(`
sial big
param n = 32
aoindex I = 1, n
aoindex J = 1, n
aoindex K = 1, n
aoindex L = 1, n
scalar c
pardo I, J, K, L ` + tc.where + `
  c += 1
endpardo
endsial
`)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Workers: 4, Seg: bytecode.DefaultSegConfig(1)}
			rt, err := newRuntime(prog, cfg, nil, batch(cfg))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.close()
			const n = 32
			want := 0
			for ord := range n * n * n * n {
				if tc.filter(ord/(n*n*n)+1, ord/(n*n)%n+1, ord/n%n+1, ord%n+1) {
					want++
				}
			}
			r := newPardoRun(rt, 0)
			var ctr obs.Counter
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			chunks, iters := 0, 0
			for wr := 0; ; wr = (wr + 1) % 4 {
				s := r.take(r.chunkSize(4), wr, &ctr)
				if s.n == 0 {
					break
				}
				chunks++
				iters += s.n
			}
			goruntime.ReadMemStats(&after)
			if iters != want {
				t.Errorf("spans hold %d iterations, want %d", iters, want)
			}
			held, prev := 0, -1
			for wr := range 4 {
				for _, s := range r.assigned[wr] {
					if s.lo <= prev || s.hi <= s.lo {
						t.Fatalf("worker %d holds span %+v after one ending at %d", wr, s, prev)
					}
					held += s.n
				}
				prev = -1
			}
			if held != want {
				t.Errorf("the ledger holds %d iterations, want %d", held, want)
			}
			var ledger uintptr
			for _, spans := range r.assigned {
				ledger += uintptr(cap(spans)) * unsafe.Sizeof(span{})
			}
			allocated := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d iterations in %d chunks: ledger %d B, %d B allocated", iters, chunks, ledger, allocated)
			if chunks*100 > iters {
				t.Errorf("%d chunks for %d iterations: the guided schedule is gone", chunks, iters)
			}
			if perChunk := float64(ledger) / float64(chunks); perChunk > 2*float64(unsafe.Sizeof(span{}))+8 {
				t.Errorf("the ledger takes %.1f B per chunk, want a constant (two spans' worth)", perChunk)
			}
			if perChunk := float64(allocated) / float64(chunks); perChunk > 256 {
				t.Errorf("handing out %d chunks allocated %.1f B per chunk, want a constant", chunks, perChunk)
			}
		})
	}
}
