package chem

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/segment"
	"repro/internal/sip"
)

// poisonBlockPool gives the block allocator NaN blocks of every shape the
// arrays of src take at these parameters and segment size, in every
// permutation of their dims: whatever a run draws from it and fails to
// overwrite or zero shows up as NaN in its result.
func poisonBlockPool(t *testing.T, src string, params map[string]int, seg int) {
	t.Helper()
	layout := resolve(t, src, params, seg)
	seen := map[string]bool{}
	for _, shape := range layout.Shapes {
		shape.EachCoord(func(c segment.Coord) {
			eachPermutation(shape.BlockDims(c), func(dims []int) {
				if k := fmt.Sprint(dims); !seen[k] {
					seen[k] = true
					for i := 0; i < 4; i++ { // more than one P's worth
						b := block.New(dims...)
						b.Fill(math.NaN())
						block.Put(b)
					}
				}
			})
		})
	}
	if len(seen) == 0 {
		t.Fatal("no block shapes: the poison is vacuous")
	}
}

func resolve(t *testing.T, src string, params map[string]int, seg int) *bytecode.Layout {
	t.Helper()
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := prog.Resolve(params, bytecode.DefaultSegConfig(seg))
	if err != nil {
		t.Fatal(err)
	}
	return layout
}

// eachPermutation calls fn with every ordering of dims (Heap's algorithm;
// fn must not keep its argument).
func eachPermutation(dims []int, fn func([]int)) {
	a := append([]int(nil), dims...)
	var gen func(k int)
	gen = func(k int) {
		if k <= 1 {
			fn(a)
			return
		}
		for i := 0; i < k; i++ {
			gen(k - 1)
			if k%2 == 0 {
				a[i], a[k-1] = a[k-1], a[i]
			} else {
				a[0], a[k-1] = a[k-1], a[0]
			}
		}
	}
	gen(len(a))
}

// gathered lays the gathered blocks of array name out densely, row-major
// over the array's full extent, and reports which elements they cover.
func gathered(t *testing.T, res *sip.Result, src string, params map[string]int, seg int, name string) (out []float64, set []bool) {
	t.Helper()
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	shape := resolve(t, src, params, seg).Shapes[prog.ArrayID(name)]
	out, set = make([]float64, shape.NumElements()), make([]bool, shape.NumElements())
	var full []int // the array's extent per dimension
	shape.EachCoord(func(c segment.Coord) {
		_, hi := shape.BlockBounds(c)
		for d, h := range hi {
			if d == len(full) {
				full = append(full, 0)
			}
			full[d] = max(full[d], h)
		}
	})
	for _, ab := range res.Arrays[name] {
		lo, hi := shape.BlockBounds(shape.CoordOf(ab.Ord))
		idx := append([]int(nil), lo...)
		for _, v := range ab.Data {
			pos := 0
			for d := range idx {
				pos = pos*full[d] + idx[d] - 1
			}
			out[pos], set[pos] = v, true
			for d := len(idx) - 1; d >= 0; d-- { // row-major odometer over the block
				if idx[d]++; idx[d] <= hi[d] {
					break
				}
				idx[d] = lo[d]
			}
		}
	}
	return out, set
}

func closeTo(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Max(math.Abs(want), 1)
}

// ccsdTermOverTCP runs the CCSD term as the ranks of a launched run do:
// one sip.RunRank per rank, each over its own loopback TCP world.  It
// returns the master's result.
func ccsdTermOverTCP(t *testing.T, cfg sip.Config) *sip.Result {
	t.Helper()
	prog, err := compiler.CompileSource(CCSDTermProgram())
	if err != nil {
		t.Fatal(err)
	}
	n := 1 + cfg.Workers
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for r := range lns {
		if lns[r], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[r] = lns[r].Addr().String()
	}
	results := make([]*sip.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range n {
		tr, err := transport.NewTCP(transport.TCPConfig{Rank: r, Addrs: addrs, Listener: lns[r]})
		if err != nil {
			t.Fatal(err)
		}
		w, err := mpi.NewDistributedWorld(n, []int{r}, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = sip.RunRank(prog, cfg, w, r)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results[0]
}

// TestRecycledGarbageNeverLeaks: with the block allocator full of NaN
// blocks of every shape a program uses, each program still matches its
// serial reference, so no instruction reads a recycled block it has not
// overwritten or zeroed.
func TestRecycledGarbageNeverLeaks(t *testing.T) {
	t.Run("mp2-seg2", func(t *testing.T) {
		const no, nv = 4, 6
		poisonBlockPool(t, MP2EnergyProgram(), map[string]int{"no": no, "nv": nv}, 2)
		got, err := MP2SIP(no, nv, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := MP2Reference(no, nv); !closeTo(got, want, 1e-11) {
			t.Fatalf("emp2 = %.14g, want %.14g", got, want)
		}
	})
	t.Run("ccsd-term-seg4", func(t *testing.T) {
		params := map[string]int{"norb": 8, "nocc": 4}
		poisonBlockPool(t, CCSDTermProgram(), params, 4)
		res, err := CCSDTermSIP(8, 4, 3, 4, tInitTest)
		if err != nil {
			t.Fatal(err)
		}
		got, set := gathered(t, res, CCSDTermProgram(), params, 4, "R")
		for i, want := range CCSDTermReference(8, 4, tInitTest) {
			if !set[i] || !closeTo(got[i], want, 1e-11) {
				t.Fatalf("R[%d] = %g (gathered %v), want %g", i, got[i], set[i], want)
			}
		}
	})
	t.Run("ccsd-term-seg4-tcp", func(t *testing.T) {
		// Every get and put crosses a loopback TCP connection: the homes
		// answer from recycled blocks and the requesters decode into them.
		const norb, nocc = 8, 4
		params := map[string]int{"norb": norb, "nocc": nocc}
		poisonBlockPool(t, CCSDTermProgram(), params, 4)
		res := ccsdTermOverTCP(t, ccsdTermConfig(norb, nocc, 3, 4, tInitTest))
		got, set := gathered(t, res, CCSDTermProgram(), params, 4, "R")
		for i, want := range CCSDTermReference(norb, nocc, tInitTest) {
			if !set[i] || !closeTo(got[i], want, 1e-11) {
				t.Fatalf("R[%d] = %g (gathered %v), want %g", i, got[i], set[i], want)
			}
		}
	})
	t.Run("fock-build", func(t *testing.T) {
		const norb = 6
		params := map[string]int{"norb": norb}
		poisonBlockPool(t, FockBuildProgram(), params, 2)
		res, err := FockBuildSIP(norb, 3, 2, ModelDensity)
		if err != nil {
			t.Fatal(err)
		}
		got, set := gathered(t, res, FockBuildProgram(), params, 2, "F")
		n := 0
		for i, want := range FockBuildReference(norb, ModelDensity) {
			if set[i] {
				n++
				if !closeTo(got[i], want, 1e-11) {
					t.Fatalf("F[%d] = %g, want %g", i, got[i], want)
				}
			}
		}
		if n == 0 {
			t.Fatal("no Fock elements gathered")
		}
	})
	t.Run("triples", func(t *testing.T) {
		const no, nv = 3, 4
		poisonBlockPool(t, TriplesProgram(), map[string]int{"no": no, "nv": nv}, 2)
		got, err := TriplesSIP(no, nv, 2, 2, t2Test)
		if err != nil {
			t.Fatal(err)
		}
		if want := TriplesReference(no, nv, t2Test); !closeTo(got, want, 1e-11) {
			t.Fatalf("E(T) = %.14g, want %.14g", got, want)
		}
	})
}

// TestConcurrentRunsShareTheAllocator runs two MP2 pool jobs and a batch
// run of the CCSD term at once, all drawing from and giving back to the
// one block allocator; under -race it also checks that no block is
// handed to two holders.  Each result must equal its reference.
func TestConcurrentRunsShareTheAllocator(t *testing.T) {
	const no, nv, norb, nocc = 4, 6, 6, 2
	prog, err := compiler.CompileSource(MP2EnergyProgram())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sip.NewPool(sip.PoolConfig{Workers: 2, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pool.RunJob(prog, sip.Config{
				Params:    map[string]int{"no": no, "nv": nv},
				Seg:       bytecode.DefaultSegConfig(2),
				Integrals: MOIntegrals(no),
				Super:     MP2Super(),
				Output:    &bytes.Buffer{},
			})
			if err == nil {
				if got, want := res.Scalars["emp2"], MP2Reference(no, nv); !closeTo(got, want, 1e-11) {
					err = fmt.Errorf("pool job emp2 = %.14g, want %.14g", got, want)
				}
			}
			errs <- err
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := CCSDTermSIP(norb, nocc, 3, 2, tInitTest)
		if err == nil {
			want := CCSDTermReference(norb, nocc, tInitTest)
			got, set := gathered(t, res, CCSDTermProgram(), map[string]int{"norb": norb, "nocc": nocc}, 2, "R")
			for i := range want {
				if !set[i] || !closeTo(got[i], want[i], 1e-11) {
					err = fmt.Errorf("R[%d] = %g, want %g", i, got[i], want[i])
					break
				}
			}
		}
		errs <- err
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
