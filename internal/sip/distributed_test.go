package sip

import (
	"bytes"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
)

// distProgram exercises every distributed protocol: pardo chunking,
// get/put with accumulate, served arrays with flushes, barriers, a
// collective reduction, and print.
const distProgram = `
sial dist_all
param n = 6
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
served S(I,J)
temp t(I,J)
scalar e
pardo I, J
  get D(I,J)
  t(I,J) = 2.0 * D(I,J)
  prepare S(I,J) = t(I,J)
  put D(I,J) += t(I,J)
endpardo
sip_barrier
server_barrier
pardo I, J
  request S(I,J)
  t(I,J) = S(I,J)
  e += dot(t(I,J), t(I,J))
endpardo
collective e
print "e =", e
endsial
`

func distConfig(out *bytes.Buffer) Config {
	return Config{
		Workers: 2,
		Servers: 1,
		Seg:     bytecode.DefaultSegConfig(3),
		Preset:  map[string]PresetFunc{"D": presetFrom(tElem)},
		Output:  out,
	}
}

// runRanksOver executes one RunRank per world rank, each rank on its own
// goroutine with its own world, connected by the given transports.
// It mirrors a real multi-process deployment inside one test binary.
func runRanksOver(t *testing.T, src string, mkWorld func(rank int) *mpi.World,
	cfg func(rank int) Config) ([]*Result, []error) {
	t.Helper()
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	c0 := cfg(0)
	n := 1 + c0.Workers + c0.Servers
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			world := mkWorld(rank)
			defer world.Close()
			results[rank], errs[rank] = RunRank(prog, cfg(rank), world, rank)
		}(rank)
	}
	wg.Wait()
	return results, errs
}

func tcpWorldMaker(t *testing.T, n int) func(rank int) *mpi.World {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return func(rank int) *mpi.World {
		tr, err := transport.NewTCP(transport.TCPConfig{Rank: rank, Addrs: addrs, Listener: lns[rank]})
		if err != nil {
			t.Fatal(err)
		}
		w, err := mpi.NewDistributedWorld(n, []int{rank}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
}

func routerWorldMaker(t *testing.T, n int) func(rank int) *mpi.World {
	t.Helper()
	// Build every world eagerly, before any rank runs (like
	// faultWorldMaker): the Local transport has no dial retry, so a fast
	// rank sending to a lazily-built peer world would hit "endpoint not
	// receiving" and abort at startup.
	r := transport.NewRouter()
	worlds := make([]*mpi.World, n)
	for rank := 0; rank < n; rank++ {
		w, err := mpi.NewDistributedWorld(n, []int{rank}, r.Endpoint(rank))
		if err != nil {
			t.Fatal(err)
		}
		worlds[rank] = w
	}
	return func(rank int) *mpi.World { return worlds[rank] }
}

// TestRunRankMatchesRun runs the same program in-process and across
// distributed worlds on both transports, and requires identical scalar
// results (the acceptance bar is 1e-10; the arithmetic is deterministic
// so it should in fact be exact).
func TestRunRankMatchesRun(t *testing.T) {
	var serialOut bytes.Buffer
	serial, err := RunSource(distProgram, distConfig(&serialOut))
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Scalars["e"]
	if want == 0 {
		t.Fatalf("suspicious serial reference e = 0 (output %q)", serialOut.String())
	}

	for _, tc := range []struct {
		name string
		mk   func(t *testing.T, n int) func(rank int) *mpi.World
	}{
		{"router", routerWorldMaker},
		{"tcp", tcpWorldMaker},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outs := make([]bytes.Buffer, 4)
			mkWorld := tc.mk(t, 4) // 1 master + 2 workers + 1 server
			results, errs := runRanksOver(t, distProgram, mkWorld, func(rank int) Config {
				cfg := distConfig(&outs[rank])
				return cfg
			})
			for rank, err := range errs {
				if err != nil {
					t.Errorf("rank %d: %v", rank, err)
				}
			}
			if t.Failed() {
				t.FailNow()
			}
			got, ok := results[0].Scalars["e"]
			if !ok {
				t.Fatalf("master result lacks scalar e: %+v", results[0].Scalars)
			}
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("distributed e = %g, serial e = %g (diff %g)", got, want, got-want)
			}
			// Worker 1 printed on its own process.
			if !strings.Contains(outs[1].String(), "e =") {
				t.Errorf("worker 1 output %q lacks print", outs[1].String())
			}
		})
	}
}

// TestRunRankLateServerShutsDown: an idle I/O server whose transport
// comes up a second after the master and the worker started still gets
// its shutdown.  The master returns only once every home has answered, so
// its world never closes over a shutdown still waiting to be dialled.
func TestRunRankLateServerShutsDown(t *testing.T) {
	prog, err := compiler.CompileSource(`
sial idle_server
param n = 4
aoindex I = 1, n
scalar e
pardo I
  e += 1.0
endpardo
collective e
endsial
`)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 // 1 master + 1 worker + 1 server
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	lns[2].Close() // the server listens only once it starts
	lns[2] = nil
	type result struct {
		rank int
		res  *Result
		err  error
	}
	done := make(chan result, n)
	start := func(rank int) {
		go func() {
			tr, err := transport.NewTCP(transport.TCPConfig{Rank: rank, Addrs: addrs, Listener: lns[rank]})
			if err != nil {
				done <- result{rank, nil, err}
				return
			}
			world, err := mpi.NewDistributedWorld(n, []int{rank}, tr)
			if err != nil {
				done <- result{rank, nil, err}
				return
			}
			defer world.Close()
			cfg := Config{Workers: 1, Servers: 1, Seg: bytecode.DefaultSegConfig(2), Output: &bytes.Buffer{}}
			res, err := RunRank(prog, cfg, world, rank)
			done <- result{rank, res, err}
		}()
	}
	start(0)
	start(1)
	time.Sleep(time.Second)
	start(2)
	timeout := time.After(20 * time.Second)
	for pending := n; pending > 0; pending-- {
		select {
		case r := <-done:
			if r.err != nil {
				t.Errorf("rank %d: %v", r.rank, r.err)
			} else if r.rank == 0 && r.res.Scalars["e"] != 2 {
				t.Errorf("master e = %v, want 2 (one per segment of I)", r.res.Scalars["e"])
			}
		case <-timeout:
			t.Fatalf("%d rank(s) still running 20 s after the master started", pending)
		}
	}
}

// TestRunRankWorkerFailurePropagates: an error on one worker must
// surface on the master and the sibling worker instead of deadlocking
// any rank.
func TestRunRankWorkerFailurePropagates(t *testing.T) {
	// get without a surrounding pardo fetch pattern: worker errors at
	// runtime ("without get" path), master must be told.
	src := `
sial dist_bad
param n = 4
aoindex I = 1, n
distributed D(I,I)
temp t(I,I)
pardo I
  t(I,I) = D(I,I)
endpardo
endsial
`
	mkWorld := tcpWorldMaker(t, 3) // 1 master + 2 workers
	var out bytes.Buffer
	results, errs := runRanksOver(t, src, mkWorld, func(rank int) Config {
		return Config{Workers: 2, Seg: bytecode.DefaultSegConfig(2), Output: &out}
	})
	_ = results
	if errs[0] == nil {
		t.Error("master reported no error")
	}
	sawReal := false
	for rank := 1; rank <= 2; rank++ {
		if errs[rank] != nil && strings.Contains(errs[rank].Error(), "without get") {
			sawReal = true
		}
	}
	if !sawReal {
		t.Errorf("no worker reported the real error: %v / %v", errs[1], errs[2])
	}
}
