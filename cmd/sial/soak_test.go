package main

// The serve-soak drills behind CI's serve-soak job: dozens of
// overlapping MP2 and SCF submissions against one in-process pool, and
// a chaos variant that kills a worker rank and joins a spare while the
// stream is in flight.  Every MP2 job's energy must match the serial
// reference — multi-tenancy, recovery, and elasticity may cost time,
// never correctness.

import (
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/chem"
	"repro/internal/serve"
	"repro/internal/sip"
)

// soakJob is one submission of the soak mix: alternating MP2 (with a
// scalar to verify) and SCF Fock builds (verified by completion).
type soakJob struct {
	id   int
	pack string
}

// runSoak fires jobs overlapping submissions at svc and returns them.
func runSoak(t *testing.T, svc *serve.Service, jobs int) []soakJob {
	t.Helper()
	out := make([]soakJob, 0, jobs)
	for i := 0; i < jobs; i++ {
		pack := "mp2"
		if i%3 == 2 {
			pack = "scf"
		}
		st, err := svc.Submit(serve.SubmitRequest{
			Name: fmt.Sprintf("soak-%d-%s", i, pack),
			Pack: pack,
		})
		if err != nil {
			t.Fatalf("submit %d (%s): %v", i, pack, err)
		}
		out = append(out, soakJob{id: st.ID, pack: pack})
	}
	return out
}

// verifySoak waits out every job and checks states and energies.
func verifySoak(t *testing.T, svc *serve.Service, jobs []soakJob) {
	t.Helper()
	want := chem.MP2Reference(2, 4) // the mp2 pack's stock size
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j soakJob) {
			defer wg.Done()
			st, ok := svc.Wait(j.id)
			if !ok {
				errs[i] = fmt.Errorf("job %d vanished", j.id)
				return
			}
			if st.State != serve.StateDone {
				errs[i] = fmt.Errorf("job %d (%s): %s (%s)", j.id, j.pack, st.State, st.Error)
				return
			}
			if j.pack == "mp2" {
				if got := st.Scalars["emp2"]; math.Abs(got-want) > 1e-10 {
					errs[i] = fmt.Errorf("job %d: emp2 = %v, want %v", j.id, got, want)
				}
			}
		}(i, j)
	}
	wg.Wait()
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
			t.Error(err)
		}
	}
	if failed == 0 {
		t.Logf("%d jobs done, all energies correct", len(jobs))
	}
}

// TestServeSoak: 60 overlapping MP2/SCF submissions through one pool.
func TestServeSoak(t *testing.T) {
	svc, err := serve.New(serve.Config{
		Pool: sip.PoolConfig{
			Workers: 4,
			Servers: 2,
			Output:  io.Discard,
		},
		MaxConcurrent: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	registerChemPacks(svc)
	verifySoak(t, svc, runSoak(t, svc, 60))
}

// TestServeSoakChaos: the same soak under -recover -replicas 2, with a
// worker rank killed mid-stream and a spare joined afterwards.  The
// pool must keep serving through both membership changes and every job
// must still produce the reference energy.
func TestServeSoakChaos(t *testing.T) {
	svc, err := serve.New(serve.Config{
		Pool: sip.PoolConfig{
			Workers:  3,
			Servers:  2,
			Spares:   1,
			Replicas: 2,
			Recover:  true,
			Output:   io.Discard,
		},
		MaxConcurrent: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	registerChemPacks(svc)

	jobs := runSoak(t, svc, 50)

	// Kill a worker while the stream is in flight, then grow back.
	time.Sleep(20 * time.Millisecond)
	if err := svc.Pool().Kill(2, "soak chaos kill"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	joined, err := svc.Pool().Join()
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	t.Logf("killed rank 2, joined spare rank %d mid-soak", joined)

	// More submissions after the reshape must be served too.
	jobs = append(jobs, runSoak(t, svc, 10)...)
	verifySoak(t, svc, jobs)

	if n := len(svc.Pool().Workers()); n != 3 {
		t.Errorf("%d live workers after kill+join, want 3", n)
	}
}
