package sip

import (
	"fmt"
	"strings"

	"repro/internal/bytecode"
)

// DryRunReport is the result of the SIP's dry-run analysis (paper §V-B):
// an estimate of the per-worker and per-server memory a computation
// needs, made before any real work starts so that "the user can avoid
// wasting valuable supercomputing resources on an infeasible
// computation".
type DryRunReport struct {
	Workers int `json:"workers"`
	Servers int `json:"servers"`

	// PerWorkerBytes is the estimated peak bytes a worker needs:
	// its partition of every distributed array, full copies of static
	// arrays, local arrays, temp blocks for the deepest pardo, and the
	// block cache.
	PerWorkerBytes int64 `json:"per_worker_bytes"`
	// PerServerBytes is the estimated cache memory per I/O server.
	PerServerBytes int64 `json:"per_server_bytes"`
	// DiskBytes is the total size of all served arrays.
	DiskBytes int64 `json:"disk_bytes"`

	// ArrayBytes breaks the estimate down by array.
	ArrayBytes map[string]int64 `json:"array_bytes"`

	// PardoIterations estimates the iteration count of each pardo
	// (upper bound; where clauses reduce it).
	PardoIterations []int64 `json:"pardo_iterations"`

	// Feasible reports whether PerWorkerBytes fits in the given memory
	// budget; MinWorkers is the smallest worker count that would fit
	// (paper: "this is reported to the user along with the number of
	// processors that would be sufficient").
	Feasible     bool  `json:"feasible"`
	MemoryBudget int64 `json:"memory_budget"`
	MinWorkers   int   `json:"min_workers"`
}

// DryRun inspects a program "in dry-run mode": it sizes every array from
// the resolved layout and data distribution without executing anything.
// It refuses what a run refuses at start-up (newRuntime, resolve).
// memoryBudget is the per-worker memory in bytes; 0 means unlimited.
func DryRun(prog *bytecode.Program, cfg Config, memoryBudget int64) (*DryRunReport, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	layout, err := resolve(prog, &cfg)
	if err != nil {
		return nil, err
	}
	r := &DryRunReport{
		Workers:      cfg.Workers,
		Servers:      cfg.Servers,
		ArrayBytes:   map[string]int64{},
		MemoryBudget: memoryBudget,
	}
	r.PerWorkerBytes = perWorkerBytes(prog, layout, cfg.Workers, cfg.CacheBlocks)
	for _, a := range prog.Arrays {
		id := prog.ArrayID(a.Name)
		total := totalArrayBytes(layout, id)
		r.ArrayBytes[a.Name] = total
		if a.Kind == bytecode.ArrayServed {
			r.DiskBytes += total
		}
	}
	if cfg.Servers > 0 {
		r.PerServerBytes = int64(cfg.ServerCacheBlocks) * maxBlockBytes(prog, layout)
	}
	for _, pd := range prog.Pardos {
		iters := int64(1)
		for _, id := range pd.Indices {
			lo, hi := layout.IndexRange(id)
			iters *= int64(hi - lo + 1)
		}
		r.PardoIterations = append(r.PardoIterations, iters)
	}
	r.Feasible = memoryBudget == 0 || r.PerWorkerBytes <= memoryBudget
	r.MinWorkers = cfg.Workers
	if !r.Feasible {
		// Find the smallest worker count whose partition fits.  The
		// static/local/temp/cache terms do not shrink with more
		// workers, so infeasibility can be unresolvable.
		found := false
		for w := cfg.Workers + 1; w <= 1<<20; w *= 2 {
			if perWorkerBytes(prog, layout, w, cfg.CacheBlocks) <= memoryBudget {
				// Binary search between w/2 and w.
				lo, hi := w/2, w
				for lo < hi {
					mid := (lo + hi) / 2
					if perWorkerBytes(prog, layout, mid, cfg.CacheBlocks) <= memoryBudget {
						hi = mid
					} else {
						lo = mid + 1
					}
				}
				r.MinWorkers = lo
				found = true
				break
			}
		}
		if !found {
			r.MinWorkers = -1 // infeasible at any scale
		}
	}
	return r, nil
}

// totalArrayBytes sums the exact bytes of every block of an array.
func totalArrayBytes(layout *bytecode.Layout, arr int) int64 {
	return int64(layout.Shapes[arr].NumElements()) * 8
}

// maxBlockBytes returns the largest block size over all arrays.
func maxBlockBytes(prog *bytecode.Program, layout *bytecode.Layout) int64 {
	var m int64
	for i := range prog.Arrays {
		if b := int64(layout.Shapes[i].MaxBlockElems()) * 8; b > m {
			m = b
		}
	}
	return m
}

// perWorkerBytes estimates one worker's peak memory for a given worker
// count.
func perWorkerBytes(prog *bytecode.Program, layout *bytecode.Layout, workers, cacheBlocks int) int64 {
	var total int64
	maxBlk := maxBlockBytes(prog, layout)
	for i, a := range prog.Arrays {
		switch a.Kind {
		case bytecode.ArrayDistributed:
			// A worker homes ~1/W of the blocks.
			blocks := int64(layout.Shapes[i].NumBlocks())
			per := (blocks + int64(workers) - 1) / int64(workers)
			total += per * int64(layout.Shapes[i].MaxBlockElems()) * 8
		case bytecode.ArrayStatic:
			total += totalArrayBytes(layout, i)
		case bytecode.ArrayLocal:
			// Local arrays are "fully formed in at least one
			// dimension"; budget the full array divided by workers
			// plus one row of blocks as slack.
			total += totalArrayBytes(layout, i)/int64(workers) + int64(layout.Shapes[i].MaxBlockElems())*8
		case bytecode.ArrayTemp:
			// A handful of live blocks per temp array per iteration.
			total += 2 * int64(layout.Shapes[i].MaxBlockElems()) * 8
		}
	}
	total += int64(cacheBlocks) * maxBlk
	return total
}

// String renders the report in the spirit of the SIP's user-facing
// feasibility message.
func (r *DryRunReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SIP dry run: %d workers, %d servers\n", r.Workers, r.Servers)
	fmt.Fprintf(&b, "  per-worker memory: %s\n", fmtBytes(r.PerWorkerBytes))
	if r.Servers > 0 {
		fmt.Fprintf(&b, "  per-server cache: %s, disk: %s\n", fmtBytes(r.PerServerBytes), fmtBytes(r.DiskBytes))
	}
	for name, n := range r.ArrayBytes {
		fmt.Fprintf(&b, "  array %s: %s\n", name, fmtBytes(n))
	}
	for i, n := range r.PardoIterations {
		fmt.Fprintf(&b, "  pardo %d: %d iterations\n", i, n)
	}
	if r.MemoryBudget > 0 {
		if r.Feasible {
			fmt.Fprintf(&b, "  feasible within %s per worker\n", fmtBytes(r.MemoryBudget))
		} else if r.MinWorkers > 0 {
			fmt.Fprintf(&b, "  INFEASIBLE within %s per worker; %d workers would be sufficient\n",
				fmtBytes(r.MemoryBudget), r.MinWorkers)
		} else {
			fmt.Fprintf(&b, "  INFEASIBLE at any worker count (static/local/temp data exceeds budget)\n")
		}
	}
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
