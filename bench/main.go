// Command bench is the repository's benchmark: six named SIP workloads
// driven through the public entry points (core.Compile/Run, sip.RunRank
// over transport.NewTCP, serve.Service.Submit/Wait), every result
// verified against a serial reference.  BENCHMARK.json at the repository
// root names the command, the workloads and the metrics; README.md in
// this directory explains them.
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// runs one workload and prints one "workload metric value unit" line
// per metric, then a one-line JSON summary.  --trace 0 is the untraced
// pass and gives the end-to-end metrics; --trace 1 is the traced pass
// and gives the per-layer metrics, a Chrome trace and a time budget
// under bench/out/.  Without --workload every workload runs, each in a
// process of its own.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// A run sets the workload up at least minSetups times, and keeps on
	// while the set-ups so far took less than setupBudget (at most
	// maxSetups times), so that a set-up of milliseconds is the median of
	// many.  setup_s is the median.
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
	// minUnits is the fewest solves a timed loop makes whatever the clock
	// says.
	minUnits = 3
	// maxFailures ends a timed loop early: a workload that keeps failing
	// is reported, not ground through.
	maxFailures = 5
	// guard is the wall-clock limit of one workload process.  Past it the
	// process reports the hang and exits non-zero instead of blocking the
	// caller (a lost message with RecvTimeout=0 would block for ever).
	guard = 150 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs, the sampled check elements and the job order")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	aa := fs.Bool("aa", false, "with -workload all: run the untraced pass twice and compare the sets against the bounds")
	seeds := fs.Int("seeds", 1, "with -workload all: runs per workload in a set, on consecutive seeds")
	printJSON := fs.Bool("json", false, "print the BENCHMARK.json document and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *seeds < 1 {
		fmt.Fprintln(stderr, "usage: bench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-aa] [-seeds N] [-json]")
		return 2
	}
	if *printJSON {
		doc, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		stdout.Write(doc)
		return 0
	}
	outDir, err := outputDir()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace == 1, *aa, *seeds, stdout, stderr)
	}
	for _, w := range workloads(false) {
		if w.info().name == *name {
			sum, err := runWorkload(w, *seed, *seconds, *trace == 1, outDir, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
				return 1
			}
			line, _ := json.Marshal(sum)
			fmt.Fprintf(stdout, "%s\n", line)
			if !sum.Correct {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "bench: no workload %q\n", *name)
	return 2
}

// outputDir finds bench/out under the repository root, which is the
// working directory or its parent (when run from bench/ itself).
func outputDir() (string, error) {
	for _, root := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err == nil {
			abs, err := filepath.Abs(filepath.Join(root, "bench", "out"))
			if err != nil {
				return "", err
			}
			return abs, os.MkdirAll(abs, 0o755)
		}
	}
	return "", errors.New("run from the repository root (where BENCHMARK.json is) or from bench/")
}

// summary is the last line a workload process prints.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one pass of one workload in this process.
func runWorkload(w workload, seed int64, seconds float64, traced bool, outDir string, stdout, stderr io.Writer) (summary, error) {
	meta := w.info()
	// Everything the run writes — served blocks, journal, the runtime's
	// own temporary scratch — goes under one directory inside the
	// checkout, removed on every way out.
	tmpRoot := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return summary{}, err
	}
	scratch, err := os.MkdirTemp(tmpRoot, meta.name+"-")
	if err != nil {
		return summary{}, err
	}
	defer os.RemoveAll(scratch)
	os.Setenv("TMPDIR", scratch)
	// The scratch directory also goes when the run is cut short: by the
	// wall-clock guard or by a signal.
	abandon := func(why string) {
		fmt.Fprintf(stderr, "bench: %s: %s, giving up\n", meta.name, why)
		os.RemoveAll(scratch)
		os.Exit(3)
	}
	watchdog := time.AfterFunc(guard, func() { abandon(fmt.Sprintf("still running after %v", guard)) })
	defer watchdog.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if sig, ok := <-sigs; ok {
			abandon(sig.String())
		}
	}()

	fmt.Fprintf(stdout, "# %s seed=%d: %s\n", meta.name, seed, meta.size)
	fmt.Fprintf(stdout, "# host: %s\n", hostLine(scratch))
	// The serial reference is computed here, outside setup_s.
	if err := w.prepare(seed); err != nil {
		return summary{}, err
	}
	d := time.Duration(seconds * float64(time.Second))
	var sum summary
	if traced {
		sum, err = tracedPass(w, d, outDir, scratch, stdout, stderr)
	} else {
		sum, err = untracedPass(w, d, stderr)
	}
	if err != nil {
		return summary{}, err
	}
	names := make([]string, 0, len(sum.Metrics))
	for k := range sum.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", meta.name, k, sum.Metrics[k].Value, sum.Metrics[k].Unit)
	}
	return sum, nil
}

// measured is what one timed loop observed.
type measured struct {
	lat       []float64 // seconds of every verified unit
	failed    int
	wall      time.Duration
	mallocs   uint64
	allocated uint64
}

// measure runs the closed loop: each client starts its next unit when
// its previous one returned, until d has passed (and at least min units
// ran).  Every unit is verified; a failed one yields no latency sample.
func measure(inst instance, clients int, d time.Duration, min int, stderr io.Writer) measured {
	var m measured
	var mu sync.Mutex
	var next atomic.Int64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= min && time.Since(start) >= d {
					return
				}
				t0 := time.Now()
				err := inst.unit(i)
				lat := time.Since(t0).Seconds()
				mu.Lock()
				if err != nil {
					m.failed++
					fmt.Fprintf(stderr, "bench: unit %d failed: %v\n", i, err)
				} else {
					m.lat = append(m.lat, lat)
				}
				stop := m.failed >= maxFailures
				mu.Unlock()
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	m.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	m.mallocs, m.allocated = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return m
}

// untracedPass measures the end-to-end metrics: tracing off, set-up
// repeated, then the timed loop on the last instance.
func untracedPass(w workload, d time.Duration, stderr io.Writer) (summary, error) {
	meta := w.info()
	var setups []float64
	var inst instance
	for spent := time.Duration(0); len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups); {
		if inst != nil {
			if err := inst.Close(); err != nil {
				return summary{}, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.open(options{}); err != nil {
			return summary{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += time.Since(t0)
	}
	m := measure(inst, meta.clients, d, minUnits, stderr)
	if err := inst.Close(); err != nil {
		return summary{}, err
	}
	sum := summary{Attempted: len(m.lat) + m.failed, Failed: m.failed, Metrics: map[string]metric{}}
	sum.Correct = m.failed == 0 && len(m.lat) > 0
	n := float64(len(m.lat))
	values := map[string]float64{
		"setup_s":            median(setups),
		"solve_s":            median(m.lat),
		"solves_per_s":       ratio(n, m.wall.Seconds()),
		"allocs_per_solve":   ratio(float64(m.mallocs), n),
		"alloc_mb_per_solve": ratio(float64(m.allocated)/1e6, n),
	}
	for _, def := range endToEndMetrics {
		sum.Metrics[def.name] = metric{values[def.name], def.unit}
	}
	fmt.Fprintf(stderr, "# %s: %d solves in %.2fs, solve_s min/q1/median/q3/max = %.4g/%.4g/%.4g/%.4g/%.4g, %d set-ups %.3v\n",
		meta.name, len(m.lat), m.wall.Seconds(),
		quantile(m.lat, 0), quantile(m.lat, 0.25), median(m.lat), quantile(m.lat, 0.75), quantile(m.lat, 1), len(setups), setups)
	return sum, nil
}

// tracedPass measures the per-layer metrics: an untraced baseline and
// the side runs (so ratios have their base in the same process), the
// traced units, then the rungs.  It writes the Chrome trace and the time
// budget under outDir.
func tracedPass(w workload, d time.Duration, outDir, scratch string, stdout, stderr io.Writer) (summary, error) {
	meta := w.info()
	rec := &recorder{workload: meta.name}
	sum := summary{Correct: true, Metrics: map[string]metric{}}

	values := map[string]float64{}

	// loop opens the workload under o and runs its timed loop for a
	// share of the run.
	loop := func(o options, share float64) (measured, *layerAcc, error) {
		label := "plain"
		if o.variant != "" {
			label = o.variant
		}
		if o.rec != nil {
			label = "traced"
		}
		endOpen := rec.begin("set-up "+label, "")
		inst, err := w.open(o)
		endOpen()
		if err != nil {
			return measured{}, nil, fmt.Errorf("set-up %s: %w", label, err)
		}
		endLoop := rec.begin("units "+label, "")
		m := measure(inst, meta.clients, time.Duration(share*float64(d)), 2, stderr)
		endLoop()
		acc := inst.layers()
		sum.Attempted += len(m.lat) + m.failed
		sum.Failed += m.failed
		if m.failed > 0 || len(m.lat) == 0 {
			sum.Correct = false
		}
		return m, acc, inst.Close()
	}

	plain, _, err := loop(options{}, 0.15)
	if err != nil {
		return summary{}, err
	}
	base := median(plain.lat)
	for _, sd := range meta.sides {
		m, acc, err := loop(options{variant: sd.variant}, 0.15)
		if err != nil {
			return summary{}, err
		}
		x := median(m.lat)
		if sd.ratio {
			fmt.Fprintf(stdout, "# %s = %.4g s under %s / %.4g s plain\n", sd.metric, x, sd.variant, base)
			x = ratio(x, base)
		}
		values[sd.metric] = x
		maps.Copy(values, acc.values())
	}
	traced, acc, err := loop(options{rec: rec}, 0.4)
	if err != nil {
		return summary{}, err
	}
	maps.Copy(values, acc.values())
	values["obs.trace_overhead_x"] = ratio(median(traced.lat), base)
	fmt.Fprintf(stdout, "# obs.trace_overhead_x = %.4g s traced / %.4g s untraced\n", median(traced.lat), base)

	// The rungs come last: the copy rung's arrays would otherwise be the
	// process's peak resident set.
	values["go.peak_rss_mb"] = peakRSSMB()
	endRungs := rec.begin("rungs", "")
	rungValues, err := rungs(rec, scratch)
	endRungs()
	if err != nil {
		return summary{}, fmt.Errorf("rungs: %w", err)
	}
	maps.Copy(values, rungValues)

	for _, def := range perLayerMetrics {
		sum.Metrics[def.name] = metric{values[def.name], def.unit}
	}
	budget := budgetTable(meta.name, values)
	for _, line := range strings.Split(strings.TrimRight(budget, "\n"), "\n") {
		fmt.Fprintf(stdout, "# %s\n", line)
	}
	if err := os.WriteFile(filepath.Join(outDir, meta.name+".budget.txt"), []byte(budget), 0o644); err != nil {
		return summary{}, err
	}
	if err := rec.writeChrome(filepath.Join(outDir, meta.name+".trace.json"), acc.last); err != nil {
		return summary{}, err
	}
	return sum, nil
}

// peakRSSMB reads this process's VmHWM.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1e3
		}
	}
	return 0
}

// hostLine records what the numbers were measured on.
func hostLine(scratch string) string {
	cpu := "unknown cpu"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s, nproc=%d, GOMAXPROCS=%d, %s, scratch fs %s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(scratch))
}

// fsType names the filesystem a directory is on, from /proc/mounts.
func fsType(dir string) string {
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if (dir == f[1] || strings.HasPrefix(dir, strings.TrimSuffix(f[1], "/")+"/")) && len(f[1]) > len(best) {
			best, kind = f[1], f[2]
		}
	}
	return kind
}
