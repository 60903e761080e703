package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
)

// runAll runs every workload, each in a process of its own so that
// peak_rss_mb and the garbage collector's state are per workload.  A
// set is `seeds` runs of every workload on consecutive seeds; with aa a
// second set follows the first and the two are compared.  Repeated sets
// are about the bounds, so they run the gated workloads only.
func runAll(seed int64, seconds float64, traced, aa bool, seeds int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// A signal to this process ends the running child too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	total := summary{Correct: true, Metrics: map[string]metric{}}
	// set runs one set and returns, per "workload.metric", the value of
	// every run.
	set := func() map[string][]float64 {
		out := map[string][]float64{}
		for _, w := range workloads(false) {
			name := w.info().name
			if (aa || seeds > 1) && !w.info().gated {
				continue
			}
			for k := 0; k < seeds; k++ {
				if ctx.Err() != nil {
					total.Correct = false
					return out
				}
				sum, err := child(ctx, exe, name, seed+int64(k), seconds, traced, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
					total.Correct = false
					total.Attempted++
					total.Failed++
					continue
				}
				total.Attempted += sum.Attempted
				total.Failed += sum.Failed
				total.Correct = total.Correct && sum.Correct
				for m, x := range sum.Metrics {
					out[name+"."+m] = append(out[name+"."+m], x.Value)
					total.Metrics[name+"."+m] = x
				}
			}
		}
		return out
	}
	first := set()
	if aa {
		if traced {
			fmt.Fprintln(stderr, "bench: -aa compares end-to-end metrics; it needs -trace 0")
			return 2
		}
		second := set()
		if !compareSets(first, second, seeds, stdout) {
			total.Correct = false
		}
	} else if seeds > 1 {
		printSpreads(first, stdout)
	}
	line, _ := json.Marshal(total)
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// child runs one workload once in a child process, relays its metric
// lines, and returns the summary its last line carries.
func child(ctx context.Context, exe, name string, seed int64, seconds float64, traced bool, stdout, stderr io.Writer) (summary, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	// SIGTERM, not the default kill, so the child removes its scratch.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.Stderr = stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	var sum summary
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		if runErr != nil {
			return summary{}, runErr
		}
		return summary{}, fmt.Errorf("no summary line: %w", err)
	}
	return sum, nil
}

// endToEndKeys lists "workload.metric" for every gated pairing, in table
// order.
func endToEndKeys() (keys []string, defs []endToEnd) {
	for _, w := range workloads(false) {
		if !w.info().gated {
			continue
		}
		for _, def := range endToEndMetrics {
			keys = append(keys, w.info().name+"."+def.name)
			defs = append(defs, def)
		}
	}
	return keys, defs
}

// printSpreads reports the run-to-run spread of one set.
func printSpreads(set map[string][]float64, stdout io.Writer) {
	keys, defs := endToEndKeys()
	fmt.Fprintln(stdout, "# spread: workload.metric median (q3-q1)/median bound")
	for i, k := range keys {
		if xs := set[k]; len(xs) > 0 {
			fmt.Fprintf(stdout, "# spread %-36s %-12.6g %7.4f %5.2f\n", k, median(xs), spread(xs), defs[i].bound)
		}
	}
}

// compareSets is the A/A check: two sets of the same code must agree,
// for every end-to-end metric and workload, within the metric's bound,
// and each set's own spread must stay within it too.
func compareSets(a, b map[string][]float64, seeds int, stdout io.Writer) bool {
	keys, defs := endToEndKeys()
	ok := true
	fmt.Fprintln(stdout, "# A/A: workload.metric median_a median_b worse_by spread_a spread_b bound verdict")
	for i, k := range keys {
		def := defs[i]
		ma, mb := median(a[k]), median(b[k])
		worse := ratio(mb-ma, ma)
		if def.better == "higher" {
			worse = -worse
		}
		sa, sb := spread(a[k]), spread(b[k])
		verdict := "PASS"
		if len(a[k]) == 0 || len(b[k]) == 0 || worse > def.bound ||
			(seeds > 1 && def.name != "setup_s" && (sa > def.bound || sb > def.bound)) {
			verdict = "FAIL"
			ok = false
		}
		fmt.Fprintf(stdout, "# A/A %-36s %-12.6g %-12.6g %+7.4f %7.4f %7.4f %5.2f %s\n",
			k, ma, mb, worse, sa, sb, def.bound, verdict)
	}
	if !ok {
		fmt.Fprintln(stdout, "# A/A: a metric that FAILs is demoted to the per-layer list, not given a looser bound (see bench/README.md)")
	}
	return ok
}
