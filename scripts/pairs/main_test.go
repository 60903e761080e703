package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func floats(t *testing.T, s string) []float64 {
	t.Helper()
	var xs []float64
	for _, f := range strings.Fields(s) {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
	}
	return xs
}

// TestVerdictOnRecordedRuns: runs copied from EXPERIMENTS.md ("Lowered
// block operands") through Summarize: the second dispatch_inproc set of
// the final revision (seeds 481–490) and the map-against-table pairs.
func TestVerdictOnRecordedRuns(t *testing.T) {
	for _, tc := range []struct {
		metric, parent, change string
		lower                  bool
		want                   string
	}{
		{"solve_s", "0.3859 0.4569 0.4353 0.3692 0.4252 0.4453 0.4997 0.3439 0.395 0.4388",
			"0.4014 0.3677 0.3548 0.3499 0.3622 0.386 0.341 0.3334 0.3805 0.4231", true, "better"},
		{"solves_per_s", "2.508 2.178 2.264 2.642 2.319 2.141 2.04 2.811 2.417 2.237",
			"2.49 2.714 2.792 2.798 2.677 2.561 2.928 2.999 2.598 2.346", false, "better"},
		// 9 wins of 10, but a gap of one allocation is no larger than the
		// parent's own spread.
		{"allocs_per_solve", "748545 748544 748545 748544 748545 748544 748544 748544 748545 748544",
			"748544 748544 748542 748543 748544 748544 748543 748545 748543 748543", true, "unresolved"},
		{"alloc_mb_per_solve", "99.75 99.75 99.75 99.75 99.75 99.75 99.75 99.75 99.75 99.75",
			"99.75 99.75 99.75 99.75 99.75 99.75 99.75 99.75 99.75 99.75", true, "unresolved"},
		{"setup_s", "0.4093 0.4271 0.416 0.4557 0.4045 0.4678 0.5032 0.3423 0.3836 0.3815",
			"0.3454 0.4316 0.4582 0.3355 0.3666 0.369 0.3992 0.3915 0.4987 0.4333", true, "unresolved"},
		// The map against the first revision's LocalTable (seeds
		// 411–416): the times are unresolved, but the map's 7 more
		// allocations per solve are exact, in every pair.
		{"table/map solve_s", "0.4652 0.3377 0.3874 0.3136 0.3429 0.323",
			"0.4517 0.3503 0.3693 0.3154 0.3472 0.3247", true, "unresolved"},
		{"table/map solves_per_s", "2.165 2.897 2.487 3.173 2.809 3.011",
			"2.193 2.722 2.69 3.105 2.804 2.939", false, "unresolved"},
		{"table/map allocs_per_solve", "748537 748537 748537 748537 748536 748537",
			"748545 748544 748543 748544 748544 748543", true, "worse"},
		{"table/map alloc_mb_per_solve", "99.75 99.75 99.75 99.75 99.75 99.75",
			"99.75 99.75 99.75 99.75 99.75 99.75", true, "unresolved"},
		{"table/map setup_s", "0.5096 0.3896 0.3383 0.3353 0.3289 0.3816",
			"0.543 0.3635 0.4389 0.3019 0.3672 0.3265", true, "unresolved"},
		// The same solve_s runs with the sides swapped lose 9 of 10.
		{"solve_s swapped", "0.4014 0.3677 0.3548 0.3499 0.3622 0.386 0.341 0.3334 0.3805 0.4231",
			"0.3859 0.4569 0.4353 0.3692 0.4252 0.4453 0.4997 0.3439 0.395 0.4388", true, "worse"},
	} {
		s := Summarize(floats(t, tc.parent), floats(t, tc.change), tc.lower)
		if got := s.Verdict(); got != tc.want {
			t.Errorf("%s: %s (%+v), want %s", tc.metric, got, s, tc.want)
		}
	}
	// EXPERIMENTS.md prints the parent IQR of the solve_s set as 12.9 %.
	s := Summarize(floats(t, "0.3859 0.4569 0.4353 0.3692 0.4252 0.4453 0.4997 0.3439 0.395 0.4388"), make([]float64, 10), true)
	if iqr := fmt.Sprintf("%.1f", 100*(s.ParentQ3-s.ParentQ1)/s.ParentMedian); iqr != "12.9" {
		t.Errorf("parent IQR %s %%, EXPERIMENTS.md reads 12.9 %%", iqr)
	}
}

// TestVerdictOnCoreSplitRows: every metric row of the no-regression
// table in EXPERIMENTS.md "The core alone" (parent median and quartiles,
// change median, wins) reads unresolved.
func TestVerdictOnCoreSplitRows(t *testing.T) {
	rows := []struct {
		row                  string
		med, q1, q3, changed float64
		wins, pairs          int
		lower                bool
	}{
		{"contract_inproc solve_s", 0.2032, 0.1974, 0.262, 0.2145, 5, 10, true},
		{"contract_inproc solves_per_s", 4.893, 3.745, 5.091, 4.602, 4, 10, false},
		{"contract_inproc allocs_per_solve", 1453, 1453, 1454, 1453, 5, 10, true},
		{"contract_inproc alloc_mb_per_solve", 111.853, 111.839, 111.902, 111.879, 4, 10, true},
		{"contract_inproc setup_s", 0.2182, 0.204, 0.2547, 0.2451, 5, 10, true},
		{"dispatch_inproc solve_s", 0.476, 0.469, 0.495, 0.4694, 4, 5, true},
		{"dispatch_inproc solves_per_s", 2.094, 2.019, 2.096, 2.095, 4, 5, false},
		{"dispatch_inproc allocs_per_solve", 748544, 748543, 748544, 748543, 4, 5, true},
		{"dispatch_inproc alloc_mb_per_solve", 99.752, 99.752, 99.752, 99.752, 4, 5, true},
		{"dispatch_inproc setup_s", 0.5078, 0.478, 0.5081, 0.5163, 1, 5, true},
		{"comm_tcp solve_s", 0.5711, 0.5401, 0.6089, 0.5813, 4, 10, true},
		{"comm_tcp solves_per_s", 1.726, 1.584, 1.845, 1.698, 4, 10, false},
		{"comm_tcp allocs_per_solve", 276047, 275682, 276280, 275797, 5, 10, true},
		{"comm_tcp alloc_mb_per_solve", 194.181, 194.144, 194.294, 194.004, 6, 10, true},
		{"comm_tcp setup_s", 0.5956, 0.5672, 0.6679, 0.6236, 4, 10, true},
		{"serve_jobs solve_s", 0.0003266, 0.0003198, 0.0003422, 0.0003361, 2, 5, true},
		{"serve_jobs solves_per_s", 4326, 4102, 4348, 4177, 2, 5, false},
		{"serve_jobs allocs_per_solve", 310.407, 310.285, 310.725, 310.594, 3, 5, true},
		{"serve_jobs alloc_mb_per_solve", 0.05974, 0.05973, 0.05985, 0.05979, 3, 5, true},
		{"serve_jobs setup_s", 0.001516, 0.001397, 0.001764, 0.001591, 2, 5, true},
	}
	for _, r := range rows {
		// The table gives no ties, so every pair not won was lost.
		s := Summary{ParentMedian: r.med, ParentQ1: r.q1, ParentQ3: r.q3, ChangeMedian: r.changed,
			Wins: r.wins, Losses: r.pairs - r.wins, Pairs: r.pairs, Lower: r.lower}
		if got := s.Verdict(); got != "unresolved" {
			t.Errorf("%s: %s, want unresolved", r.row, got)
		}
	}
}

// TestRunPrintsTable drives the command on two pairs.
func TestRunPrintsTable(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "BENCHMARK.json")
	doc := `{"end_to_end": [{"name": "solve_s", "better": "lower"}, {"name": "allocs_per_solve", "better": "lower"}]}`
	if err := os.WriteFile(bench, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	run1 := `{"correct":true,"attempted":4,"failed":0,"metrics":{"solve_s":{"value":0.5},"allocs_per_solve":{"value":748540}}}`
	run2 := `{"correct":true,"attempted":5,"failed":0,"metrics":{"solve_s":{"value":0.4},"allocs_per_solve":{"value":2017}}}`
	in := strings.Join([]string{
		"1\tparent\t7\t" + run1, "1\tchange\t7\t" + run2,
		"2\tchange\t8\t" + run2, "2\tparent\t8\t{}",
	}, "\n")
	var out bytes.Buffer
	if err := run("dispatch_inproc", bench, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"| `dispatch_inproc` | `solve_s` | 0.5 | 0.4 | 0.5 → 0.4 (-20.00 %; parent IQR 0.0 %) | 1/1 | better |",
		"| `dispatch_inproc` | `allocs_per_solve` | 748540 | 2017 |",
		"| `dispatch_inproc` | failed / attempted | 0 / 4 | 0 / 10 | runs not correct: 1 → 0 | | |",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
