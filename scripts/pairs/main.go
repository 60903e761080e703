// Command pairs turns the runs of scripts/pairs.sh into the EXPERIMENTS.md
// table and a verdict per end-to-end metric.
//
//	go run ./scripts/pairs -workload W [-benchmark BENCHMARK.json] < runs.tsv
//
// Each input line is "pair<TAB>side<TAB>seed<TAB>json", side being parent
// or change and json the last line bench/run.sh printed (the seed is for
// the reader of the file).  The metrics and which way each is better come
// from BENCHMARK.json's end_to_end list.
//
// The rule of evidence: a metric is better (or worse) when the change
// wins (or loses) at least 9 pairs in 10, and the gap between the
// medians exceeds the parent's interquartile range; otherwise it is
// unresolved.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Summary is what the verdict reads from one metric's pairs.
type Summary struct {
	ParentMedian, ParentQ1, ParentQ3 float64
	ChangeMedian                     float64
	Wins, Losses, Pairs              int
	Lower                            bool // lower values are better
}

// Summarize reduces the runs of one metric, parent[i] and change[i]
// being pair i.
func Summarize(parent, change []float64, lower bool) Summary {
	s := Summary{
		ParentMedian: quantile(parent, 0.5), ParentQ1: quantile(parent, 0.25), ParentQ3: quantile(parent, 0.75),
		ChangeMedian: quantile(change, 0.5), Pairs: len(parent), Lower: lower,
	}
	for i := range parent {
		switch d := change[i] - parent[i]; {
		case d == 0:
		case (d < 0) == lower:
			s.Wins++
		default:
			s.Losses++
		}
	}
	return s
}

// Verdict is better, worse or unresolved by the rule of evidence.
func (s Summary) Verdict() string {
	gap := s.ChangeMedian - s.ParentMedian
	if s.Pairs == 0 || math.Abs(gap) <= s.ParentQ3-s.ParentQ1 {
		return "unresolved"
	}
	switch improved := (gap < 0) == s.Lower; {
	case improved && 10*s.Wins >= 9*s.Pairs:
		return "better"
	case !improved && 10*s.Losses >= 9*s.Pairs:
		return "worse"
	}
	return "unresolved"
}

// quantile is the q-quantile of xs, linearly interpolated between the
// order statistics (numpy's default).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type pair struct{ parent, change *summary }

func main() {
	workload := flag.String("workload", "", "the workload the runs are of (a label for the table)")
	benchPath := flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration naming the end-to-end metrics")
	flag.Parse()
	if err := run(*workload, *benchPath, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
}

func run(workload, benchPath string, in io.Reader, out io.Writer) error {
	doc, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bench struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(doc, &bench); err != nil {
		return fmt.Errorf("%s: %v", benchPath, err)
	}
	pairs, err := readRuns(in)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "| workload | metric | parent runs | change runs | medians parent → change | wins | verdict |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|")
	for _, m := range bench.EndToEnd {
		var parent, change []float64
		for _, p := range pairs {
			a, okA := p.parent.Metrics[m.Name]
			b, okB := p.change.Metrics[m.Name]
			if okA && okB {
				parent, change = append(parent, a.Value), append(change, b.Value)
			}
		}
		if len(parent) == 0 {
			continue
		}
		s := Summarize(parent, change, m.Better == "lower")
		iqr := 100 * (s.ParentQ3 - s.ParentQ1) / math.Abs(s.ParentMedian)
		fmt.Fprintf(out, "| `%s` | `%s` | %s | %s | %s → %s (%+.2f %%; parent IQR %.1f %%) | %d/%d | %s |\n",
			workload, m.Name, values(parent), values(change), num(s.ParentMedian), num(s.ChangeMedian),
			100*(s.ChangeMedian-s.ParentMedian)/math.Abs(s.ParentMedian), iqr, s.Wins, s.Pairs, s.Verdict())
	}
	var tally [2]struct{ failed, attempted, wrong int }
	for _, p := range pairs {
		for i, s := range []*summary{p.parent, p.change} {
			tally[i].failed += s.Failed
			tally[i].attempted += s.Attempted
			if !s.Correct {
				tally[i].wrong++
			}
		}
	}
	fmt.Fprintf(out, "| `%s` | failed / attempted | %d / %d | %d / %d | runs not correct: %d → %d | | |\n", workload,
		tally[0].failed, tally[0].attempted, tally[1].failed, tally[1].attempted, tally[0].wrong, tally[1].wrong)
	return nil
}

// readRuns reads the run lines into pairs, in pair order.  A run whose
// JSON is missing or malformed counts as an incorrect run with no metrics.
func readRuns(in io.Reader) ([]pair, error) {
	var pairs []pair
	sc := bufio.NewScanner(in)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.SplitN(sc.Text(), "\t", 4)
		if len(f) != 4 {
			return nil, fmt.Errorf("malformed run line %q", sc.Text())
		}
		n, err := strconv.Atoi(f[0])
		if err != nil || n < 1 || (f[1] != "parent" && f[1] != "change") {
			return nil, fmt.Errorf("malformed run line %q", sc.Text())
		}
		for len(pairs) < n {
			pairs = append(pairs, pair{})
		}
		s := &summary{}
		if json.Unmarshal([]byte(f[3]), s) != nil {
			s = &summary{}
		}
		p := &pairs[n-1]
		if f[1] == "parent" {
			p.parent = s
		} else {
			p.change = s
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, p := range pairs {
		if p.parent == nil || p.change == nil {
			return nil, fmt.Errorf("pair %d lacks a side", i+1)
		}
	}
	return pairs, nil
}

func values(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = num(x)
	}
	return strings.Join(s, " ")
}

// num prints x to four significant digits, and a large count whole.
func num(x float64) string {
	if math.Abs(x) >= 1e4 {
		return strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strconv.FormatFloat(x, 'g', 4, 64)
}
