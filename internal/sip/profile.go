package sip

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bytecode"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// OpStat aggregates executions of one opcode.
type OpStat struct {
	Count int64
	Time  time.Duration
}

// PardoStat aggregates one pardo loop across its executions and workers.
// Wait is the time spent blocked on block arrivals inside the pardo —
// the paper's primary tuning signal ("Small wait times indicate
// effective overlap of computation and communication", §VI-B).
type PardoStat struct {
	Elapsed    time.Duration // max over workers (wall time)
	Wait       time.Duration // summed over workers
	Iterations int64
}

// ProcStat aggregates the executions of one SIAL procedure (paper
// §VI-B: "timing data collected includes execution time for pardo
// loops, procedures, and individual super instructions").
type ProcStat struct {
	Count int64
	Time  time.Duration
}

// LineStat aggregates the executions attributed to one SIAL source
// line — the per-line hot-spot table.
type LineStat struct {
	Count int64
	Time  time.Duration
}

// ServerStat is one I/O server's cache and disk activity.
type ServerStat struct {
	Rank                   int
	CacheHits, CacheMisses int64
	DiskReads, DiskWrites  int64
}

// Profile is the per-run performance report the SIP collects without
// separate profiling tools (paper §VI-B): because basic operations are
// relatively time consuming, detailed metrics cost nothing noticeable.
// Every instruction is counted; only super instructions are timed, each
// from its own dispatch to its end, per pc on a sample: the first run,
// every 32nd, and every one while its timed runs average 4 µs or more (a
// seg-14 contraction is timed exactly, a seg-2 copy 1 run in 32).  Ops
// and Lines scale each pc's time by runs ÷ timed runs.  With a tracer
// attached, every super instruction is timed.
type Profile struct {
	Ops    map[bytecode.Op]*OpStat
	Pardos []PardoStat
	Procs  []ProcStat
	// Lines attributes instruction executions to SIAL source lines.
	Lines map[int]*LineStat

	TotalWait  time.Duration
	Flops      int64
	fetches    int64
	prefetches int64
	// pcs is a worker's instruction record by pc, one slice index per
	// instruction instead of two map updates; mergeProfiles folds it
	// into Ops and Lines.
	pcs []pcStat

	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64

	// The workers' gets from the block allocator (block.Get, paper
	// §V-B): blocks newly allocated, and blocks given back and reused.
	PoolAllocs int64
	PoolReuses int64

	// Servers reports per-I/O-server cache and disk activity.
	Servers []ServerStat

	// Metrics is the run's metrics snapshot when Config.Metrics was
	// set; nil otherwise.
	Metrics *obs.Snapshot
}

// pcStat is one instruction's record: executions, timed ones, their time.
type pcStat struct {
	count, timed int64
	time         time.Duration
}

// The sampling rule (Profile): time every sampleEvery-th execution of a
// pc, and every one while its timed runs average slowOp or more.
const sampleEvery, slowOp = 32, 4 * time.Microsecond

// due reports whether the next execution of the instruction is timed.
func (s *pcStat) due() bool {
	return s.count%sampleEvery == 0 || s.time >= slowOp*time.Duration(s.timed)
}

func newProfile(prog *bytecode.Program) *Profile {
	return &Profile{
		Pardos: make([]PardoStat, len(prog.Pardos)),
		Procs:  make([]ProcStat, len(prog.Procs)),
		pcs:    make([]pcStat, len(prog.Code)),
	}
}

func (p *Profile) addWait(pardo int, d time.Duration) {
	p.TotalWait += d
	if pardo >= 0 && pardo < len(p.Pardos) {
		p.Pardos[pardo].Wait += d
	}
}

func (p *Profile) pardoDone(pardo int, elapsed time.Duration, iters int64) {
	if pardo < 0 || pardo >= len(p.Pardos) {
		return
	}
	st := &p.Pardos[pardo]
	st.Elapsed += elapsed
	st.Iterations += iters
}

func (p *Profile) procDone(proc int, d time.Duration) {
	if proc < 0 || proc >= len(p.Procs) {
		return
	}
	p.Procs[proc].Count++
	p.Procs[proc].Time += d
}

// Fetches returns the number of remote block fetches issued (including
// prefetches).
func (p *Profile) Fetches() int64 { return p.fetches }

// Prefetches returns the number of look-ahead fetches issued.
func (p *Profile) Prefetches() int64 { return p.prefetches }

// mergeProfiles combines per-worker profiles and per-server statistics
// into the run-level report.  Op counts/times, waits, and iteration
// counts sum across workers; pardo elapsed takes the per-worker maximum
// (wall time of the slowest worker, the paper's §VI-B signal).
func mergeProfiles(workers []*worker, servers []*ioServer) *Profile {
	out := &Profile{Ops: map[bytecode.Op]*OpStat{}, Lines: map[int]*LineStat{}}
	for _, s := range servers {
		out.Servers = append(out.Servers, ServerStat{
			Rank: s.rank, CacheHits: s.hits, CacheMisses: s.misses,
			DiskReads: s.diskReads, DiskWrites: s.diskWrites,
		})
	}
	if len(workers) == 0 {
		return out
	}
	out.Pardos = make([]PardoStat, len(workers[0].prof.Pardos))
	out.Procs = make([]ProcStat, len(workers[0].prof.Procs))
	for _, w := range workers {
		p := w.prof
		for pc, st := range p.pcs {
			if st.count == 0 {
				continue
			}
			in := &w.rt.prog.Code[pc]
			d := st.time
			if st.timed > 0 && st.timed < st.count {
				d = time.Duration(float64(st.time) * float64(st.count) / float64(st.timed))
			}
			op := out.Ops[in.Op]
			if op == nil {
				op = &OpStat{}
				out.Ops[in.Op] = op
			}
			op.Count += st.count
			op.Time += d
			ls := out.Lines[in.Line]
			if ls == nil {
				ls = &LineStat{}
				out.Lines[in.Line] = ls
			}
			ls.Count += st.count
			ls.Time += d
		}
		for i, ps := range p.Pardos {
			if ps.Elapsed > out.Pardos[i].Elapsed {
				out.Pardos[i].Elapsed = ps.Elapsed
			}
			out.Pardos[i].Wait += ps.Wait
			out.Pardos[i].Iterations += ps.Iterations
		}
		for i, ps := range p.Procs {
			out.Procs[i].Count += ps.Count
			out.Procs[i].Time += ps.Time
		}
		out.TotalWait += p.TotalWait
		out.Flops += p.Flops
		out.fetches += p.fetches
		out.prefetches += p.prefetches
		out.CacheHits += w.cache.hits
		out.CacheMisses += w.cache.misses
		out.CacheEvictions += w.cache.evictions
		out.PoolAllocs += w.pool.Fresh
		out.PoolReuses += w.pool.Reused
	}
	return out
}

// serverTotals sums the I/O servers' cache and disk activity.
func (p *Profile) serverTotals() (tot ServerStat) {
	for _, s := range p.Servers {
		tot.CacheHits += s.CacheHits
		tot.CacheMisses += s.CacheMisses
		tot.DiskReads += s.DiskReads
		tot.DiskWrites += s.DiskWrites
	}
	return tot
}

// String renders the profile as the per-run report SIAL programmers tune
// from.  Its header names the GEMM micro-kernel of the process that
// renders it, since a contraction's time depends on it.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SIP profile (kernel %s)\n", linalg.Kernel())
	type row struct {
		op bytecode.Op
		st *OpStat
	}
	rows := make([]row, 0, len(p.Ops))
	for op, st := range p.Ops {
		rows = append(rows, row{op, st})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].st.Time > rows[j].st.Time })
	fmt.Fprintf(&b, "  %-20s %10s %14s\n", "super instruction", "count", "time")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-20s %10d %14s\n", r.op, r.st.Count, r.st.Time)
	}
	for i, ps := range p.Pardos {
		fmt.Fprintf(&b, "  pardo %d: elapsed %s, wait %s, %d iterations\n",
			i, ps.Elapsed, ps.Wait, ps.Iterations)
	}
	for i, ps := range p.Procs {
		if ps.Count > 0 {
			fmt.Fprintf(&b, "  proc %d: %d calls, %s\n", i, ps.Count, ps.Time)
		}
	}
	if len(p.Lines) > 0 {
		type lrow struct {
			line int
			st   *LineStat
		}
		lrows := make([]lrow, 0, len(p.Lines))
		for line, st := range p.Lines {
			lrows = append(lrows, lrow{line, st})
		}
		sort.Slice(lrows, func(i, j int) bool { return lrows[i].st.Time > lrows[j].st.Time })
		if len(lrows) > hotLineRows {
			lrows = lrows[:hotLineRows]
		}
		b.WriteString("  hot lines:\n")
		fmt.Fprintf(&b, "    %-6s %10s %14s\n", "line", "count", "time")
		for _, r := range lrows {
			fmt.Fprintf(&b, "    %-6d %10d %14s\n", r.line, r.st.Count, r.st.Time)
		}
	}
	fmt.Fprintf(&b, "  total wait %s, %d flops, %d fetches (%d prefetched), cache %d/%d hits, %d evictions\n",
		p.TotalWait, p.Flops, p.fetches, p.prefetches,
		p.CacheHits, p.CacheHits+p.CacheMisses, p.CacheEvictions)
	fmt.Fprintf(&b, "  block pool: %d allocated, %d reused\n", p.PoolAllocs, p.PoolReuses)
	if len(p.Servers) > 0 {
		for _, s := range p.Servers {
			fmt.Fprintf(&b, "  server r%d: cache %d/%d hits, %d disk reads, %d disk writes\n",
				s.Rank, s.CacheHits, s.CacheHits+s.CacheMisses, s.DiskReads, s.DiskWrites)
		}
		tot := p.serverTotals()
		fmt.Fprintf(&b, "  servers total: cache %d/%d hits, %d disk reads, %d disk writes\n",
			tot.CacheHits, tot.CacheHits+tot.CacheMisses, tot.DiskReads, tot.DiskWrites)
	}
	if p.Metrics != nil {
		b.WriteString(indent(p.Metrics.String(), "  "))
	}
	return b.String()
}

// hotLineRows bounds the per-line hot-spot table in Profile.String.
const hotLineRows = 10

// indent prefixes every non-empty line of s.
func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = prefix + l
		}
	}
	return strings.Join(lines, "\n") + "\n"
}
