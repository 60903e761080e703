package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/obs"
)

// traceCap is the per-track ring size of the runtime tracer in the
// traced pass: enough to keep every master, service and server span of
// one unit at benchmark size (the worker interpreter tracks overflow;
// the overflow is reported as obs.trace_dropped).
const traceCap = 1 << 16

// layerAcc folds what the traced units of one instance recorded — the
// runtime's Profile, its metrics registry, its tracer's spans and the
// benchmark's own spans — into the per-layer numbers.  Everything is
// summed over units and divided by the unit count at the end, so the
// values are per solve (or per job).
type layerAcc struct {
	// traced says the units ran with Config.Tracer and Config.Metrics
	// set; rec is then the benchmark's own span recorder, else nil.
	traced  bool
	rec     *recorder
	workers int
	ranks   int // workers + I/O servers: the budget's denominator

	mu sync.Mutex // guards totals: clients finish units concurrently
	totals
}

// totals is everything a layerAcc has summed since the last reset.
type totals struct {
	units int
	busy  time.Duration // sum of unit wall times

	ops        map[bytecode.Op]time.Duration
	opCount    map[bytecode.Op]int64
	wait       time.Duration
	flops      int64
	fetches    int64
	prefetches int64
	hits       int64
	misses     int64
	evictions  int64
	poolAllocs int64
	poolReuses int64

	srvHits, srvMisses    int64
	diskReads, diskWrites int64

	snap *obs.Snapshot // registry snapshots of every unit, merged

	// Span time and span count by kind, scaled per track for what the
	// ring dropped: chunk, disk_read, disk_write, server_cache.
	spanTime map[string]float64 // seconds
	spanN    map[string]float64
	dropped  int
	last     *obs.Tracer // the newest unit's tracer, exported as the trace

	mem0 runtime.MemStats

	// sums are numbers a callback adds up while units run (sip.ckpt.*,
	// serve.retries); like everything else they are divided by the unit
	// count.
	sums map[string]float64
	// direct are numbers reported as they are: medians an instance took
	// itself (serve.*), side-run and rung results.
	direct map[string]float64
}

func newLayerAcc(rec *recorder, workers, ranks int) *layerAcc {
	a := &layerAcc{traced: rec != nil, rec: rec, workers: workers, ranks: ranks}
	a.reset()
	return a
}

// reset forgets what the warm-up recorded.
func (a *layerAcc) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.totals = totals{
		ops: map[bytecode.Op]time.Duration{}, opCount: map[bytecode.Op]int64{},
		snap: obs.NewRegistry().Snapshot(), spanTime: map[string]float64{}, spanN: map[string]float64{},
		sums: map[string]float64{}, direct: map[string]float64{},
	}
	runtime.ReadMemStats(&a.mem0)
}

// addUnit counts one finished unit; clients call it concurrently.
func (a *layerAcc) addUnit(d time.Duration) {
	a.mu.Lock()
	a.units++
	a.busy += d
	a.mu.Unlock()
}

func (a *layerAcc) add(name string, x float64) {
	a.mu.Lock()
	a.sums[name] += x
	a.mu.Unlock()
}

// addProfile folds one rank's (or one merged run's) Profile.
func (a *layerAcc) addProfile(p *core.Profile) {
	if p == nil {
		return
	}
	for op, st := range p.Ops {
		a.ops[op] += st.Time
		a.opCount[op] += st.Count
	}
	a.wait += p.TotalWait
	a.flops += p.Flops
	a.fetches += p.Fetches()
	a.prefetches += p.Prefetches()
	a.hits += p.CacheHits
	a.misses += p.CacheMisses
	a.evictions += p.CacheEvictions
	a.poolAllocs += p.PoolAllocs
	a.poolReuses += p.PoolReuses
	for _, s := range p.Servers {
		a.srvHits += s.CacheHits
		a.srvMisses += s.CacheMisses
		a.diskReads += s.DiskReads
		a.diskWrites += s.DiskWrites
	}
}

// addTracer folds one unit's runtime spans.  A track that overflowed
// its ring keeps the newest events only; its sums are scaled by
// recorded÷kept so they still estimate the whole unit.
func (a *layerAcc) addTracer(t *obs.Tracer) {
	if t == nil {
		return
	}
	a.last = t
	for _, seg := range t.Segments(false) {
		if len(seg.Events) == 0 {
			continue
		}
		a.dropped += seg.Dropped
		scale := float64(len(seg.Events)+seg.Dropped) / float64(len(seg.Events))
		for _, ev := range seg.Events {
			if ev.Dur < 0 {
				continue
			}
			kind := ""
			switch ev.Cat {
			case obs.CatChunk:
				kind = "chunk"
			case obs.CatServerCache:
				kind = "server_cache"
			case obs.CatDisk:
				kind = ev.Name // disk_read, disk_write
			default:
				continue
			}
			a.spanTime[kind] += scale * float64(ev.Dur) / 1e6
			a.spanN[kind] += scale
		}
	}
}

// opGroups maps the per-layer sip.op.* names to opcodes; every opcode
// not listed lands in sip.op.other_s.  compute marks the groups the time
// budget counts as compute; the rest are message issue, synchronisation
// and scheduling.
var opGroups = []struct {
	name    string
	compute bool
	ops     []bytecode.Op
}{
	{"contract", true, []bytecode.Op{bytecode.OpContract}},
	{"compute_integrals", true, []bytecode.Op{bytecode.OpComputeIntegrals}},
	{"block_copy", true, []bytecode.Op{bytecode.OpBlockCopy}},
	{"block_scale", true, []bytecode.Op{bytecode.OpBlockScale}},
	{"execute", true, []bytecode.Op{bytecode.OpExecute}},
	{"dot", true, []bytecode.Op{bytecode.OpDot}},
	{"get", false, []bytecode.Op{bytecode.OpGet}},
	{"put", false, []bytecode.Op{bytecode.OpPut}},
	{"request", false, []bytecode.Op{bytecode.OpRequest}},
	{"prepare", false, []bytecode.Op{bytecode.OpPrepare}},
	{"barrier", false, []bytecode.Op{bytecode.OpBarrier}},
	{"collective", false, []bytecode.Op{bytecode.OpCollective}},
	{"pardo", false, []bytecode.Op{bytecode.OpPardoStart, bytecode.OpPardoEnd}},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// values turns the sums into per-layer metrics, per solve.
func (a *layerAcc) values() map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	v := map[string]float64{}
	for k, x := range a.direct {
		v[k] = x
	}
	n := float64(a.units)
	if n == 0 {
		return v
	}
	per := func(x float64) float64 { return x / n }
	for k, x := range a.sums {
		v[k] = per(x)
	}
	if !a.traced {
		return v
	}

	// sip.op.*: time busy per opcode group, summed over workers.
	grouped := map[bytecode.Op]bool{}
	var allTime time.Duration
	var allCount int64
	compute := 0.0
	group := map[string]float64{}
	for _, g := range opGroups {
		var d time.Duration
		for _, op := range g.ops {
			d += a.ops[op]
			grouped[op] = true
		}
		group[g.name] = d.Seconds()
		v["sip.op."+g.name+"_s"] = per(d.Seconds())
		if g.compute {
			compute += d.Seconds()
		}
	}
	var other time.Duration
	for op, d := range a.ops {
		allTime += d
		allCount += a.opCount[op]
		if !grouped[op] {
			other += d
		}
	}
	compute += other.Seconds()
	v["sip.op.other_s"] = per(other.Seconds())
	v["sip.instr_count"] = per(float64(allCount))
	v["sip.instr_ns_mean"] = ratio(float64(allTime.Nanoseconds()), float64(allCount))
	v["sip.gflops"] = ratio(float64(a.flops), a.busy.Seconds()) / 1e9

	// The paper's %wait: block wait over worker time.
	v["sip.wait_pct"] = 100 * ratio(a.wait.Seconds(), float64(a.workers)*a.busy.Seconds())
	if h, ok := a.snap.Hists["sip.worker.wait_ns"]; ok {
		v["sip.worker.wait_p50_ns"] = float64(h.P50)
		v["sip.worker.wait_p99_ns"] = float64(h.P99)
	}
	v["sip.worker.cache_hit_ratio"] = ratio(float64(a.hits), float64(a.hits+a.misses))
	v["sip.worker.fetches"] = per(float64(a.fetches))
	v["sip.worker.prefetches"] = per(float64(a.prefetches))
	v["sip.worker.cache_evictions"] = per(float64(a.evictions))
	v["sip.worker.pool_reuse_ratio"] = ratio(float64(a.poolReuses), float64(a.poolAllocs+a.poolReuses))

	c := a.snap.Counters
	v["sip.master.chunks"] = per(float64(c["sip.master.chunks"]))
	v["sip.master.iters"] = per(float64(c["sip.master.iters"]))
	v["sip.master.chunk_wait_s"] = per(a.spanTime["chunk"])

	disk := a.spanTime["disk_read"] + a.spanTime["disk_write"]
	v["sip.server.cache_hit_ratio"] = ratio(float64(a.srvHits), float64(a.srvHits+a.srvMisses))
	// Pool jobs' Profiles carry no server statistics (the servers are
	// shared); there the disk span counts stand in.
	v["sip.server.disk_reads"] = per(max(float64(a.diskReads), a.spanN["disk_read"]))
	v["sip.server.disk_writes"] = per(max(float64(a.diskWrites), a.spanN["disk_write"]))
	v["sip.server.disk_read_us_mean"] = 1e6 * ratio(a.spanTime["disk_read"], a.spanN["disk_read"])
	v["sip.server.disk_write_us_mean"] = 1e6 * ratio(a.spanTime["disk_write"], a.spanN["disk_write"])
	v["sip.server.disk_s"] = per(disk)
	// Self time of the server's cache layer: its spans minus the disk
	// spans they enclose.
	v["sip.server.cache_s"] = per(max(a.spanTime["server_cache"]-disk, 0))

	var msgs, bytes, frames, netBytes int64
	for name, x := range c {
		switch {
		case strings.HasPrefix(name, "mpi.msgs."):
			msgs += x
		case strings.HasPrefix(name, "mpi.bytes."):
			bytes += x
		case strings.HasPrefix(name, "net.frames_out."):
			frames += x
		case strings.HasPrefix(name, "net.bytes_out."):
			netBytes += x
		}
	}
	v["mpi.msgs_total"] = per(float64(msgs))
	v["mpi.bytes_total"] = per(float64(bytes))
	v["mpi.msgs_service"] = per(float64(c["mpi.msgs.service"]))
	v["mpi.msgs_block_reply"] = per(float64(c["mpi.msgs.block_reply"]))
	v["mpi.msgs_chunk"] = per(float64(c["mpi.msgs.chunk_req"] + c["mpi.msgs.chunk_rep"]))
	var qdepth int64
	for name, g := range a.snap.Gauges {
		if strings.HasPrefix(name, "mpi.qdepth.") && g.Max > qdepth {
			qdepth = g.Max
		}
	}
	v["mpi.qdepth_max"] = float64(qdepth)
	v["transport.frames_out"] = per(float64(frames))
	v["transport.bytes_out"] = per(float64(netBytes))
	v["transport.bytes_per_frame"] = ratio(float64(netBytes), float64(frames))

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	v["go.gc_cycles"] = per(float64(mem.NumGC - a.mem0.NumGC))
	v["go.gc_pause_ms"] = per(float64(mem.PauseTotalNs-a.mem0.PauseTotalNs) / 1e6)
	v["obs.trace_dropped"] = per(float64(a.dropped))

	// The time budget: where ranks × solve_s went.
	total := float64(a.ranks) * a.busy.Seconds()
	wait := a.wait.Seconds()
	sync := group["barrier"] + group["collective"]
	sched := group["pardo"]
	b := map[string]float64{
		"budget.compute_pct":    100 * ratio(max(compute-wait, 0), total),
		"budget.block_wait_pct": 100 * ratio(wait, total),
		"budget.sync_wait_pct":  100 * ratio(sync, total),
		"budget.sched_pct":      100 * ratio(sched, total),
		"budget.disk_pct":       100 * ratio(disk, total),
	}
	rest := 100.0
	for k, x := range b {
		v[k] = x
		rest -= x
	}
	v["budget.other_pct"] = rest
	return v
}

// budgetTable renders the budget.* rows of one workload.
func budgetTable(workload string, v map[string]float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "time budget of %s: shares of ranks x solve_s (traced pass)\n", workload)
	sum := 0.0
	for _, k := range budgetNames {
		fmt.Fprintf(&sb, "  %-22s %6.2f %%\n", k, v[k])
		sum += v[k]
	}
	fmt.Fprintf(&sb, "  %-22s %6.2f %%\n", "sum", sum)
	return sb.String()
}

var budgetNames = []string{
	"budget.compute_pct", "budget.block_wait_pct", "budget.sync_wait_pct",
	"budget.sched_pct", "budget.disk_pct", "budget.other_pct",
}

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the q-quantile of xs the way Python's
// statistics.quantiles does (the exclusive method), clamped to the
// smallest and largest value.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)+1)
	i := int(pos)
	if i < 1 {
		return s[0]
	}
	if i >= len(s) {
		return s[len(s)-1]
	}
	return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), median(xs))
}
