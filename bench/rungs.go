package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/wire"
)

// rungBudget is how long each rung's timing loop runs.  The rungs are
// the same for every workload and take about two seconds in all.
const rungBudget = 100 * time.Millisecond

// sink keeps the compiler from discarding a rung's result.
var sink any

// timeCalls calls f until rungBudget has passed and returns the mean
// wall time and the mean heap allocations of one call, recording one
// benchmark span around the loop.
func timeCalls(rec *recorder, name string, f func()) (perCall time.Duration, allocs float64) {
	f() // warm caches and pools
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := rec.begin(name, "rungs")
	start := time.Now()
	calls := 0
	for batch := 1; time.Since(start) < rungBudget; batch *= 2 {
		for i := 0; i < batch; i++ {
			f()
		}
		calls += batch
	}
	elapsed := time.Since(start)
	end()
	runtime.ReadMemStats(&m1)
	return elapsed / time.Duration(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// rungs times one call into each layer's public functions at the shapes
// the workloads use, and calibrates the host (fsync, memory copy).  dir
// is a scratch directory on the filesystem the workloads write to.
func rungs(rec *recorder, dir string) (map[string]float64, error) {
	v := map[string]float64{"machine.nproc": float64(runtime.NumCPU())}

	// linalg: the GEMM shapes the seg=14 and seg=4 contractions reduce to.
	for _, n := range []int{196, 16} {
		a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
		for i := range a {
			a[i], b[i] = 1+float64(i%7), 1+float64(i%5)
		}
		d, _ := timeCalls(rec, fmt.Sprintf("linalg.Gemm n=%d", n), func() { linalg.Gemm(n, n, n, 1, a, b, 0, c) })
		v[fmt.Sprintf("linalg.gemm_gflops_n%d", n)] = 2 * float64(n) * float64(n) * float64(n) / float64(d.Nanoseconds())
	}

	// block: the paper's §IV-D contraction V(M,N,L,S) * T(L,S,I,J).
	spec := block.Spec{A: []int{0, 1, 2, 3}, B: []int{2, 3, 4, 5}, C: []int{0, 1, 4, 5}}
	for _, seg := range []int{14, 4} {
		x, y := block.New(seg, seg, seg, seg), block.New(seg, seg, seg, seg)
		x.Fill(1.1)
		y.Fill(0.9)
		flops, err := block.ContractFlops(spec, x.Dims(), y.Dims())
		if err != nil {
			return nil, err
		}
		var cerr error
		d, allocs := timeCalls(rec, fmt.Sprintf("block.Contract seg=%d", seg), func() {
			sink, cerr = block.Contract(spec, x, y)
		})
		if cerr != nil {
			return nil, cerr
		}
		v[fmt.Sprintf("block.contract_gflops_seg%d", seg)] = float64(flops) / float64(d.Nanoseconds())
		v[fmt.Sprintf("block.contract_allocs_seg%d", seg)] = allocs
		if seg == 14 {
			// Computed, not measured: both operands read and the result
			// written once, 8 bytes an element.
			v["block.contract_ops_per_byte_seg14"] = float64(flops) / float64(8*3*x.Size())
		}
	}
	// MP2's w(I,B,J,A) -> wp(I,A,J,B).
	w4 := block.New(4, 4, 4, 4)
	w4.Fill(0.7)
	d, _ := timeCalls(rec, "block.Permute seg=4", func() { sink = w4.Permute([]int{0, 3, 2, 1}) })
	v["block.permute_ns_seg4"] = float64(d.Nanoseconds())

	// chem: one seg=14 four-index integral block.
	ints := chem.AOIntegrals()
	lo, hi := []int{1, 15, 29, 43}, []int{14, 28, 42, 56}
	d, _ = timeCalls(rec, "chem.AOIntegrals seg=14", func() { sink = ints("V", lo, hi) })
	v["chem.integrals_ns_per_elem"] = float64(d.Nanoseconds()) / (14 * 14 * 14 * 14)

	// wire: encode and decode of a 4^4 block, 2 KiB of payload.
	blk := block.New(4, 4, 4, 4)
	blk.Fill(1.25)
	enc := wire.GetEncoder(blk.WireSizeHint())
	blk.EncodeWire(enc)
	encoded := append([]byte(nil), enc.Bytes()...)
	wire.PutEncoder(enc)
	dEnc, aEnc := timeCalls(rec, "wire.Encode block2k", func() {
		e := wire.GetEncoder(blk.WireSizeHint())
		blk.EncodeWire(e)
		wire.PutEncoder(e)
	})
	var derr error
	dDec, aDec := timeCalls(rec, "wire.Decode block2k", func() {
		dec := wire.NewDecoder(encoded)
		sink = block.DecodeWire(dec)
		derr = dec.Err()
	})
	if derr != nil {
		return nil, derr
	}
	v["wire.encode_ns_block2k"] = float64(dEnc.Nanoseconds())
	v["wire.decode_ns_block2k"] = float64(dDec.Nanoseconds())
	v["wire.codec_allocs_block2k"] = aEnc + aDec

	// mpi and transport: a block echo (send + reply) between two ranks
	// over the in-process world, the in-process Router, and TCP loopback.
	echo := func(name string, worlds []*mpi.World) (time.Duration, float64) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			c := worlds[len(worlds)-1].Comm(1)
			for {
				m := c.Recv(0, 1)
				if _, stop := m.Data.(string); stop {
					return
				}
				c.Send(0, 2, m.Data)
			}
		}()
		c := worlds[0].Comm(0)
		d, allocs := timeCalls(rec, name, func() {
			c.Send(1, 1, blk)
			sink = c.Recv(1, 2)
		})
		c.Send(1, 1, "stop")
		<-done
		return d, allocs
	}
	d, _ = echo("mpi.World echo block2k", []*mpi.World{mpi.NewWorld(2)})
	v["mpi.roundtrip_ns"] = float64(d.Nanoseconds())

	router := transport.NewRouter()
	routed, err := distributedPair(func(r int) (transport.Transport, error) { return router.Endpoint(r), nil })
	if err != nil {
		return nil, err
	}
	d, _ = echo("transport.Router echo block2k", routed)
	closeWorlds(routed)
	v["transport.router_echo_ns_block2k"] = float64(d.Nanoseconds())

	lns, addrs, err := listenLoopback(2)
	if err != nil {
		return nil, err
	}
	tcp, err := distributedPair(func(r int) (transport.Transport, error) {
		return transport.NewTCP(transport.TCPConfig{Rank: r, Addrs: addrs, Listener: lns[r]})
	})
	if err != nil {
		for _, ln := range lns {
			ln.Close()
		}
		return nil, err
	}
	d, allocs := echo("transport.TCP echo block2k", tcp)
	closeWorlds(tcp)
	v["transport.tcp_echo_ns_block2k"] = float64(d.Nanoseconds())
	v["transport.tcp_echo_allocs_block2k"] = allocs

	// compiler, bytecode, dry run: what serve pays per job, at job size.
	src := chem.MP2EnergyProgram()
	var prog *core.Program
	var perr error
	d, _ = timeCalls(rec, "core.Compile mp2", func() { prog, perr = core.Compile(src) })
	if perr != nil {
		return nil, perr
	}
	v["compiler.compile_us"] = float64(d.Nanoseconds()) / 1e3
	params := map[string]int{"no": serveNo, "nv": serveNv}
	segs := core.DefaultSegConfig(serveSeg)
	d, _ = timeCalls(rec, "Program.Resolve mp2", func() { sink, perr = prog.Resolve(params, segs) })
	if perr != nil {
		return nil, perr
	}
	v["bytecode.resolve_us"] = float64(d.Nanoseconds()) / 1e3
	dry := core.Config{Workers: 2, Servers: 1, Params: params, Seg: segs}
	d, _ = timeCalls(rec, "core.DryRun mp2", func() { sink, perr = core.DryRun(prog, dry, 0) })
	if perr != nil {
		return nil, perr
	}
	v["sip.dryrun_us"] = float64(d.Nanoseconds()) / 1e3

	// fs: the steps server.go and the journal take to make 2 KiB durable.
	payload := make([]byte, 2048)
	target := filepath.Join(dir, "fsync-rung")
	var ferr error
	d, _ = timeCalls(rec, "fs write+fsync+rename 2k", func() {
		if err := durableWrite(dir, target, payload); err != nil {
			ferr = err
		}
	})
	os.Remove(target)
	if ferr != nil {
		return nil, ferr
	}
	v["fs.fsync_us_2k"] = float64(d.Nanoseconds()) / 1e3

	v["machine.copy_gbps"] = copyBandwidth(rec)
	return v, nil
}

func durableWrite(dir, target string, payload []byte) error {
	f, err := os.CreateTemp(dir, "fsync-rung.tmp*")
	if err != nil {
		return err
	}
	_, err = f.Write(payload)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), target)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// listenLoopback binds n listeners on 127.0.0.1:0.
func listenLoopback(n int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, 0, n)
	addrs := make([]string, 0, n)
	for len(lns) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return lns, addrs, nil
}

// distributedPair builds two single-rank worlds joined by the transport
// newTransport returns for each rank.
func distributedPair(newTransport func(rank int) (transport.Transport, error)) ([]*mpi.World, error) {
	var worlds []*mpi.World
	for r := 0; r < 2; r++ {
		tr, err := newTransport(r)
		if err != nil {
			closeWorlds(worlds)
			return nil, err
		}
		w, err := mpi.NewDistributedWorld(2, []int{r}, tr)
		if err != nil {
			tr.Close()
			closeWorlds(worlds)
			return nil, err
		}
		worlds = append(worlds, w)
	}
	return worlds, nil
}

func closeWorlds(worlds []*mpi.World) {
	for _, w := range worlds {
		w.Close()
	}
}

// copyCap bounds each array of the copy rung.  The guide asks for four
// times the last-level cache; a virtual machine that reports a whole
// socket's L3 would need gigabytes, so the size is capped and printed.
const copyCap = 512 << 20

// llcBytes reads the last-level cache size Linux reports for cpu0.
func llcBytes() int64 {
	best := int64(0)
	for level := 0; level < 8; level++ {
		raw, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", level))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// copyBandwidth copies one array into another, each four times the
// last-level cache (capped), and returns GB/s counting bytes read plus
// bytes written.
func copyBandwidth(rec *recorder) float64 {
	llc := llcBytes()
	size := 4 * llc
	if size == 0 || size > copyCap {
		size = copyCap
	}
	src, dst := make([]float64, size/8), make([]float64, size/8)
	for i := range src {
		src[i] = float64(i)
	}
	copy(dst, src) // fault the destination in
	end := rec.begin(fmt.Sprintf("copy %d MiB (LLC %d MiB)", size>>20, llc>>20), "rungs")
	start := time.Now()
	copy(dst, src)
	elapsed := time.Since(start)
	end()
	sink = dst[len(dst)-1]
	return 2 * float64(size) / float64(elapsed.Nanoseconds())
}
