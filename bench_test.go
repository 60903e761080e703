package repro

// The benchmark harness: one benchmark per evaluation figure of the
// paper (regenerating its series through the performance model and
// reporting the modelled seconds as custom metrics), plus the paper's
// example program on the real runtime and the Global-Arrays baseline.
// The runtime's layers are measured by the repository benchmark in
// bench/ (see bench/README.md).
//
//	go test -bench=. -benchmem
//
// Figure benches report "model_s" (modelled elapsed seconds) and
// "wait_pct" so the series can be read straight off the benchmark
// output; cmd/figures prints the same data as tables.

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/segment"
)

// benchSweep runs one modelled configuration per sub-benchmark and
// reports the figure metrics.
func benchSweep(b *testing.B, w perfmodel.Workload, m machine.Machine, procs []int, window int, blockBytes float64) {
	for _, p := range procs {
		b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
			var rep perfmodel.Report
			for i := 0; i < b.N; i++ {
				rep = perfmodel.Simulate(w, perfmodel.Params{
					Machine: m, Workers: p, PrefetchWindow: window, BlockBytes: blockBytes,
				})
			}
			b.ReportMetric(rep.Elapsed, "model_s")
			b.ReportMetric(100*rep.WaitFrac, "wait_pct")
		})
	}
}

func segBytes(seg int) float64 {
	s := float64(seg)
	return s * s * s * s * 8
}

// BenchmarkFig2LuciferinCCSD regenerates Figure 2: luciferin RHF CCSD
// per-iteration time, efficiency, and wait on the Sun Opteron cluster.
func BenchmarkFig2LuciferinCCSD(b *testing.B) {
	const seg = 28
	benchSweep(b, perfmodel.CCSDIteration(chem.Luciferin, seg), machine.Midnight,
		[]int{32, 64, 128, 256}, 64, segBytes(seg))
}

// BenchmarkFig3WaterClusterCCSD regenerates Figure 3: the water cluster
// on Cray XT5 and XT4.
func BenchmarkFig3WaterClusterCCSD(b *testing.B) {
	const seg = 30
	w := perfmodel.CCSDIteration(chem.WaterCluster21, seg)
	b.Run("XT5", func(b *testing.B) {
		benchSweep(b, w, machine.Pingo, []int{512, 1024, 2048}, 64, segBytes(seg))
	})
	b.Run("XT4", func(b *testing.B) {
		benchSweep(b, w, machine.Kraken, []int{512, 1024, 2048, 4096}, 64, segBytes(seg))
	})
}

// BenchmarkFig4RdxHmxCCSD regenerates Figure 4: RDX and HMX CCSD on
// jaguar.
func BenchmarkFig4RdxHmxCCSD(b *testing.B) {
	const seg = 20
	procs := []int{1000, 2000, 4000, 6000, 8000}
	for _, mol := range []chem.Molecule{chem.RDX, chem.HMX} {
		w := perfmodel.CCSDIteration(mol, seg)
		w.Repeat = 16
		b.Run(mol.Name, func(b *testing.B) {
			benchSweep(b, w, machine.Jaguar, procs, 64, segBytes(seg))
		})
	}
}

// BenchmarkFig5RdxCCSDT regenerates Figure 5: RDX CCSD(T) up to 80,000
// processors.
func BenchmarkFig5RdxCCSDT(b *testing.B) {
	const seg = 32
	benchSweep(b, perfmodel.CCSDTriples(chem.RDX, seg), machine.Jaguar,
		[]int{10000, 20000, 30000, 40000, 60000, 80000}, 64, segBytes(seg))
}

// BenchmarkFig6FockBuild regenerates Figure 6: the diamond-nanocrystal
// Fock build to 108,000 cores, including the 84,000-core segment
// retune.
func BenchmarkFig6FockBuild(b *testing.B) {
	cores := []int{4000, 8000, 16000, 32000, 48000, 64000, 72000, 84000, 96000, 108000}
	b.Run("seg=8", func(b *testing.B) {
		benchSweep(b, perfmodel.FockBuild(chem.DiamondNano, 8), machine.Jaguar, cores, 64, segBytes(8))
	})
	b.Run("seg=6-retuned", func(b *testing.B) {
		benchSweep(b, perfmodel.FockBuild(chem.DiamondNano, 6), machine.Jaguar, []int{84000}, 64, segBytes(6))
	})
}

// BenchmarkFig7Mp2VsGA regenerates Figure 7: ACES III versus the
// NWChem/Global-Arrays baseline for the cytosine+OH MP2 gradient.
func BenchmarkFig7Mp2VsGA(b *testing.B) {
	const seg = 15
	procs := []int{16, 32, 64, 128, 256}
	b.Run("acesIII-1GB", func(b *testing.B) {
		benchSweep(b, perfmodel.MP2Gradient(chem.CytosineOH, seg), machine.Pople, procs, 64, segBytes(seg))
	})
	b.Run("nwchem-2GB", func(b *testing.B) {
		w := perfmodel.MP2GradientGA(chem.CytosineOH, seg, 0.25)
		m := machine.Pople.WithMemPerCore(2 << 30)
		for _, p := range procs {
			b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
				if !perfmodel.GAMemoryFeasible(chem.CytosineOH, p, m.MemPerCore) {
					b.Skip("DNF: out of memory (as in the paper)")
				}
				var rep perfmodel.Report
				for i := 0; i < b.N; i++ {
					rep = perfmodel.Simulate(w, perfmodel.Params{Machine: m, Workers: p, BlockBytes: segBytes(seg)})
				}
				b.ReportMetric(rep.Elapsed*1.15, "model_s")
			})
		}
	})
	b.Run("nwchem-1GB-oom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if perfmodel.GAMemoryFeasible(chem.CytosineOH, 256, 1<<30) {
				b.Fatal("1 GB/core should be infeasible")
			}
		}
	})
}

// BenchmarkAblationPrefetchBGP regenerates the §VI-A BlueGene/P port
// anecdote: naive versus bounded prefetching.
func BenchmarkAblationPrefetchBGP(b *testing.B) {
	const seg = 20
	w := perfmodel.CCSDIteration(chem.Luciferin, seg)
	w.Repeat = 8
	cases := []struct {
		name   string
		m      machine.Machine
		window int
	}{
		{"xt5-bounded", machine.Pingo, 64},
		{"bgp-naive", machine.BlueGeneP, -1},
		{"bgp-bounded", machine.BlueGeneP, 64},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var rep perfmodel.Report
			for i := 0; i < b.N; i++ {
				rep = perfmodel.Simulate(w, perfmodel.Params{
					Machine: tc.m, Workers: 512, PrefetchWindow: tc.window, BlockBytes: segBytes(seg),
				})
			}
			b.ReportMetric(rep.Elapsed, "model_s")
			b.ReportMetric(rep.RefetchFactor, "refetch_x")
		})
	}
}

// BenchmarkAblationSegmentSize sweeps the paper's primary tuning knob.
func BenchmarkAblationSegmentSize(b *testing.B) {
	for _, seg := range []int{12, 20, 28, 36} {
		b.Run(fmt.Sprintf("seg=%d", seg), func(b *testing.B) {
			w := perfmodel.CCSDIteration(chem.Luciferin, seg)
			var rep perfmodel.Report
			for i := 0; i < b.N; i++ {
				rep = perfmodel.Simulate(w, perfmodel.Params{
					Machine: machine.Midnight, Workers: 128, PrefetchWindow: 64, BlockBytes: segBytes(seg),
				})
			}
			b.ReportMetric(rep.Elapsed, "model_s")
		})
	}
}

// BenchmarkAblationScheduling compares the SIP's guided master against
// static splitting on the triangular Fock space.
func BenchmarkAblationScheduling(b *testing.B) {
	w := perfmodel.FockBuild(chem.DiamondNano.Scaled(0.5), 8)
	p := perfmodel.Params{Machine: machine.Jaguar, Workers: 2000, PrefetchWindow: 64, BlockBytes: segBytes(8)}
	b.Run("guided", func(b *testing.B) {
		var rep perfmodel.Report
		for i := 0; i < b.N; i++ {
			rep = perfmodel.Simulate(w, p)
		}
		b.ReportMetric(rep.Elapsed, "model_s")
	})
	b.Run("static", func(b *testing.B) {
		var rep perfmodel.Report
		for i := 0; i < b.N; i++ {
			rep = perfmodel.SimulateStatic(w, p)
		}
		b.ReportMetric(rep.Elapsed, "model_s")
	})
}

// --- Real runtime ---

// BenchmarkSIPPaperExample executes the paper's §IV-D program for real
// on an in-process SIP.
func BenchmarkSIPPaperExample(b *testing.B) {
	prog, err := core.Compile(chem.CCSDTermProgram())
	if err != nil {
		b.Fatal(err)
	}
	preset := func(coord segment.Coord, lo, hi []int) *block.Block {
		dims := make([]int, len(lo))
		for d := range lo {
			dims[d] = hi[d] - lo[d] + 1
		}
		blk := block.New(dims...)
		blk.Fill(0.5)
		return blk
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.Config{
				Workers:        workers,
				Params:         map[string]int{"norb": 12, "nocc": 4},
				Seg:            bytecode.DefaultSegConfig(4),
				PrefetchWindow: 2,
				Integrals:      chem.AOIntegrals(),
				Output:         io.Discard,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Preset = map[string]core.PresetFunc{"T": preset}
				if _, err := core.Run(prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGAPatch measures the Global-Arrays baseline patch access.
func BenchmarkGAPatch(b *testing.B) {
	c := ga.NewCluster(4, 0)
	g, err := c.Create("bench", 256, 256)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]float64, 64*64)
	b.SetBytes(int64(len(buf) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := []int{(i % 4) * 64, (i % 4) * 64}
		hi := []int{lo[0] + 63, lo[1] + 63}
		if err := g.Put(lo, hi, buf); err != nil {
			b.Fatal(err)
		}
		if err := g.Get(lo, hi, buf); err != nil {
			b.Fatal(err)
		}
	}
}
