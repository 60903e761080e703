// Quickstart: compile and run the paper's §IV-D SIAL example — the
// contraction R(M,N,I,J) = sum_{L,S} V(M,N,L,S) * T(L,S,I,J) with the
// integral blocks V computed on demand — on an in-process SIP with 4
// workers, and verify the result against a direct serial evaluation.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/block"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/segment"
)

// The SIAL program, exactly as in the paper with declarations added.
const src = `
sial quickstart
param norb = 8
param nocc = 4
aoindex M = 1, norb
aoindex N = 1, norb
aoindex L = 1, norb
aoindex S = 1, norb
moindex I = 1, nocc
moindex J = 1, nocc
distributed T(L,S,I,J)
distributed R(M,N,I,J)
temp V(M,N,L,S)
temp tmp(M,N,I,J)
temp tmpsum(M,N,I,J)
scalar rnorm

pardo M, N, I, J
  tmpsum(M,N,I,J) = 0.0
  do L
    do S
      get T(L,S,I,J)
      compute_integrals V(M,N,L,S)
      tmp(M,N,I,J) = V(M,N,L,S) * T(L,S,I,J)
      tmpsum(M,N,I,J) += tmp(M,N,I,J)
    enddo S
  enddo L
  put R(M,N,I,J) = tmpsum(M,N,I,J)
  rnorm += dot(tmpsum(M,N,I,J), tmpsum(M,N,I,J))
endpardo M, N, I, J
sip_barrier
collective rnorm
print "|R|^2 =", rnorm
endsial
`

// tAmp is the synthetic T-amplitude initializer.
func tAmp(idx []int) float64 {
	s := 0
	for d, v := range idx {
		s += (3*d + 2) * v
	}
	return float64(s%11)*0.2 - 1.0
}

func main() {
	prog, err := core.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %q: %d instructions, %d arrays, %d pardo loop(s)\n\n",
		prog.Name, len(prog.Code), len(prog.Arrays), len(prog.Pardos))

	cfg := core.Config{
		Workers:      4,
		Seg:          core.DefaultSegConfig(4),
		Integrals:    chem.AOIntegrals(),
		GatherArrays: true,
		Preset: map[string]core.PresetFunc{
			"T": func(coord segment.Coord, lo, hi []int) *block.Block {
				dims := make([]int, len(lo))
				for d := range lo {
					dims[d] = hi[d] - lo[d] + 1
				}
				b := block.New(dims...)
				data := b.Data()
				idx := make([]int, len(dims))
				for off := range data {
					rem := off
					for d := len(dims) - 1; d >= 0; d-- {
						idx[d] = rem%dims[d] + lo[d]
						rem /= dims[d]
					}
					data[off] = tAmp(idx)
				}
				return b
			},
		},
	}

	// The paper's dry run: check memory feasibility before running.
	report, err := core.DryRun(prog, cfg, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)
	fmt.Println()

	res, err := core.Run(prog, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Verify |R|^2 against a direct serial evaluation of equation (2).
	const norb, nocc = 8, 4
	var want float64
	for m := 1; m <= norb; m++ {
		for n := 1; n <= norb; n++ {
			for i := 1; i <= nocc; i++ {
				for j := 1; j <= nocc; j++ {
					var sum float64
					for l := 1; l <= norb; l++ {
						for s := 1; s <= norb; s++ {
							sum += chem.ERI(m, n, l, s) * tAmp([]int{l, s, i, j})
						}
					}
					want += sum * sum
				}
			}
		}
	}
	got := res.Scalars["rnorm"]
	fmt.Printf("\nSIP   |R|^2 = %.12g\n", got)
	fmt.Printf("exact |R|^2 = %.12g\n", want)
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		log.Fatalf("MISMATCH: %g vs %g", got, want)
	}
	fmt.Println("match within 1e-9 relative tolerance")
	fmt.Println()
	fmt.Print(res.Profile)
}
