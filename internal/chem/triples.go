package chem

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/sip"
)

// TriplesProgram generates a perturbative-triples-style SIAL program: a
// rank-6 intermediate W(I,J,K,A,B,C) is formed as the outer product of a
// doubles block with an integral block, divided by the triples
// orbital-energy denominator, and contracted into the pseudo-energy
//
//	E(T) = sum_{ijkabc} W² / (ei + ej + ek - ea - eb - ec).
//
// Rank-6 intermediates are exactly the situation the paper's subindex
// machinery exists for (§IV-E: "arrays with too many dimensions");
// at test scale the segment size keeps the seg⁶ blocks small enough to
// form directly.  Parameters: no (occupied), nv (virtual).
func TriplesProgram() string {
	return `
sial triples
param no = 2
param nv = 3
moindex I = 1, no
moindex J = 1, no
moindex K = 1, no
moaindex A = 1, nv
moaindex B = 1, nv
moaindex C = 1, nv
distributed T2(I,J,A,B)
temp x(K,C)
temp w(I,J,K,A,B,C)
temp wd(I,J,K,A,B,C)
scalar et
scalar iv
scalar jv
scalar kv
scalar av
scalar bv
scalar cv

pardo I, J, K, A, B, C
  get T2(I,J,A,B)
  compute_integrals x(K,C)
  w(I,J,K,A,B,C) = T2(I,J,A,B) * x(K,C)
  wd(I,J,K,A,B,C) = w(I,J,K,A,B,C)
  iv = I
  jv = J
  kv = K
  av = A
  bv = B
  cv = C
  execute triples_denom wd(I,J,K,A,B,C), iv, jv, kv, av, bv, cv
  et += dot(wd(I,J,K,A,B,C), w(I,J,K,A,B,C))
endpardo I, J, K, A, B, C
collective et
endsial
`
}

// TriplesSuper registers the triples denominator super instruction: it
// divides each element of the rank-6 block by
// ei + ej + ek - ea - eb - ec, for the element indices of the block
// argument, which must lie at the segment numbers the scalars carry.
func TriplesSuper() map[string]sip.SuperFunc {
	return map[string]sip.SuperFunc{
		"triples_denom": func(ctx *sip.ExecCtx, blocks []*block.Block, scalars []*float64) error {
			if len(blocks) != 1 || len(scalars) != 6 {
				return fmt.Errorf("triples_denom: want 1 block and 6 scalars, got %d/%d",
					len(blocks), len(scalars))
			}
			los, _, err := denomBounds("triples_denom", ctx, blocks[0], scalars)
			if err != nil {
				return err
			}
			b := blocks[0]
			dims := b.Dims()
			data := b.Data()
			idx := make([]int, 6)
			for off := range data {
				rem := off
				for d := 5; d >= 0; d-- {
					idx[d] = rem%dims[d] + los[d]
					rem /= dims[d]
				}
				den := OccEps(idx[0]) + OccEps(idx[1]) + OccEps(idx[2]) -
					VirtEps(idx[3]) - VirtEps(idx[4]) - VirtEps(idx[5])
				data[off] /= den
			}
			return nil
		},
	}
}

// TriplesSIP runs the triples program on the SIP and returns E(T).
// t2Init supplies the doubles amplitudes; the x "integral" blocks come
// from the synthetic core Hamiltonian (2-index arrays in AOIntegrals).
func TriplesSIP(no, nv, workers, seg int, t2Init func(idx []int) float64) (float64, error) {
	cfg := sip.Config{
		Workers:   workers,
		Params:    map[string]int{"no": no, "nv": nv},
		Seg:       bytecode.DefaultSegConfig(seg),
		Integrals: AOIntegrals(),
		Super:     TriplesSuper(),
		Preset: map[string]sip.PresetFunc{
			"T2": presetFromElem(t2Init),
		},
	}
	res, err := sip.RunSource(TriplesProgram(), cfg)
	if err != nil {
		return 0, err
	}
	return res.Scalars["et"], nil
}

// TriplesReference evaluates the same pseudo-energy with serial loops.
func TriplesReference(no, nv int, t2Init func(idx []int) float64) float64 {
	var e float64
	for i := 1; i <= no; i++ {
		for j := 1; j <= no; j++ {
			for k := 1; k <= no; k++ {
				for a := 1; a <= nv; a++ {
					for b := 1; b <= nv; b++ {
						for c := 1; c <= nv; c++ {
							w := t2Init([]int{i, j, a, b}) * Hcore(k, c)
							den := OccEps(i) + OccEps(j) + OccEps(k) -
								VirtEps(a) - VirtEps(b) - VirtEps(c)
							e += w * w / den
						}
					}
				}
			}
		}
	}
	return e
}
