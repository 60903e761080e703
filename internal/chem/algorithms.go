package chem

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/ga"
	"repro/internal/segment"
	"repro/internal/sip"
)

// MP2Super returns the user super instruction registry for the MP2
// program: "mp2_denom" divides each element of a T2 block by the MP2
// orbital-energy denominator.  The scalar arguments carry the current
// segment numbers of I, A, J, B; the element bounds are those of the
// block argument, which must lie at those segments.
func MP2Super() map[string]sip.SuperFunc {
	return map[string]sip.SuperFunc{
		"mp2_denom": func(ctx *sip.ExecCtx, blocks []*block.Block, scalars []*float64) error {
			if len(blocks) != 1 || len(scalars) != 4 {
				return fmt.Errorf("mp2_denom: want 1 block and 4 scalars, got %d/%d", len(blocks), len(scalars))
			}
			los, his, err := denomBounds("mp2_denom", ctx, blocks[0], scalars)
			if err != nil {
				return err
			}
			iLo, iHi, aLo, aHi := los[0], his[0], los[1], his[1]
			jLo, jHi, bLo, bHi := los[2], his[2], los[3], his[3]
			data := blocks[0].Data()
			off := 0
			for i := iLo; i <= iHi; i++ {
				for a := aLo; a <= aHi; a++ {
					for j := jLo; j <= jHi; j++ {
						for bb := bLo; bb <= bHi; bb++ {
							data[off] /= OccEps(i) + OccEps(j) - VirtEps(a) - VirtEps(bb)
							off++
						}
					}
				}
			}
			return nil
		},
	}
}

// denomBounds returns the element bounds of a denominator's block
// argument b, whose segment numbers the scalars carry, one per dimension:
// the block must lie at those segments and have their dims.
func denomBounds(name string, ctx *sip.ExecCtx, b *block.Block, scalars []*float64) (lo, hi []int, err error) {
	seg, lo, hi := ctx.Block(0)
	dims := b.Dims()
	if len(seg) != len(scalars) || len(dims) != len(scalars) {
		return nil, nil, fmt.Errorf("%s: block of rank %d, want %d", name, len(dims), len(scalars))
	}
	for d := range dims {
		if seg[d] != int(*scalars[d]) || dims[d] != hi[d]-lo[d]+1 {
			return nil, nil, fmt.Errorf("%s: block dims %v do not match segments", name, dims)
		}
	}
	return lo, hi, nil
}

// MP2SIP computes the model MP2 correlation energy for a molecule with
// no occupied and nv virtual orbitals on the SIP.
func MP2SIP(no, nv, workers, seg int) (float64, error) {
	cfg := sip.Config{
		Workers:   workers,
		Params:    map[string]int{"no": no, "nv": nv},
		Seg:       bytecode.DefaultSegConfig(seg),
		Integrals: MOIntegrals(no),
		Super:     MP2Super(),
	}
	res, err := sip.RunSource(MP2EnergyProgram(), cfg)
	if err != nil {
		return 0, err
	}
	return res.Scalars["emp2"], nil
}

// MP2Reference computes the same energy with plain serial loops.
func MP2Reference(no, nv int) float64 {
	var e float64
	for i := 1; i <= no; i++ {
		for a := 1; a <= nv; a++ {
			for j := 1; j <= no; j++ {
				for b := 1; b <= nv; b++ {
					v := ERI(i, a+no, j, b+no)
					w := ERI(i, b+no, j, a+no)
					d := OccEps(i) + OccEps(j) - VirtEps(a) - VirtEps(b)
					e += v * (2*v - w) / d
				}
			}
		}
	}
	return e
}

// MP2GA computes the same energy the NWChem/Global-Arrays way: the full
// (ia|jb) and (ib|ja) integral arrays are allocated as global arrays up
// front (the rigid data organization the paper contrasts with the SIA),
// filled, and then consumed patch by patch.  With a per-core memory
// budget too small for the full arrays, Create fails with *ga.ErrNoMemory
// — reproducing NWChem's behaviour in Figure 7, where runs at 1 GB/core
// never completed.
func MP2GA(c *ga.Cluster, no, nv int) (float64, error) {
	viajb, err := c.Create("viajb", no, nv, no, nv)
	if err != nil {
		return 0, err
	}
	defer c.Destroy(viajb)
	wibja, err := c.Create("wibja", no, nv, no, nv)
	if err != nil {
		return 0, err
	}
	defer c.Destroy(wibja)

	// Fill phase: each "process" writes a patch of rows.
	row := make([]float64, nv*no*nv)
	for i := 1; i <= no; i++ {
		off := 0
		for a := 1; a <= nv; a++ {
			for j := 1; j <= no; j++ {
				for b := 1; b <= nv; b++ {
					row[off] = ERI(i, a+no, j, b+no)
					off++
				}
			}
		}
		if err := viajb.Put([]int{i - 1, 0, 0, 0}, []int{i - 1, nv - 1, no - 1, nv - 1}, row); err != nil {
			return 0, err
		}
		off = 0
		for a := 1; a <= nv; a++ {
			for j := 1; j <= no; j++ {
				for b := 1; b <= nv; b++ {
					row[off] = ERI(i, b+no, j, a+no)
					off++
				}
			}
		}
		if err := wibja.Put([]int{i - 1, 0, 0, 0}, []int{i - 1, nv - 1, no - 1, nv - 1}, row); err != nil {
			return 0, err
		}
	}
	c.Sync()

	// Energy phase: fetch patches and reduce element by element — the
	// element-level style the paper attributes to GA programs.
	var e float64
	vbuf := make([]float64, nv*no*nv)
	wbuf := make([]float64, nv*no*nv)
	for i := 1; i <= no; i++ {
		if err := viajb.Get([]int{i - 1, 0, 0, 0}, []int{i - 1, nv - 1, no - 1, nv - 1}, vbuf); err != nil {
			return 0, err
		}
		if err := wibja.Get([]int{i - 1, 0, 0, 0}, []int{i - 1, nv - 1, no - 1, nv - 1}, wbuf); err != nil {
			return 0, err
		}
		off := 0
		for a := 1; a <= nv; a++ {
			for j := 1; j <= no; j++ {
				for b := 1; b <= nv; b++ {
					d := OccEps(i) + OccEps(j) - VirtEps(a) - VirtEps(b)
					e += vbuf[off] * (2*vbuf[off] - wbuf[off]) / d
					off++
				}
			}
		}
	}
	return e, nil
}

// CCSDTermSIP runs the paper's §IV-D contraction on the SIP with T
// preset from the given element function and returns the gathered R.
func CCSDTermSIP(norb, nocc, workers, seg int, tInit func(idx []int) float64) (*sip.Result, error) {
	return sip.RunSource(CCSDTermProgram(), ccsdTermConfig(norb, nocc, workers, seg, tInit))
}

// ccsdTermConfig is the run of CCSDTermSIP.
func ccsdTermConfig(norb, nocc, workers, seg int, tInit func(idx []int) float64) sip.Config {
	return sip.Config{
		Workers:      workers,
		Params:       map[string]int{"norb": norb, "nocc": nocc},
		Seg:          bytecode.DefaultSegConfig(seg),
		Integrals:    AOIntegrals(),
		GatherArrays: true,
		Preset: map[string]sip.PresetFunc{
			"T": presetFromElem(tInit),
		},
	}
}

// CCSDTermReference evaluates equation (2) of the paper with serial
// loops: R(m,n,i,j) = sum_{l,s} (mn|ls) * T(l,s,i,j).
func CCSDTermReference(norb, nocc int, tInit func(idx []int) float64) []float64 {
	out := make([]float64, norb*norb*nocc*nocc)
	pos := 0
	for m := 1; m <= norb; m++ {
		for n := 1; n <= norb; n++ {
			for i := 1; i <= nocc; i++ {
				for j := 1; j <= nocc; j++ {
					var sum float64
					for l := 1; l <= norb; l++ {
						for s := 1; s <= norb; s++ {
							sum += ERI(m, n, l, s) * tInit([]int{l, s, i, j})
						}
					}
					out[pos] = sum
					pos++
				}
			}
		}
	}
	return out
}

// FockBuildSIP assembles the Fock matrix on the SIP from a density
// matrix given element-wise and returns the result (upper triangle of
// blocks only, per the where clause).
func FockBuildSIP(norb, workers, seg int, density func(idx []int) float64) (*sip.Result, error) {
	cfg := sip.Config{
		Workers:      workers,
		Params:       map[string]int{"norb": norb},
		Seg:          bytecode.DefaultSegConfig(seg),
		Integrals:    AOIntegrals(),
		GatherArrays: true,
		Preset: map[string]sip.PresetFunc{
			"Dn": presetFromElem(density),
		},
	}
	return sip.RunSource(FockBuildProgram(), cfg)
}

// FockBuildReference computes the same Fock matrix serially.
func FockBuildReference(norb int, density func(idx []int) float64) []float64 {
	out := make([]float64, norb*norb)
	for m := 1; m <= norb; m++ {
		for n := 1; n <= norb; n++ {
			f := Hcore(m, n)
			for l := 1; l <= norb; l++ {
				for s := 1; s <= norb; s++ {
					d := density([]int{l, s})
					f += d * (2*ERI(m, n, l, s) - ERI(m, l, n, s))
				}
			}
			out[(m-1)*norb+(n-1)] = f
		}
	}
	return out
}

// CCSDEnergySIP runs the CCSD-style iteration driver and returns the
// final pseudo-energy.
func CCSDEnergySIP(norb, nocc, iters, workers, servers, seg int, tInit func(idx []int) float64) (float64, error) {
	cfg := sip.Config{
		Workers:   workers,
		Servers:   servers,
		Params:    map[string]int{"norb": norb, "nocc": nocc, "iters": iters},
		Seg:       bytecode.DefaultSegConfig(seg),
		Integrals: AOIntegrals(),
		Preset: map[string]sip.PresetFunc{
			"T": presetFromElem(tInit),
		},
	}
	res, err := sip.RunSource(CCSDEnergyProgram(), cfg)
	if err != nil {
		return 0, err
	}
	return res.Scalars["e"], nil
}

// CCSDEnergyReference mirrors CCSDEnergyProgram with dense serial
// arrays.
func CCSDEnergyReference(norb, nocc, iters int, tInit func(idx []int) float64) float64 {
	n4 := norb * norb * nocc * nocc
	t := make([]float64, n4)
	idx := func(k, p, i, j int) int {
		return (((k-1)*norb+(p-1))*nocc+(i-1))*nocc + (j - 1)
	}
	for k := 1; k <= norb; k++ {
		for p := 1; p <= norb; p++ {
			for i := 1; i <= nocc; i++ {
				for j := 1; j <= nocc; j++ {
					t[idx(k, p, i, j)] = tInit([]int{k, p, i, j})
				}
			}
		}
	}
	for it := 0; it < iters; it++ {
		told := append([]float64(nil), t...)
		for k := 1; k <= norb; k++ {
			for p := 1; p <= norb; p++ {
				for i := 1; i <= nocc; i++ {
					for j := 1; j <= nocc; j++ {
						v := 0.5 * told[idx(k, p, i, j)]
						var sum float64
						for l := 1; l <= norb; l++ {
							for s := 1; s <= norb; s++ {
								sum += ERI(k, p, l, s) * told[idx(l, s, i, j)]
							}
						}
						t[idx(k, p, i, j)] = v + 0.01*sum
					}
				}
			}
		}
	}
	var e float64
	for _, v := range t {
		e += v * v
	}
	return e
}

// presetFromElem builds a sip.PresetFunc filling blocks from the
// allocator (block.Get) with an element function over global indices.
func presetFromElem(f func(idx []int) float64) sip.PresetFunc {
	return func(coord segment.Coord, lo, hi []int) *block.Block {
		return fillBlock(lo, hi, f)
	}
}

// PresetFromElem is the exported form of presetFromElem, for callers
// outside the package (the serve packs) that preset arrays from an
// element function.
func PresetFromElem(f func(idx []int) float64) sip.PresetFunc {
	return presetFromElem(f)
}

// ModelDensity is a symmetric, diagonally dominant model density
// D(m,n) = 1/(1+|m-n|), the deterministic stand-in the serve scf pack
// uses for FockBuildProgram's Dn input.
func ModelDensity(idx []int) float64 {
	d := idx[0] - idx[1]
	if d < 0 {
		d = -d
	}
	return 1.0 / (1.0 + float64(d))
}
