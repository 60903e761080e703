package sip

import (
	"fmt"
	"math"

	"repro/internal/block"
)

// Builtins is the standard library of computational super instructions
// available to every SIAL program through the execute statement, in the
// spirit of the paper's "rich collection of super instructions" (§IV-C).
// User registrations in Config.Super override builtins of the same name.
//
//	execute trace      a(I,I), s        s += trace of the block
//	execute max_abs    a(I,J), s        s  = max(s, max|a|)
//	execute frobenius  a(I,J), s        s += sum of squares
//	execute symmetrize a(I,J)           a  = (a + a^T)/2 (square rank-2 blocks)
//	execute antisymmetrize a(I,J)       a  = (a - a^T)/2
//	execute set_diag   a(I,I), s        diagonal elements set to s
//	execute scale_diag a(I,I), s        diagonal elements scaled by s
//	execute invert_elements a(I,J)      a[i] = 1/a[i] (zero stays zero)
//	execute fill_seq   a(I,J), s        deterministic fill: base value s
func Builtins() map[string]SuperFunc {
	out := make(map[string]SuperFunc, len(builtinSuper))
	for k, v := range builtinSuper {
		out[k] = v
	}
	return out
}

// superTable resolves, once per run, the super instruction each string of
// a program names: Config.Super first, then the builtins.  A name neither
// registers stays nil, so an execute of it fails only when it runs.
func superTable(strs []string, user map[string]SuperFunc) []SuperFunc {
	fns := make([]SuperFunc, len(strs))
	for i, name := range strs {
		if fn, ok := user[name]; ok {
			fns[i] = fn
		} else {
			fns[i] = builtinSuper[name]
		}
	}
	return fns
}

// builtinSuper is consulted by superTable when a name is not found in
// Config.Super.
var builtinSuper = map[string]SuperFunc{
	"trace":           siTrace,
	"max_abs":         siMaxAbs,
	"frobenius":       siFrobenius,
	"symmetrize":      siSymmetrize,
	"antisymmetrize":  siAntisymmetrize,
	"set_diag":        siSetDiag,
	"scale_diag":      siScaleDiag,
	"invert_elements": siInvertElements,
	"fill_seq":        siFillSeq,
}

func need(name string, blocks []*block.Block, scalars []*float64, nb, ns int) error {
	if len(blocks) != nb || len(scalars) != ns {
		return fmt.Errorf("%s: want %d block(s) and %d scalar(s), got %d/%d",
			name, nb, ns, len(blocks), len(scalars))
	}
	return nil
}

func square2d(name string, b *block.Block) (int, error) {
	d := b.Dims()
	if len(d) != 2 || d[0] != d[1] {
		return 0, fmt.Errorf("%s: want a square rank-2 block, got dims %v", name, d)
	}
	return d[0], nil
}

func siTrace(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error {
	if err := need("trace", blocks, scalars, 1, 1); err != nil {
		return err
	}
	n, err := square2d("trace", blocks[0])
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		*scalars[0] += blocks[0].At(i, i)
	}
	return nil
}

func siMaxAbs(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error {
	if err := need("max_abs", blocks, scalars, 1, 1); err != nil {
		return err
	}
	if m := blocks[0].MaxAbs(); m > *scalars[0] {
		*scalars[0] = m
	}
	return nil
}

func siFrobenius(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error {
	if err := need("frobenius", blocks, scalars, 1, 1); err != nil {
		return err
	}
	*scalars[0] += block.Dot(blocks[0], blocks[0])
	return nil
}

func siSymmetrize(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error {
	if err := need("symmetrize", blocks, scalars, 1, 0); err != nil {
		return err
	}
	n, err := square2d("symmetrize", blocks[0])
	if err != nil {
		return err
	}
	b := blocks[0]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			avg := 0.5 * (b.At(i, j) + b.At(j, i))
			b.Set(avg, i, j)
			b.Set(avg, j, i)
		}
	}
	return nil
}

func siAntisymmetrize(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error {
	if err := need("antisymmetrize", blocks, scalars, 1, 0); err != nil {
		return err
	}
	n, err := square2d("antisymmetrize", blocks[0])
	if err != nil {
		return err
	}
	b := blocks[0]
	for i := 0; i < n; i++ {
		b.Set(0, i, i)
		for j := i + 1; j < n; j++ {
			half := 0.5 * (b.At(i, j) - b.At(j, i))
			b.Set(half, i, j)
			b.Set(-half, j, i)
		}
	}
	return nil
}

func siSetDiag(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error {
	if err := need("set_diag", blocks, scalars, 1, 1); err != nil {
		return err
	}
	n, err := square2d("set_diag", blocks[0])
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		blocks[0].Set(*scalars[0], i, i)
	}
	return nil
}

func siScaleDiag(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error {
	if err := need("scale_diag", blocks, scalars, 1, 1); err != nil {
		return err
	}
	n, err := square2d("scale_diag", blocks[0])
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		blocks[0].Set(blocks[0].At(i, i)*(*scalars[0]), i, i)
	}
	return nil
}

func siInvertElements(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error {
	if err := need("invert_elements", blocks, scalars, 1, 0); err != nil {
		return err
	}
	data := blocks[0].Data()
	for i, v := range data {
		if v != 0 {
			data[i] = 1 / v
		}
	}
	return nil
}

// siFillSeq fills the block with a deterministic smooth pattern seeded
// by the scalar, useful for self-contained test programs.
func siFillSeq(ctx *ExecCtx, blocks []*block.Block, scalars []*float64) error {
	if err := need("fill_seq", blocks, scalars, 1, 1); err != nil {
		return err
	}
	base := *scalars[0]
	data := blocks[0].Data()
	for i := range data {
		data[i] = base + math.Sin(base+float64(i))*0.25
	}
	return nil
}
