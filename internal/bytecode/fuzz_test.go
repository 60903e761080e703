package bytecode_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/chem"
	"repro/internal/compiler"
)

// FuzzRead feeds arbitrary bytes to Read, the loader of .siox files.
// The invariants: Read never panics; a program it accepts marshals and
// reads back to the same bytes; and every accepted pardo's where code
// evaluates without panic on arbitrary index and parameter values, the
// guarantee the master's iteration enumeration relies on.
//
// The seeds are the compiled examples/sial programs and the programs
// internal/chem generates, each of which must read back.  Run
// `go test -fuzz FuzzRead ./internal/bytecode` to explore beyond them.
func FuzzRead(f *testing.F) {
	srcs := []string{
		chem.CCSDTermProgram(), chem.MP2EnergyProgram(), chem.MP2ServedProgram(),
		chem.FockBuildProgram(), chem.CCSDEnergyProgram(), chem.TriplesProgram(),
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "sial", "*.sial"))
	if err != nil || len(files) == 0 {
		f.Fatalf("examples/sial: %d files, %v", len(files), err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	for _, src := range srcs {
		prog, err := compiler.CompileSource(src)
		if err != nil {
			f.Fatal(err)
		}
		data, err := prog.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		if _, err := bytecode.Unmarshal(data); err != nil {
			f.Fatalf("program %s does not read back: %v", prog.Name, err)
		}
		f.Add(data, int64(1))
	}
	f.Add([]byte("SIABC1\n"), int64(0))

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		p, err := bytecode.Unmarshal(data)
		if err != nil {
			return
		}
		again, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted program does not marshal: %v", err)
		}
		q, err := bytecode.Unmarshal(again)
		if err != nil {
			t.Fatalf("accepted program does not read back: %v", err)
		}
		if twice, err := q.Marshal(); err != nil || !bytes.Equal(twice, again) {
			t.Fatalf("program changed in a marshal round trip (err %v)", err)
		}
		rng := rand.New(rand.NewSource(seed))
		edges := []int{0, 1, -1, math.MaxInt, math.MinInt}
		val := func() int {
			if k := rng.Intn(2 * len(edges)); k < len(edges) {
				return edges[k]
			}
			return int(rng.Int63()) - math.MaxInt64/2
		}
		params := make([]int, len(p.Params))
		for i := range params {
			params[i] = val()
		}
		for i := range p.Pardos {
			pd := &p.Pardos[i]
			vals := make([]int, len(pd.Indices))
			for k := range vals {
				vals[k] = val()
			}
			pd.Passes(vals, params, nil)
		}
	})
}
