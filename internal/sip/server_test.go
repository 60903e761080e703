package sip

import (
	"os"
	"testing"

	"repro/internal/block"
	"repro/internal/bytecode"
	"repro/internal/compiler"
)

const tinySrvProgram = `
sial tiny_srv
param n = 4
aoindex I = 1, n
aoindex J = 1, n
served S(I,J)
temp one(I,J)
pardo I, J
  one(I,J) = 1.0
  prepare S(I,J) += one(I,J)
endpardo
server_barrier
endsial
`

// testIOServer builds an ioServer against a real program layout but
// without running any ranks, so cache mechanics can be driven directly.
func testIOServer(t *testing.T, capacity int) *ioServer {
	t.Helper()
	prog, err := compiler.CompileSource(tinySrvProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1, Servers: 1, Seg: bytecode.DefaultSegConfig(2), ScratchDir: t.TempDir()}
	rt, err := newRuntime(prog, cfg, nil, batch(cfg))
	if err != nil {
		t.Fatal(err)
	}
	s := newIOServer(rt, 2)
	s.capacity = capacity
	if err := os.MkdirAll(s.dir, 0o755); err != nil { // run() normally does this
		t.Fatal(err)
	}
	return s
}

// testDims resolves a block's dims, failing the test on error.
func testDims(t *testing.T, s *ioServer, k blockKey) []int {
	t.Helper()
	dims, err := s.blockDims(k)
	if err != nil {
		t.Fatal(err)
	}
	return dims
}

// TestServerInsertPinsNewEntry: with a degenerate capacity the eviction
// loop must never evict the entry insert just added — the accumulate
// path dereferences s.entries[k] right after fetch, and evicting the
// fresh entry used to make that a nil-map lookup panic.
func TestServerInsertPinsNewEntry(t *testing.T) {
	s := testIOServer(t, 0)
	k := blockKey{arr: s.rt.prog.ArrayID("S"), ord: 0}
	dims := testDims(t, s, k)

	one := block.New(dims...)
	one.Fill(1)
	if err := s.apply(k, one.Clone(), true); err != nil {
		t.Fatal(err)
	}
	if err := s.apply(k, one.Clone(), true); err != nil {
		t.Fatal(err)
	}
	e, ok := s.entries[k]
	if !ok {
		t.Fatal("freshly accumulated entry was evicted")
	}
	if got := e.b.Data()[0]; got != 2 {
		t.Fatalf("accumulated value %g, want 2", got)
	}
}

// TestServerTinyCacheSpills: capacity 1 with two distinct blocks must
// keep exactly the most recent entry and spill the other to disk without
// losing data.
func TestServerTinyCacheSpills(t *testing.T) {
	s := testIOServer(t, 1)
	arr := s.rt.prog.ArrayID("S")
	k0 := blockKey{arr: arr, ord: 0}
	k1 := blockKey{arr: arr, ord: 1}
	mk := func(k blockKey, v float64) *block.Block {
		b := block.New(testDims(t, s, k)...)
		b.Fill(v)
		return b
	}
	if err := s.apply(k0, mk(k0, 3), false); err != nil {
		t.Fatal(err)
	}
	if err := s.apply(k1, mk(k1, 4), false); err != nil {
		t.Fatal(err)
	}
	if len(s.entries) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(s.entries))
	}
	if !s.onDisk[k0] {
		t.Fatal("evicted dirty block was not written to disk")
	}
	b0, err := s.fetch(k0)
	if err != nil {
		t.Fatal(err)
	}
	if got := b0.Data()[0]; got != 3 {
		t.Fatalf("refetched spilled block value %g, want 3", got)
	}
}

// TestConfigClampsServerCacheBlocks: fill must reject degenerate cache
// capacities that would make insert evict its own entry.
func TestConfigClampsServerCacheBlocks(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1024},
		{-1, 1},
		{-100, 1},
		{7, 7},
	} {
		cfg := Config{Workers: 1, ServerCacheBlocks: tc.in}
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}
		if cfg.ServerCacheBlocks != tc.want {
			t.Errorf("fill(ServerCacheBlocks=%d) = %d, want %d", tc.in, cfg.ServerCacheBlocks, tc.want)
		}
	}
}

// TestServedAccumulateTinyCache runs a full accumulate program through a
// server whose cache is clamped to a single block, forcing constant
// spill/refetch through the accumulate path that used to panic.
func TestServedAccumulateTinyCache(t *testing.T) {
	cfg := Config{
		Workers:           2,
		Servers:           1,
		Seg:               bytecode.DefaultSegConfig(2),
		ServerCacheBlocks: -1, // clamped to 1
		GatherArrays:      true,
	}
	res, err := RunSource(tinySrvProgram, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, layout := layoutFor(t, tinySrvProgram, cfg)
	s := dense(t, layout.Shapes[prog.ArrayID("S")], res.Served["S"])
	for i, v := range s {
		if v != 1 {
			t.Fatalf("S[%d] = %g, want 1", i, v)
		}
	}
}
