// The fuzz target lives in an external test package so it can import
// the packages that register codecs (block, mpi, sip) without an
// import cycle: their init functions both install the codecs and
// record the corpus samples the fuzzer seeds from.
package wire_test

import (
	"testing"

	_ "repro/internal/block"
	_ "repro/internal/mpi"
	_ "repro/internal/sip"
	"repro/internal/wire"
)

// TestCorpusCoversRegistry keeps the seed corpus honest: every
// registered wire id must contribute at least one sample, so a new
// codec cannot land without joining the fuzzer's ancestry.
func TestCorpusCoversRegistry(t *testing.T) {
	have := map[byte]bool{}
	for _, seed := range wire.Corpus() {
		if len(seed) > 0 {
			have[seed[0]] = true
		}
	}
	for _, id := range wire.RegisteredIDs() {
		if !have[id] {
			t.Errorf("no corpus sample for wire id %d", id)
		}
	}
}

// TestCorpusRoundTrips decodes every seed and re-encodes the result,
// pinning the happy path the fuzzer mutates away from.
func TestCorpusRoundTrips(t *testing.T) {
	for i, seed := range wire.Corpus() {
		v, err := wire.Decode(seed)
		if err != nil {
			t.Fatalf("corpus[%d] (id %d): %v", i, seed[0], err)
		}
		if buf := wire.Encode(v); len(buf) == 0 {
			t.Fatalf("corpus[%d] (id %d): empty re-encode", i, seed[0])
		}
	}
}

// FuzzDecode throws mutated frames at the full codec registry.  The
// invariant: Decode either fails cleanly or yields a value that can be
// re-encoded and re-decoded — never a panic, never an OOM from a
// hostile length prefix (the bug class of the wrapped Float64s guard).
func FuzzDecode(f *testing.F) {
	for _, seed := range wire.Corpus() {
		f.Add(seed)
	}
	// A few hand-built hostile frames: wrapped and huge length prefixes.
	for _, n := range []uint64{1 << 61, 1 << 50, 1<<64 - 1} {
		e := wire.NewEncoder(16)
		e.Byte(8) // block id: dims + float64s, both length-prefixed
		e.Uvarint(n)
		f.Add(e.Bytes())
	}
	// And a rank list (mpi bye notice, id 21) claiming far more entries
	// than the frame holds.
	e := wire.NewEncoder(16)
	e.Byte(21)
	e.Int(1 << 40)
	f.Add(e.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wire.Decode(data)
		if err != nil {
			return
		}
		buf := wire.Encode(v)
		if _, err := wire.Decode(buf); err != nil {
			t.Fatalf("re-decode of re-encoded %T failed: %v", v, err)
		}
	})
}
