// The fuzz target lives in an external test package so it can import
// the packages that register codecs (block, mpi, sip) without an
// import cycle: their init functions both install the codecs and
// record the corpus samples the fuzzer seeds from.
package wire_test

import (
	"fmt"
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

// wireIDs is the ledger of every wire id ever shipped.  Snapshot
// manifests and blocks_to_list files embed ids, and every rank of a run
// must agree on them, so an id keeps its type for good: a live id maps to
// the Go type its codec decodes (the %T of its corpus sample), and a
// retired id is never registered again.
var wireIDs = map[byte]string{
	wire.IDString:  "string",
	wire.IDFloat64: "float64",
	wire.IDInt:     "int",
	wire.IDBool:    "bool",
	8:              "*block.Block",
	18:             "mpi.poisonMsg",
	19:             "mpi.heartbeatMsg",
	20:             "mpi.evictNotice",
	21:             "mpi.byeNotice",
	22:             "mpi.clockPing",
	23:             "mpi.clockPong",
	24:             "mpi.joinNotice",
	32:             "sip.getMsg",
	33:             "sip.putMsg",
	34:             "sip.flushMsg",
	35:             "sip.shutdownMsg",
	36:             "sip.chunkMsg",
	37:             "sip.chunkReply",
	38:             "sip.doneMsg",
	40:             "sip.ckptData",
	41:             "sip.gatherMsg",
	42:             "sip.ackMsg",
	43:             "sip.syncMsg",
	44:             "sip.syncReply",
	45:             "sip.rereplicateMsg",
	46:             "sip.rereplicateAck",
	47:             "sip.replPutMsg",
	48:             "sip.replAckMsg",
	49:             "sip.obsReportMsg",
	51:             "sip.ckptManifest",
}

// retiredWireIDs are the ids whose types are gone, each with the change
// that retired it.  None may be reused.
var retiredWireIDs = map[byte]string{
	16: "mpi groupContrib: mpi.Group deleted, barriers are master-mediated sync rounds",
	17: "mpi groupResult: mpi.Group deleted, barriers are master-mediated sync rounds",
	39: "sip ckptMsg: blocks_to_list and list_to_blocks became sync-round kinds",
	50: "sip jobStartMsg: never sent, deleted",
}

// TestWireIDLedger fails when a registered id is missing from the
// ledger, decodes to another type than the ledger says, or was retired,
// and when a live ledger id is no longer registered (retire it instead).
func TestWireIDLedger(t *testing.T) {
	decoded := map[byte]string{}
	for _, seed := range wire.Corpus() {
		v, err := wire.Decode(seed)
		if err != nil {
			t.Fatalf("corpus sample of id %d: %v", seed[0], err)
		}
		decoded[seed[0]] = fmt.Sprintf("%T", v)
	}
	registered := map[byte]bool{}
	for _, id := range wire.RegisteredIDs() {
		registered[id] = true
		if why, ok := retiredWireIDs[id]; ok {
			t.Errorf("wire id %d is registered (%s) but was retired (%s)", id, decoded[id], why)
			continue
		}
		want, ok := wireIDs[id]
		switch {
		case !ok:
			t.Errorf("wire id %d (%s) is not in the ledger", id, decoded[id])
		case decoded[id] != want:
			t.Errorf("wire id %d decodes to %s, the ledger says %s", id, decoded[id], want)
		}
	}
	for id, typ := range wireIDs {
		if !registered[id] {
			t.Errorf("ledger id %d (%s) is no longer registered: list it as retired", id, typ)
		}
		if _, ok := retiredWireIDs[id]; ok {
			t.Errorf("wire id %d is both live and retired", id)
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
