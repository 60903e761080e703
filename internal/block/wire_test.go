package block

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/wire"
)

func roundTrip(t *testing.T, b *Block) *Block {
	t.Helper()
	got, err := wire.Decode(wire.Encode(b))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	out, ok := got.(*Block)
	if !ok {
		t.Fatalf("decoded %T, want *Block", got)
	}
	return out
}

func TestWireRoundTrip(t *testing.T) {
	b := New(3, 2)
	for i := range b.Data() {
		b.Data()[i] = float64(i) * 1.25
	}
	out := roundTrip(t, b)
	if !reflect.DeepEqual(out.Dims(), b.Dims()) || !reflect.DeepEqual(out.Data(), b.Data()) {
		t.Fatalf("round trip: dims %v data %v", out.Dims(), out.Data())
	}
}

func TestWireRoundTripRankZero(t *testing.T) {
	// A rank-0 (scalar) block: zero dims, one element.
	b := New()
	b.Data()[0] = math.Pi
	out := roundTrip(t, b)
	if out.Rank() != 0 || out.Size() != 1 || out.Data()[0] != math.Pi {
		t.Fatalf("rank-0 round trip: rank %d size %d data %v", out.Rank(), out.Size(), out.Data())
	}
}

func TestWireRoundTripMaxRank(t *testing.T) {
	// Rank 6 is the largest block shape SIAL programs produce
	// (paper §IV: up to six-index arrays).
	b := New(2, 3, 2, 1, 2, 3)
	for i := range b.Data() {
		b.Data()[i] = -float64(i)
	}
	out := roundTrip(t, b)
	if !reflect.DeepEqual(out.Dims(), []int{2, 3, 2, 1, 2, 3}) {
		t.Fatalf("dims = %v", out.Dims())
	}
	if !reflect.DeepEqual(out.Data(), b.Data()) {
		t.Fatal("data mismatch after round trip")
	}
}

func TestWireDecodeRejectsMalformed(t *testing.T) {
	// Data length inconsistent with dims.
	e := wire.NewEncoder(0)
	e.Byte(WireID)
	e.Ints([]int{2, 2})
	e.Float64s([]float64{1, 2, 3}) // want 4
	if _, err := wire.Decode(e.Bytes()); err == nil {
		t.Error("dims/data mismatch decoded without error")
	}
	// Non-positive dimension.
	e = wire.NewEncoder(0)
	e.Byte(WireID)
	e.Ints([]int{2, -2})
	e.Float64s(nil)
	if _, err := wire.Decode(e.Bytes()); err == nil {
		t.Error("negative dimension decoded without error")
	}
	// Truncated payload.
	buf := wire.Encode(New(4, 4))
	if _, err := wire.Decode(buf[:len(buf)-5]); err == nil {
		t.Error("truncated block decoded without error")
	}
}

func TestWireDecodeAllocations(t *testing.T) {
	skipUnderRace(t)
	drain()
	decoder := func(b *Block) func() *Block {
		buf := wire.Encode(b)
		var d wire.Decoder
		return func() *Block {
			d.Reset(buf)
			d.Byte() // the wire type id
			out := DecodeWire(&d)
			if out == nil {
				t.Fatal(d.Err())
			}
			return out
		}
	}
	// A shape nothing gave back costs what New does: the header, which
	// holds the dims, and the data.
	fresh := decoder(New(4, 4, 4, 5))
	if n := testing.AllocsPerRun(10, func() { fresh() }); n != 2 {
		t.Errorf("DecodeWire of a fresh shape: %v allocations, want 2", n)
	}
	// A shape whose block was Put decodes into that block.
	recycled := decoder(New(4, 4, 4, 4))
	if n := testing.AllocsPerRun(10, func() { Put(recycled()) }); n != 0 {
		t.Errorf("DecodeWire of a recycled shape: %v allocations, want 0", n)
	}
}

// TestWireDecodeHostileDims: a frame whose dims claim a huge block but
// whose payload holds two elements fails before the allocator is asked
// for a block, whether its element count claims the huge block too or
// matches the payload.
func TestWireDecodeHostileDims(t *testing.T) {
	for _, count := range []uint64{1 << 40, 2} {
		e := wire.NewEncoder(0)
		e.Byte(WireID)
		e.Ints([]int{1 << 20, 1 << 20})
		e.Uvarint(count)
		e.Float64(1)
		e.Float64(2) // 16 bytes of payload
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := wire.Decode(e.Bytes())
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("count %d: a 2^40-element block decoded from 16 bytes", count)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("count %d: decoding the frame allocated %d bytes", count, n)
		}
	}
}
