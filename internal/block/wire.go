package block

import (
	"math"
	"slices"

	"repro/internal/wire"
)

// WireID is the wire type id of *Block (see the id blocks in
// internal/wire).
const WireID = 8

// EncodeWire appends the block's wire form: dims as a length-prefixed
// int slice, then the row-major data.  A rank-0 block encodes as zero
// dims plus its single element.
func (b *Block) EncodeWire(e *wire.Encoder) {
	e.Ints(b.dims)
	e.Float64s(b.data)
}

// WireSizeHint implements wire.SizeHinter: the fixed 8-byte floats
// dominate, plus varint dims and a little framing slack.
func (b *Block) WireSizeHint() int {
	return 16 + 10*len(b.dims) + 8*len(b.data)
}

// DecodeWire reads a block previously written by EncodeWire.  It
// returns nil (latching an error on d) when the payload is malformed.
// The block comes from the allocator, and only once its dims and element
// count are checked against each other and against the bytes the frame
// holds: a hostile frame never makes the allocator build a large block.
func DecodeWire(d *wire.Decoder) *Block {
	var buf [maxRank]int
	dims := d.AppendInts(buf[:0])
	n := 1
	for _, v := range dims {
		// Reject non-positive and product-overflowing dims: a wrapped
		// product could collide with the element count and admit a block
		// whose Size() lies about its storage.
		if v <= 0 || n > math.MaxInt/v {
			d.Fail("block: bad dimensions %v", slices.Clone(dims))
			return nil
		}
		n *= v
	}
	count := d.Float64sLen()
	if d.Err() != nil {
		return nil
	}
	if count != n {
		d.Fail("block: %d data elements for dims %v (want %d)", count, slices.Clone(dims), n)
		return nil
	}
	b := Get(dims...)
	d.Float64sInto(b.data)
	return b
}

func init() {
	wire.Register(WireID, func(e *wire.Encoder, b *Block) { b.EncodeWire(e) }, DecodeWire)
	wire.Sample(FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3))
}
