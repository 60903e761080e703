// Package wire is the binary codec used by the network transport: a
// compact, allocation-conscious encoding for the values the SIP sends
// between ranks (messages, blocks, collective traffic).
//
// Values are encoded as a one-byte type id followed by a type-specific
// body.  Each payload type registers an id plus encode/decode functions
// (Register); the envelope functions Encode/Decode and Encoder.Any /
// Decoder.Any dispatch through the registry.  Integers use zigzag
// varints, float64s are fixed 8-byte little-endian (bit-exact round
// trips), and slices are length-prefixed.
//
// Registration must happen during package initialization: the registry
// is read without locking afterwards.  Ids are allocated statically —
// see the id constants of the registering packages — and a duplicate
// registration panics, so collisions surface at process start.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
)

// Encoder appends wire-encoded primitives to a growing buffer.
// Methods never fail; the buffer is complete when the caller is done.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer.  The slice aliases the encoder's
// internal storage; it is valid until the next Reset.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the buffer, keeping its capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends a signed integer as a zigzag varint.
func (e *Encoder) Int(v int) { e.buf = binary.AppendVarint(e.buf, int64(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Float64 appends a float64 as 8 little-endian bytes (bit-exact).
func (e *Encoder) Float64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Ints appends a length-prefixed []int.
func (e *Encoder) Ints(v []int) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}

// IntSlices appends a length-prefixed [][]int.
func (e *Encoder) IntSlices(v [][]int) {
	e.Uvarint(uint64(len(v)))
	for _, s := range v {
		e.Ints(s)
	}
}

// Float64s appends a length-prefixed []float64 in bulk.
func (e *Encoder) Float64s(v []float64) {
	e.Uvarint(uint64(len(v)))
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, 8*len(v))...)
	for i, f := range v {
		binary.LittleEndian.PutUint64(e.buf[off+8*i:], math.Float64bits(f))
	}
}

// Any appends a registered value as id + body.  It panics on an
// unregistered type: sending an unencodable value over the network is a
// programming error caught in tests, not a runtime condition.
func (e *Encoder) Any(v any) {
	ent, ok := byType[reflect.TypeOf(v)]
	if !ok {
		panic(fmt.Sprintf("wire: unregistered type %T", v))
	}
	e.Byte(ent.id)
	ent.enc(e, v)
}

// Encode wire-encodes one registered value, into a buffer sized from its
// SizeHint.
func Encode(v any) []byte {
	e := NewEncoder(SizeHint(v, 64))
	e.Any(v)
	return e.Bytes()
}

// Decoder reads wire-encoded primitives from a buffer.  The first
// malformed read latches an error; subsequent reads return zero values,
// so decode sequences can run unchecked and test Err once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset rearms the decoder to read buf from the start, clearing any
// latched error, so one decoder can be reused across many frames (the
// transport read loop does this to keep its hot path allocation-free).
func (d *Decoder) Reset(buf []byte) {
	d.buf = buf
	d.off = 0
	d.err = nil
}

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Fail latches a decoding error.  Codec implementations use it to
// reject structurally valid but semantically malformed payloads.
func (d *Decoder) Fail(format string, args ...any) { d.fail(format, args...) }

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("truncated byte at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag varint.
func (d *Decoder) Int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return int(v)
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Float64 reads a fixed 8-byte float64.
func (d *Decoder) Float64() float64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("truncated float64 at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	// Compare in uint64 space: converting a hostile length to int first
	// can go negative and index the buffer backwards.
	if d.err != nil || n > uint64(d.Remaining()) {
		d.fail("truncated string of %d bytes at offset %d", n, d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Ints reads a length-prefixed []int.  A zero length yields nil.
func (d *Decoder) Ints() []int { return d.AppendInts(nil) }

// AppendInts reads a length-prefixed []int onto dst, so a caller with
// room for it reads it without allocating.
func (d *Decoder) AppendInts(dst []int) []int {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return dst
	}
	if n > uint64(d.Remaining()) { // each element is >= 1 byte
		d.fail("int slice length %d exceeds remaining %d bytes", n, d.Remaining())
		return dst
	}
	dst = slices.Grow(dst, int(n))
	for range n {
		dst = append(dst, d.Int())
	}
	return dst
}

// IntSlices reads a length-prefixed [][]int.
func (d *Decoder) IntSlices() [][]int {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("slice-of-slices length %d exceeds remaining %d bytes", n, d.Remaining())
		return nil
	}
	v := make([][]int, n)
	for i := range v {
		v[i] = d.Ints()
	}
	return v
}

// Float64s reads a length-prefixed []float64.  A zero length yields nil.
func (d *Decoder) Float64s() []float64 {
	if n := d.Float64sLen(); n > 0 {
		v := make([]float64, n)
		d.Float64sInto(v)
		return v
	}
	return nil
}

// Float64sLen reads the length prefix of a []float64, failing (and
// returning 0) when that many elements do not fit in the rest of the
// buffer, so a caller can size storage for them before reading them
// with Float64sInto.
func (d *Decoder) Float64sLen() int {
	n := d.Uvarint()
	// Divide rather than multiply: 8*n wraps for n >= 2^61, letting a
	// hostile length through to make() and OOM-panicking the rank.
	if d.err == nil && n > uint64(d.Remaining())/8 {
		d.fail("float slice length %d exceeds remaining %d bytes", n, d.Remaining())
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Float64sInto reads len(dst) float64s, the elements that follow a
// Float64sLen, into dst.
func (d *Decoder) Float64sInto(dst []float64) {
	if d.err != nil || len(dst) > d.Remaining()/8 {
		d.fail("truncated float slice of %d elements at offset %d", len(dst), d.off)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off+8*i:]))
	}
	d.off += 8 * len(dst)
}

// Any reads one registered value (id + body).
func (d *Decoder) Any() any {
	id := d.Byte()
	if d.err != nil {
		return nil
	}
	ent := byID[id]
	if ent == nil {
		d.fail("unregistered type id %d", id)
		return nil
	}
	return ent.dec(d)
}

// Decode wire-decodes one registered value from buf.
func Decode(buf []byte) (any, error) {
	d := NewDecoder(buf)
	v := d.Any()
	if d.err != nil {
		return nil, d.err
	}
	return v, nil
}

// ---------------------------------------------------------------------
// Type registry

type entry struct {
	id  byte
	enc func(*Encoder, any)
	dec func(*Decoder) any
}

var (
	regMu  sync.Mutex
	byType = map[reflect.Type]*entry{}
	byID   [256]*entry
)

// Register installs the codec for one payload type under a static wire
// id.  It must be called from package init functions only; duplicate
// ids or types panic.
func Register[T any](id byte, enc func(*Encoder, T), dec func(*Decoder) T) {
	regMu.Lock()
	defer regMu.Unlock()
	var zero T
	t := reflect.TypeOf(zero)
	if t == nil {
		panic("wire: cannot register interface type")
	}
	if byID[id] != nil {
		panic(fmt.Sprintf("wire: id %d registered twice", id))
	}
	if _, ok := byType[t]; ok {
		panic(fmt.Sprintf("wire: type %v registered twice", t))
	}
	ent := &entry{
		id:  id,
		enc: func(e *Encoder, v any) { enc(e, v.(T)) },
		dec: func(d *Decoder) any { return dec(d) },
	}
	byType[t] = ent
	byID[id] = ent
}

// Registered reports whether a codec exists for v's type.
func Registered(v any) bool {
	_, ok := byType[reflect.TypeOf(v)]
	return ok
}

// RegisteredIDs returns the wire ids with an installed codec, for
// registry-coverage checks in tests.
func RegisteredIDs() []byte {
	regMu.Lock()
	defer regMu.Unlock()
	var ids []byte
	for i, ent := range byID {
		if ent != nil {
			ids = append(ids, byte(i))
		}
	}
	return ids
}

// samples holds one encoded example per registered payload type,
// collected at init time; the FuzzDecode seed corpus starts from them
// so every codec's happy path is in the fuzzer's ancestry.
var samples [][]byte

// Sample records an encoded example of a registered value for the fuzz
// seed corpus.  Like Register it must be called from package init
// functions only, after the value's type is registered.
func Sample(v any) {
	regMu.Lock()
	defer regMu.Unlock()
	samples = append(samples, Encode(v))
}

// Corpus returns the encoded samples recorded by Sample.
func Corpus() [][]byte {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([][]byte, len(samples))
	copy(out, samples)
	return out
}

// SizeHinter is an optional payload capability: types that know their
// approximate encoded size report it, so transports can size pooled
// encoders before the first append instead of growing incrementally.
type SizeHinter interface {
	// WireSizeHint returns an upper-ish estimate of the encoded size in
	// bytes.  It need not be exact; a good hint avoids buffer regrowth.
	WireSizeHint() int
}

// SizeHint returns v's encoded-size estimate, or fallback when v does
// not implement SizeHinter (or reports something smaller).
func SizeHint(v any, fallback int) int {
	if h, ok := v.(SizeHinter); ok {
		if n := h.WireSizeHint(); n > fallback {
			return n
		}
	}
	return fallback
}

// Wire ids of the basic types registered by this package.  Packages
// registering their own payloads use the id blocks noted here:
//
//	1..7    basics (this package)
//	8..15   internal/block
//	16..31  internal/mpi (collective traffic)
//	32..63  internal/sip (SIP message types)
const (
	IDString  = 1
	IDFloat64 = 2
	IDInt     = 3
	IDBool    = 4
)

func init() {
	Register(IDString, (*Encoder).String, (*Decoder).String)
	Register(IDFloat64, (*Encoder).Float64, (*Decoder).Float64)
	Register(IDInt, (*Encoder).Int, (*Decoder).Int)
	Register(IDBool, (*Encoder).Bool, (*Decoder).Bool)
	Sample("corpus")
	Sample(3.5)
	Sample(-42)
	Sample(true)
}
