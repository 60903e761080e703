package bytecode

// A worker keeps the blocks it owns (temp, local and static arrays) under
// one word, the array id and the block ordinal packed by LocalBlock: the
// job is the worker's own, and a map keyed by one word hashes on Go's
// fast path.  Resolve refuses a layout with more arrays or an array with
// more blocks than the packing holds, so no two blocks share a word.
const (
	ordBits = 48
	// MaxArrays is the most arrays a program may declare.
	MaxArrays = 1 << (64 - ordBits)
	// MaxBlocks is the most blocks one array may have.
	MaxBlocks = 1 << ordBits
)

// LocalKey is one block of a worker's own arrays (see LocalBlock).
type LocalKey uint64

// LocalBlock packs an array id and a block ordinal into a LocalKey.
func LocalBlock(arr, ord int) LocalKey { return LocalKey(arr)<<ordBits | LocalKey(ord) }
