package linalg

// kernelAVX2 is the 4×8 kernel contract (see kernel) in AVX2 assembly
// (kernel_amd64.s).
//
//go:noescape
func kernelAVX2(kc int, a, b, c []float64, ldc int)

// kernelAVX512 is the 4×16 kernel contract in AVX-512 assembly.
//
//go:noescape
func kernelAVX512(kc int, a, b, c []float64, ldc int)

// cpuid executes CPUID with the given EAX and ECX.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0.
func xgetbv0() (eax, edx uint32)

// init puts the assembly kernels this CPU and OS support in front of the
// portable one, widest first.  The AVX2 kernel keeps the name "asm" it
// had while it was the only assembly kernel, so test and benchmark names
// compare across commits.
func init() {
	avx2, avx512 := hostVectors()
	if avx2 {
		kernels = append([]kernel{{name: "asm", mr: 4, nr: 8, fn: kernelAVX2}}, kernels...)
	}
	if avx512 {
		kernels = append([]kernel{{name: "avx512", mr: 4, nr: 16, fn: kernelAVX512}}, kernels...)
	}
}

// hostVectors reports whether the CPU implements AVX2 and AVX-512F and
// the OS saves the registers each of them uses across context switches:
// the XMM and YMM state for AVX2, those and the opmask and ZMM state for
// AVX-512.
func hostVectors() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false
	}
	xcr0, _ := xgetbv0()
	_, ebx7, _, _ := cpuid(7, 0)
	const ymmState, zmmState = 0x06, 0xE6 // XCR0: XMM|YMM, and opmask|ZMM_Hi256|Hi16_ZMM
	const avx2Bit, avx512fBit = 1 << 5, 1 << 16
	avx2 = xcr0&ymmState == ymmState && ebx7&avx2Bit != 0
	avx512 = xcr0&zmmState == zmmState && ebx7&avx512fBit != 0
	return avx2, avx512
}
