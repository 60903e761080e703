package linalg

// kernelAVX2 is the micro-kernel contract of microKernel in AVX2
// assembly (kernel_amd64.s).
//
//go:noescape
func kernelAVX2(kc int, a, b, c []float64, ldc int)

// cpuid executes CPUID with the given EAX and ECX.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0.
func xgetbv0() (eax, edx uint32)

func init() {
	if hasAVX2() {
		kernelAsm = kernelAVX2
		microKernel = kernelAVX2
	}
}

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
