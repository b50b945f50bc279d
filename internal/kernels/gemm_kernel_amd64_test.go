//go:build amd64

package kernels

import "testing"

// TestCPUFeatures table-tests the feature decision on synthetic registers:
// the instructions must be in CPUID and the register state they use must
// be enabled in XCR0, or the next narrower kernel is chosen.
func TestCPUFeatures(t *testing.T) {
	const leaf1 = cpuFMA | cpuOSXSAVE
	for _, tc := range []struct {
		name             string
		r                cpuRegs
		avx2fma, avx512f bool
	}{
		{"sapphire rapids", cpuRegs{0x20, leaf1, cpuAVX2 | cpuAVX512F, 0xE7}, true, true},
		{"haswell", cpuRegs{0xd, leaf1, cpuAVX2, 0x7}, true, false},
		{"avx512 cpu, zmm state off in xcr0", cpuRegs{0x20, leaf1, cpuAVX2 | cpuAVX512F, 0x7}, true, false},
		{"avx512 cpu, opmask state only", cpuRegs{0x20, leaf1, cpuAVX2 | cpuAVX512F, 0x27}, true, false},
		{"osxsave clear", cpuRegs{0x20, cpuFMA, cpuAVX2 | cpuAVX512F, 0}, false, false},
		{"ymm state off in xcr0", cpuRegs{0x20, leaf1, cpuAVX2 | cpuAVX512F, 0x3}, false, false},
		{"no fma", cpuRegs{0x20, cpuOSXSAVE, cpuAVX2, 0x7}, false, false},
		{"no avx2", cpuRegs{0xd, leaf1, 0, 0x7}, false, false},
		{"leaf 7 absent", cpuRegs{0x6, leaf1, cpuAVX2, 0x7}, false, false},
		{"avx512f without avx2", cpuRegs{0x20, leaf1, cpuAVX512F, 0xE7}, false, false},
	} {
		avx2fma, avx512f := cpuFeatures(tc.r)
		if avx2fma != tc.avx2fma || avx512f != tc.avx512f {
			t.Errorf("%s: cpuFeatures(%+v) = avx2fma %v avx512f %v, want %v %v",
				tc.name, tc.r, avx2fma, avx512f, tc.avx2fma, tc.avx512f)
		}
	}
	// The host's own registers must agree with what the table was built
	// from.
	avx2fma, avx512f := cpuFeatures(readCPU())
	if kernelTable[0].supported != avx512f || kernelTable[1].supported != avx2fma {
		t.Errorf("kernel table (avx512 %v, avx2 %v) disagrees with the CPU probe (%v, %v)",
			kernelTable[0].supported, kernelTable[1].supported, avx512f, avx2fma)
	}
}
