//go:build amd64

package kernels

import "testing"

// TestCPUFeatures table-tests the feature decision on synthetic registers:
// the instructions must be in CPUID and the register state they use must
// be enabled in XCR0, or the next narrower kernel is chosen.
func TestCPUFeatures(t *testing.T) {
	const leaf1 = cpuFMA | cpuOSXSAVE
	const all512 = cpuAVX512F | cpuAVX512DQ | cpuAVX512VL
	for _, tc := range []struct {
		name            string
		r               cpuRegs
		avx2fma, avx512 bool
	}{
		{"sapphire rapids", cpuRegs{0x20, leaf1, cpuAVX2 | all512, 0xE7}, true, true},
		{"haswell", cpuRegs{0xd, leaf1, cpuAVX2, 0x7}, true, false},
		{"avx512 cpu, zmm state off in xcr0", cpuRegs{0x20, leaf1, cpuAVX2 | all512, 0x7}, true, false},
		{"avx512 cpu, opmask state only", cpuRegs{0x20, leaf1, cpuAVX2 | all512, 0x27}, true, false},
		{"osxsave clear", cpuRegs{0x20, cpuFMA, cpuAVX2 | all512, 0}, false, false},
		{"ymm state off in xcr0", cpuRegs{0x20, leaf1, cpuAVX2 | all512, 0x3}, false, false},
		{"no fma", cpuRegs{0x20, cpuOSXSAVE, cpuAVX2, 0x7}, false, false},
		{"no avx2", cpuRegs{0xd, leaf1, 0, 0x7}, false, false},
		{"leaf 7 absent", cpuRegs{0x6, leaf1, cpuAVX2, 0x7}, false, false},
		{"avx512 without avx2", cpuRegs{0x20, leaf1, all512, 0xE7}, false, false},
		// Knights Landing/Mill: F (with CD/ER/PF) but neither DQ nor VL.
		{"F without DQ/VL", cpuRegs{0x20, leaf1, cpuAVX2 | cpuAVX512F, 0xE7}, true, false},
		{"F and DQ without VL", cpuRegs{0x20, leaf1, cpuAVX2 | cpuAVX512F | cpuAVX512DQ, 0xE7}, true, false},
		{"F and VL without DQ", cpuRegs{0x20, leaf1, cpuAVX2 | cpuAVX512F | cpuAVX512VL, 0xE7}, true, false},
	} {
		avx2fma, avx512 := cpuFeatures(tc.r)
		if avx2fma != tc.avx2fma || avx512 != tc.avx512 {
			t.Errorf("%s: cpuFeatures(%+v) = avx2fma %v avx512 %v, want %v %v",
				tc.name, tc.r, avx2fma, avx512, tc.avx2fma, tc.avx512)
		}
	}
	// The host's own registers must agree with what the table was built
	// from.
	avx2fma, avx512 := cpuFeatures(readCPU())
	if kernelTable[0].supported != avx512 || kernelTable[1].supported != avx2fma {
		t.Errorf("kernel table (avx512 %v, avx2 %v) disagrees with the CPU probe (%v, %v)",
			kernelTable[0].supported, kernelTable[1].supported, avx512, avx2fma)
	}
}
