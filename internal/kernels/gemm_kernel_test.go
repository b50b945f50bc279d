package kernels

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"demystbert/internal/obs"
	"demystbert/internal/tensor"
)

// fmaKernels returns the supported assembly (fused multiply-add) entries
// of the table — every one but the trailing scalar kernel, whose separate
// multiply and add round differently — logging the ones the host lacks.
func fmaKernels(t testing.TB) []*gemmKernel {
	var ks []*gemmKernel
	for i := range kernelTable[:len(kernelTable)-1] {
		if k := &kernelTable[i]; k.supported {
			ks = append(ks, k)
		} else {
			t.Logf("host CPU/OS does not support the %s kernel", k.name)
		}
	}
	return ks
}

// bitwiseOutputs runs every GEMM entry point that reaches the micro-kernel
// on one problem, on route p, and returns the named results (outputs and
// saved epilogue tensors).
func bitwiseOutputs(p GEMMPath, seed uint64, m, n, k int) map[string][]float32 {
	r := tensor.NewRNG(seed)
	out := map[string][]float32{}
	a, b, c0 := randSlice(r, m*k), randSlice(r, k*n), randSlice(r, m*n)
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			c := append([]float32(nil), c0...)
			p.GEMM(ta, tb, m, n, k, 1.25, a, b, 0.5, c)
			out[fmt.Sprintf("GEMM tA=%v tB=%v", ta, tb)] = c
			c = append([]float32(nil), c0...)
			p.GEMMPacked(ta, m, n, k, 1.25, a, PackWeight(tb, n, k, b), 0.5, c)
			out[fmt.Sprintf("GEMMPacked tA=%v tB=%v", ta, tb)] = c
		}
	}
	pb := PackWeight(true, n, k, b)
	for _, kind := range epilogueKinds {
		ep := makeEpilogue(r, kind, m, n, true)
		c := make([]float32, m*n)
		p.GEMMPackedEpilogue(false, m, n, k, 1, a, pb, ep, c)
		out["epilogue "+kind.String()] = c
		out["epilogue "+kind.String()+" X"] = ep.X
		out["epilogue "+kind.String()+" mean"] = ep.Mean
		out["epilogue "+kind.String()+" invstd"] = ep.InvStd
	}
	const batch = 3
	ab, bb, cb := randSlice(r, batch*m*k), randSlice(r, batch*k*n), randSlice(r, batch*m*n)
	p.BatchedGEMM(batch, false, true, m, n, k, 0.5, ab, m*k, bb, k*n, 0.5, cb, m*n)
	out["BatchedGEMM"] = cb
	return out
}

// TestKernelsBitwiseAcrossISAs: gemmKC is the same under every kernel, so
// each C element is the same per-lane FMA fold in the same depth order
// whatever the register tile — the assembly kernels must agree to the
// bit, through every entry point, on full tiles, edge tiles and depth-block
// boundaries, serial and parallel. The forced fused path sends even the
// smallest shapes through the micro-kernel instead of the naive loops.
func TestKernelsBitwiseAcrossISAs(t *testing.T) {
	ks := fmaKernels(t)
	if len(ks) < 2 {
		t.Skipf("need two FMA kernels to compare, host supports %d", len(ks))
	}
	defer SetMaxWorkers(MaxWorkers())
	ms := []int{1, 5, 12, 13, 127, 512}
	ns := []int{1, 31, 32, 33, 768}
	kks := []int{1, 255, 256, 257, 768}
	if testing.Short() || raceEnabled {
		// The race leg is after the parallel drivers, not the arithmetic:
		// edge tiles both ways and the depth-block boundary, at a size
		// its instrumented Go loops finish in seconds.
		ms, ns, kks = []int{1, 13, 127}, []int{31, 33}, []int{255, 257}
	}
	for _, workers := range []int{1, 4} {
		SetMaxWorkers(workers)
		for _, m := range ms {
			for _, n := range ns {
				for _, k := range kks {
					var want map[string][]float32
					for i, kn := range ks {
						var got map[string][]float32
						withKernel(kn, func() { got = bitwiseOutputs(GEMMPathFused, uint64(m*n+k), m, n, k) })
						if i == 0 {
							want = got
							continue
						}
						for name, w := range want {
							g := got[name]
							for j := range w {
								if math.Float32bits(g[j]) != math.Float32bits(w[j]) {
									t.Fatalf("workers=%d %dx%dx%d %s: %s and %s differ at %d: %v vs %v",
										workers, m, n, k, name, kn.name, ks[0].name, j, g[j], w[j])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestVectorPacksMatchGoPacks: the assembly transposing pack must write
// the bytes the portable loops write — packs feed PackCache and the
// bitwise contracts — for both transposing packs, full and short panels,
// and depth counts around the 8-column step. Payloads include NaN bit
// patterns: packB copies weights, it never multiplies them.
func TestVectorPacksMatchGoPacks(t *testing.T) {
	r := tensor.NewRNG(61)
	for _, kn := range fmaKernels(t) {
		goOnly := *kn
		goOnly.packT4 = nil
		for _, rows := range []int{1, 3, 4, kn.mr - 1, kn.mr, kn.nr, 2*kn.nr + 5} {
			for _, kcb := range []int{1, 7, 8, 9, 64, gemmKC} {
				ld := kcb + 3
				src := randSlice(r, rows*ld)
				src[0] = math.Float32frombits(0x7fa00001) // signalling NaN
				src[len(src)-1] = math.Float32frombits(0xffc12345)
				pack := func(k *gemmKernel) (ap, bp []float32) {
					withKernel(k, func() {
						ap = make([]float32, (rows+k.mr-1)/k.mr*k.mr*kcb)
						bp = make([]float32, (rows+k.nr-1)/k.nr*k.nr*kcb)
						packA(false, ap, src, 0, rows, 1, kcb, rows, ld, -1.5, k.mr, false)
						packB(true, bp, src, 0, rows, 1, kcb, rows, ld, k.nr, false)
					})
					return ap, bp
				}
				gotA, gotB := pack(kn)
				wantA, wantB := pack(&goOnly)
				for name, pair := range map[string][2][]float32{"packA": {gotA, wantA}, "packB": {gotB, wantB}} {
					for i := range pair[1] {
						if math.Float32bits(pair[0][i]) != math.Float32bits(pair[1][i]) {
							t.Fatalf("%s %s rows=%d kcb=%d: byte mismatch at %d: %x vs %x", kn.name, name, rows, kcb, i,
								math.Float32bits(pair[0][i]), math.Float32bits(pair[1][i]))
						}
					}
				}
			}
		}
	}
}

// TestCheckKernelRejectsBadGeometry: every table entry passes the init
// check, and an mr that does not divide gemmMC — which would misalign row
// blocks silently — is refused.
func TestCheckKernelRejectsBadGeometry(t *testing.T) {
	for i := range kernelTable {
		if err := checkKernel(&kernelTable[i]); err != nil {
			t.Errorf("table entry rejected: %v", err)
		}
	}
	bad := scalarKernel
	bad.mr = 7 // 120 % 7 != 0
	if err := checkKernel(&bad); err == nil {
		t.Errorf("checkKernel accepted mr=%d against gemmMC=%d", bad.mr, gemmMC)
	}
}

// TestPickKernel: the widest supported entry wins, DEMYSTBERT_NOSIMD
// selects the trailing scalar entry, and a host without AVX-512 gets AVX2.
func TestPickKernel(t *testing.T) {
	table := []gemmKernel{{name: "wide", supported: true}, {name: "narrow", supported: true}, {name: "scalar", supported: true}}
	if got := pickKernel(table, false).name; got != "wide" {
		t.Errorf("picked %s, want wide", got)
	}
	table[0].supported = false
	if got := pickKernel(table, false).name; got != "narrow" {
		t.Errorf("picked %s without the wide ISA, want narrow", got)
	}
	if got := pickKernel(table, true).name; got != "scalar" {
		t.Errorf("picked %s with SIMD disabled, want scalar", got)
	}
}

// TestActiveKernelPublished: the installed kernel is readable from the
// API and from the default registry's /metrics text.
func TestActiveKernelPublished(t *testing.T) {
	k := ActiveKernel()
	if k.Name != activeKernel.name || k.MR != gemmMR || k.NR != gemmNR {
		t.Fatalf("ActiveKernel() = %+v, installed %s %dx%d", k, activeKernel.name, gemmMR, gemmNR)
	}
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\nkernels_gemm_kernel_info{isa=\"") || !strings.Contains(sb.String(), "# TYPE kernels_gemm_kernel_info gauge\n") {
		t.Errorf("kernels_gemm_kernel_info missing or malformed in:\n%s", sb.String())
	}
}

// BenchmarkMicroKernel times each supported micro-kernel on L1-resident
// panels (one depth block, one tile): the per-core compute ceiling the
// blocked engine is built on.
func BenchmarkMicroKernel(b *testing.B) {
	for i := range kernelTable {
		k := &kernelTable[i]
		if !k.supported {
			continue
		}
		b.Run(k.name, func(b *testing.B) {
			r := tensor.NewRNG(62)
			ap, bp, c := randSlice(r, k.mr*gemmKC), randSlice(r, k.nr*gemmKC), make([]float32, k.mr*k.nr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.f32(gemmKC, ap, bp, c, k.nr)
			}
			b.ReportMetric(float64(2*k.mr*k.nr*gemmKC)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkPackPanels times the two transposing packs on one core at
// fc1's shape (activations 512×768 as A, weight 3072×768 as Bᵀ), one
// depth block per call as the engine issues them, under the installed
// kernel and with its vectorised pack removed.
func BenchmarkPackPanels(b *testing.B) {
	r := tensor.NewRNG(63)
	const m, n, k = 512, 3072, 768
	a, w := randSlice(r, m*k), randSlice(r, n*k)
	goOnly := *activeKernel
	goOnly.packT4 = nil
	for _, kn := range []*gemmKernel{activeKernel, &goOnly} {
		name := "vector"
		if kn.packT4 == nil {
			name = "go"
		}
		ap := make([]float32, (m+kn.mr-1)/kn.mr*kn.mr*gemmKC)
		bp := make([]float32, (n+kn.nr-1)/kn.nr*kn.nr*gemmKC)
		run := func(b *testing.B, bytes int, f func()) {
			withKernel(kn, func() {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f()
				}
			})
			b.ReportMetric(float64(bytes)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		}
		b.Run("packA/"+name, func(b *testing.B) {
			run(b, 4*m*gemmKC, func() { packA(false, ap, a, 0, m, gemmKC, gemmKC, m, k, 1, kn.mr, false) })
		})
		b.Run("packB/"+name, func(b *testing.B) {
			run(b, 4*n*gemmKC, func() { packB(true, bp, w, 0, n, gemmKC, gemmKC, n, k, kn.nr, false) })
		})
	}
}
