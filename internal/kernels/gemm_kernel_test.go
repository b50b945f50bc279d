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
func bitwiseOutputs(p GEMMPath, pool *Pool, seed uint64, m, n, k int) map[string][]float32 {
	r := tensor.NewRNG(seed)
	out := map[string][]float32{}
	a, b, c0 := randSlice(r, m*k), randSlice(r, k*n), randSlice(r, m*n)
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			c := append([]float32(nil), c0...)
			p.GEMM(pool, ta, tb, m, n, k, 1.25, a, b, 0.5, c)
			out[fmt.Sprintf("GEMM tA=%v tB=%v", ta, tb)] = c
			c = append([]float32(nil), c0...)
			p.GEMMPacked(pool, ta, m, n, k, 1.25, a, packWeight(pool, tb, n, k, b), 0.5, c)
			out[fmt.Sprintf("GEMMPacked tA=%v tB=%v", ta, tb)] = c
		}
	}
	pb := packWeight(pool, true, n, k, b)
	for _, kind := range epilogueKinds {
		ep := makeEpilogue(r, kind, m, n, true)
		c := make([]float32, m*n)
		p.GEMMPackedEpilogue(pool, false, m, n, k, 1, a, pb, ep, c)
		out["epilogue "+kind.String()] = c
		out["epilogue "+kind.String()+" X"] = ep.X
		out["epilogue "+kind.String()+" mean"] = ep.Mean
		out["epilogue "+kind.String()+" invstd"] = ep.InvStd
	}
	const batch = 3
	ab, bb, cb := randSlice(r, batch*m*k), randSlice(r, batch*k*n), randSlice(r, batch*m*n)
	p.BatchedGEMM(pool, batch, false, true, m, n, k, 0.5, ab, m*k, bb, k*n, 0.5, cb, m*n)
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
		pool := poolOf(workers)
		for _, m := range ms {
			for _, n := range ns {
				for _, k := range kks {
					var want map[string][]float32
					for i, kn := range ks {
						var got map[string][]float32
						withKernel(kn, func() { got = bitwiseOutputs(GEMMPathFused, pool, uint64(m*n+k), m, n, k) })
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

// TestEdgeRowBodiesMatchFullBody: a row-edge body at mw live rows must
// leave in those rows the bits the full body leaves there on the same
// panels, and touch nothing else (TestKernelsBitwiseAcrossISAs pins the
// full body against the other entries). Depths one, below and at a depth block;
// B packed (ldb = nr) and read in place from a wider operand; C at stride
// nr and wider. Every float of C the body must not write — the rows from
// mw on and the gap past nr columns of every row — holds a NaN canary that
// must come back with its payload intact.
func TestEdgeRowBodiesMatchFullBody(t *testing.T) {
	r := tensor.NewRNG(83)
	canary := math.Float32frombits(0x7fc0dead)
	for _, k := range fmaKernels(t) {
		if k.f32Rows == nil {
			continue
		}
		for _, kc := range []int{1, 7, gemmKC} {
			a := randSlice(r, k.mr*kc)
			for _, ldb := range []int{k.nr, 259} {
				b := randSlice(r, kc*ldb)
				bp := b[ldb-k.nr:] // the operand's last nr columns when read in place
				for _, ldc := range []int{k.nr, k.nr + 5} {
					c0 := randSlice(r, k.mr*ldc)
					want := append([]float32(nil), c0...)
					k.f32(kc, a, bp, ldb, want, ldc)
					for mw := 1; mw <= k.mr; mw++ {
						got := append([]float32(nil), c0...)
						for i := range got {
							if i/ldc >= mw || i%ldc >= k.nr {
								got[i] = canary
							}
						}
						k.f32Rows(kc, a, bp, ldb, got, ldc, mw)
						for i := range got {
							w := want[i]
							if i/ldc >= mw || i%ldc >= k.nr {
								w = canary
							}
							if math.Float32bits(got[i]) != math.Float32bits(w) {
								t.Fatalf("%s kc=%d ldb=%d ldc=%d rows=%d: C[%d][%d] = %x, want %x",
									k.name, kc, ldb, ldc, mw, i/ldc, i%ldc, math.Float32bits(got[i]), math.Float32bits(w))
							}
						}
					}
				}
			}
		}
	}
}

// TestMicroKernelWrappersCheckLengths: the Go wrappers of the assembly
// bodies refuse operands shorter than what the body reads or writes, a
// depth below one and a row count outside [1, mr], by panicking before
// the assembly runs.
func TestMicroKernelWrappersCheckLengths(t *testing.T) {
	for _, k := range fmaKernels(t) {
		const kc = 3
		mr, nr := k.mr, k.nr
		a, b, c := make([]float32, mr*kc), make([]float32, kc*nr), make([]float32, mr*nr)
		type call struct {
			name string
			f    func()
		}
		calls := []call{
			{"short A", func() { k.f32(kc, a[:len(a)-1], b, nr, c, nr) }},
			{"short B", func() { k.f32(kc, a, b[:len(b)-1], nr, c, nr) }},
			{"short in-place B", func() { k.f32(kc, a, b, nr+1, c, nr) }},
			{"short C", func() { k.f32(kc, a, b, nr, c[:len(c)-1], nr) }},
			{"short strided C", func() { k.f32(kc, a, b, nr, c, nr+1) }},
			{"kc 0", func() { k.f32(0, a, b, nr, c, nr) }},
		}
		if k.f32Rows != nil {
			calls = append(calls,
				call{"rows 0", func() { k.f32Rows(kc, a, b, nr, c, nr, 0) }},
				call{"rows mr+1", func() { k.f32Rows(kc, a, b, nr, make([]float32, (mr+1)*nr), nr, mr+1) }},
				call{"short C at 2 rows", func() { k.f32Rows(kc, a, b, nr, c[:2*nr-1], nr, 2) }})
		}
		for _, tc := range calls {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: no panic", k.name, tc.name)
					}
				}()
				tc.f()
			}()
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
						packA(serial, false, ap, src, ld, 0, rows, 1, kcb, -1.5, k.mr)
						packB(serial, true, bp, src, ld, 0, rows, 1, kcb, k.nr)
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

// TestTransposedAPackMatchesScalarLoop: packing a K×M-stored A (the TN
// weight-gradient and per-head dV/dK operand) by copies and scaleRow must
// write the bytes of the scalar alpha·a loop it replaced, under every
// kernel-table entry, for alpha 1 (the copy) and two scaled cases, short
// and full panels, with A ending where an unreadable page begins.
func TestTransposedAPackMatchesScalarLoop(t *testing.T) {
	r := tensor.NewRNG(67)
	forEachKernel(t, "", func(t *testing.T) {
		mr := activeKernel.mr
		for _, alpha := range []float32{1, 0.5, -3} {
			for _, rows := range []int{1, mr - 1, mr, mr + 3, 2*mr + 1} {
				for _, kcb := range []int{1, 7, 64} {
					const row0, pc = 2, 3
					m, k := row0+rows, pc+kcb
					a := guardedTail(t, randSlice(r, k*m))
					panels := (rows + mr - 1) / mr
					got := make([]float32, panels*mr*kcb)
					want := make([]float32, len(got))
					packA(serial, true, got, a, m, row0, rows, pc, kcb, alpha, mr)
					for pi := 0; pi < panels; pi++ {
						n := min(mr, rows-pi*mr)
						for p := 0; p < kcb; p++ {
							src := a[(pc+p)*m+row0+pi*mr:]
							d := want[pi*mr*kcb+p*mr:]
							for i := 0; i < n; i++ {
								d[i] = alpha * src[i]
							}
						}
					}
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("alpha=%v rows=%d kcb=%d: element %d is %v, the scalar loop wrote %v",
								alpha, rows, kcb, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
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

// TestActiveKernelPublished: the installed kernel, with how it runs a
// row-edge tile, is readable from the API and from the default registry's
// /metrics text.
func TestActiveKernelPublished(t *testing.T) {
	k := ActiveKernel()
	if k.Name != activeKernel.name || k.MR != gemmMR || k.NR != gemmNR {
		t.Fatalf("ActiveKernel() = %+v, installed %s %dx%d", k, activeKernel.name, gemmMR, gemmNR)
	}
	want := map[string]string{
		"avx512": "avx512 12x32 (edge rows 1-11)",
		"avx2":   "avx2 6x16 (edge rows padded)",
		"scalar": "scalar 4x4 (edge rows padded)",
	}
	for i := range kernelTable {
		e := &kernelTable[i]
		if got := (KernelInfo{e.name, e.mr, e.nr, e.edgeRows()}).String(); got != want[e.name] {
			t.Errorf("table entry %s reads %q, want %q", e.name, got, want[e.name])
		}
	}
	if k.String() != want[k.Name] {
		t.Errorf("ActiveKernel().String() = %q, want %q", k.String(), want[k.Name])
	}
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), fmt.Sprintf(",edge_rows=%q} 1\n", k.EdgeRows)) || !strings.Contains(sb.String(), "# TYPE kernels_gemm_kernel_info gauge\n") {
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
				k.f32(gemmKC, ap, bp, k.nr, c, k.nr)
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
			run(b, 4*m*gemmKC, func() { packA(serial, false, ap, a, k, 0, m, gemmKC, gemmKC, 1, kn.mr) })
		})
		b.Run("packB/"+name, func(b *testing.B) {
			run(b, 4*n*gemmKC, func() { packB(serial, true, bp, w, k, 0, n, gemmKC, gemmKC, kn.nr) })
		})
	}
}
