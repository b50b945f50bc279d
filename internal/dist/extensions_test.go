package dist

import (
	"testing"

	"demystbert/internal/device"
	"demystbert/internal/opgraph"
	"demystbert/internal/perfmodel"
)

func TestInNetworkAllReduceBeatsRing(t *testing.T) {
	dev := device.MI100()
	bytes := int64(1 << 26)
	for _, d := range []int{4, 8, 32, 128} {
		ring := RingAllReduce(bytes, d, dev)
		inNet := InNetworkAllReduce(bytes, d, dev)
		if inNet >= ring {
			t.Errorf("D=%d: in-network %v should beat ring %v", d, inNet, ring)
		}
	}
	if InNetworkAllReduce(1<<20, 1, dev) != 0 {
		t.Fatal("single device needs no communication")
	}
}

func TestInNetworkAllReduceDeviceCountInvariant(t *testing.T) {
	// Unlike the ring, the switch-based transfer term does not grow with
	// device count — only the fixed latency applies.
	dev := device.MI100()
	t8 := InNetworkAllReduce(1<<26, 8, dev)
	t128 := InNetworkAllReduce(1<<26, 128, dev)
	if t128 != t8 {
		t.Fatalf("in-network time changed with device count: %v vs %v", t8, t128)
	}
}

func TestTensorSlicingInNetworkReducesComm(t *testing.T) {
	dev := device.MI100()
	w := opgraph.Phase1(baseWorkload().Cfg, 64, opgraph.FP32)
	ring := TensorSlicing("T2", w, 8, dev)
	inNet := TensorSlicingInNetwork("T2-innet", w, 8, dev)
	if inNet.Comm >= ring.Comm {
		t.Fatalf("in-network TS comm %v should beat ring %v", inNet.Comm, ring.Comm)
	}
	if inNet.Total >= ring.Total {
		t.Fatal("in-network TS must lower iteration time")
	}
	if computeTotal(inNet) != computeTotal(ring) {
		t.Fatal("in-network processing must not change on-device compute")
	}
}

func TestZeROShrinksOptimizerWork(t *testing.T) {
	dev := device.MI100()
	r := perfmodel.Run(opgraph.Build(baseWorkload()), dev)
	base := SingleGPU("S1", r)

	z := ZeRO("ZeRO-128", r, 128, dev)
	// Takeaway from [69]: the redundant update disappears — optimizer
	// compute scales down ~D (modulo launch overhead).
	if z.Share(opgraph.ClassLAMB) >= base.Share(opgraph.ClassLAMB)/4 {
		t.Fatalf("ZeRO update share %.4f should be far below baseline %.4f",
			z.Share(opgraph.ClassLAMB), base.Share(opgraph.ClassLAMB))
	}
	// Communication volume is AllReduce-equivalent: comparable to plain
	// DP without overlap.
	// (DP pays per-group ring latencies; ZeRO is one full-model pass, so
	// it lands slightly below.)
	dp := DataParallel("D1", r, 128, false)
	ratio := float64(z.Comm) / float64(dp.Comm)
	if ratio < 0.55 || ratio > 1.3 {
		t.Fatalf("ZeRO comm %.2fx of DP allreduce; should be comparable", ratio)
	}
	// Non-optimizer compute is unchanged.
	if z.Compute[opgraph.ClassTransformer] != base.Compute[opgraph.ClassTransformer] {
		t.Fatal("ZeRO must not change forward/backward compute")
	}
}

func TestZeROGlobalNormCaveat(t *testing.T) {
	// The paper's caveat: LAMB's global norm forces a reduction before
	// any update — ZeRO's comm must exceed the bare reduce-scatter +
	// all-gather by the norm AllReduce's latency term.
	dev := device.MI100()
	r := perfmodel.Run(opgraph.Build(baseWorkload()), dev)
	var paramBytes int64
	for _, g := range opgraph.ParamGroups(baseWorkload().Cfg) {
		paramBytes += int64(g.Size) * 4
	}
	bare := RingAllReduce(paramBytes, 128, dev)
	z := ZeRO("z", r, 128, dev)
	if z.Comm <= bare {
		t.Fatal("ZeRO comm must include the global-norm reduction")
	}
}
