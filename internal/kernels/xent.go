package kernels

import (
	"fmt"
	"math"
)

// CrossEntropyForward computes mean softmax cross-entropy loss over rows
// of a rows×classes logit matrix against integer targets, writing the
// softmax probabilities to probs for reuse by the backward pass. Rows
// whose target is IgnoreIndex contribute neither loss nor gradient —
// BERT's masked-LM loss only scores the ~15% masked positions.
func (pool *Pool) CrossEntropyForward(probs, logits []float32, targets []int, rows, classes int) float64 {
	sum, count := pool.CrossEntropySumForward(probs, logits, targets, rows, classes, 0, 0)
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// CrossEntropySumForward is the unnormalized fold underneath
// CrossEntropyForward: it continues a float64 negative-log-likelihood sum
// and scored-row count from the given seeds and leaves the mean to the
// caller. Gradient accumulation threads (sum, count) through the
// micro-batch calls in row order — the exact float64 addition sequence of
// one full-batch call — so the accumulated mean is bitwise-identical to
// the full-batch mean.
func (pool *Pool) CrossEntropySumForward(probs, logits []float32, targets []int, rows, classes int, sum float64, count int) (float64, int) {
	if len(logits) != rows*classes || len(probs) != rows*classes || len(targets) != rows {
		panic(fmt.Sprintf("kernels: CrossEntropyForward dims rows=%d classes=%d", rows, classes))
	}
	pool.Softmax(probs, logits, rows, classes)
	for r, t := range targets {
		if t == IgnoreIndex {
			continue
		}
		if t < 0 || t >= classes {
			panic(fmt.Sprintf("kernels: target %d out of range [0,%d)", t, classes))
		}
		p := float64(probs[r*classes+t])
		if p < 1e-30 {
			p = 1e-30
		}
		sum -= math.Log(p)
		count++
	}
	return sum, count
}

// IgnoreIndex marks a target position that is excluded from the loss.
const IgnoreIndex = -1

// CrossEntropyBackward computes the logit gradient of the mean
// cross-entropy loss: dLogits[r,c] = (probs[r,c] - 1{c==target_r}) / count
// for scored rows and zero for ignored rows.
func (pool *Pool) CrossEntropyBackward(dLogits, probs []float32, targets []int, rows, classes int) {
	count := 0
	for _, t := range targets {
		if t != IgnoreIndex {
			count++
		}
	}
	pool.CrossEntropyBackwardCount(dLogits, probs, targets, rows, classes, count)
}

// CrossEntropyBackwardCount is CrossEntropyBackward with the scored-row
// count injected by the caller instead of derived from this call's
// targets. Gradient accumulation passes the FULL batch's count so each
// micro-batch's logit gradient carries the full-batch 1/count
// normalization and the summed gradients match a full-batch call bitwise.
func (pool *Pool) CrossEntropyBackwardCount(dLogits, probs []float32, targets []int, rows, classes, count int) {
	if len(dLogits) != rows*classes || len(probs) != rows*classes || len(targets) != rows {
		panic(fmt.Sprintf("kernels: CrossEntropyBackward dims rows=%d classes=%d", rows, classes))
	}
	if count == 0 {
		clear(dLogits)
		return
	}
	inv := 1 / float32(count)
	rowBodies.run(pool, rows, grainFor(pool, rows, classes), rowArgs{dst: dLogits, x: probs, targets: targets, s: inv, n: classes}, xentGradRange)
}

func xentGradRange(ra *rowArgs, lo, hi int) {
	dLogits, probs, targets, inv, classes := ra.dst, ra.x, ra.targets, ra.s, ra.n
	for r := lo; r < hi; r++ {
		out := dLogits[r*classes : (r+1)*classes]
		if targets[r] == IgnoreIndex {
			clear(out)
			continue
		}
		pr := probs[r*classes : (r+1)*classes]
		for c := range out {
			out[c] = pr[c] * inv
		}
		out[targets[r]] -= inv
	}
}
