package distnet

import (
	"demystbert/internal/memscale"
	"demystbert/internal/nn"
	"demystbert/internal/tensor"
)

// Bucket is one coalesced slice of the flat gradient buffer, covering a
// contiguous run of parameters from the backward-ready ordering. It is
// the unit of communication: one Bucket = one ring reduce-scatter of its
// gradients and one ring all-gather of its weights.
type Bucket struct {
	Params     []*nn.Param
	Off, Len   int // extent within Plan.Flat, in float32 elements
	ReadyGroup int // index of the last grad group contributing to it;
	// the bucket may launch once this group's grads are final

	// Bounds are the ownership bounds cut to this bucket and made
	// relative to Off (world+1 entries): the bucket's reduce-scatter
	// leaves [Bounds[r], Bounds[r+1]) reduced on rank r. Set by bind.
	Bounds []int
}

// Plan owns the flat gradient and weight buffers and their partition into
// buckets; a Trainer at world > 1 makes every parameter's gradient a view
// of Flat and its value a view of W, at the same offset (bind). Buckets
// follow the backward production order (MLM/NSP heads first, then layers
// top-down, embedding last), so with overlap enabled early buckets ship
// while later layers are still computing.
//
// Bound, the plan also shards the update: rank r owns the contiguous,
// tensor-aligned element range [Own[r], Own[r+1]) of both buffers,
// balanced by element count (memscale.PlanShards over the parameters in
// buffer order). Only the owner's gradients are reduced, only the owner
// keeps optimizer state for them and runs their update, and the updated
// weights are all-gathered from it into W.
type Plan struct {
	Flat []float32 // gradients; nil until bind
	W    []float32 // weights, laid out like Flat; nil until bind
	List []Bucket
	Own  []int // ownership bounds in elements, world+1 entries; nil until bind

	// Params lists every bucketed parameter in buffer order; rank r owns
	// Params[OwnParams[r]:OwnParams[r+1]].
	Params    []*nn.Param
	OwnParams []int
	elems     int
}

// PlanBuckets partitions the ready-ordered grad groups into buckets of
// at most bucketBytes (4 bytes per element). A parameter is never split
// across buckets, so a single parameter larger than bucketBytes gets a
// bucket of its own; bucketBytes <= 0 means one bucket per ready group.
// Buckets never span a group boundary: a bucket's launch condition is
// "its last group's grads are final", and merging across groups would
// only delay the earlier group's traffic.
func PlanBuckets(groups [][]*nn.Param, bucketBytes int) *Plan {
	maxElems := bucketBytes / 4
	p := &Plan{}
	off := 0
	for gi, group := range groups {
		var cur []*nn.Param
		curLen := 0
		flush := func() {
			if curLen == 0 {
				return
			}
			p.List = append(p.List, Bucket{
				Params: cur, Off: off, Len: curLen, ReadyGroup: gi,
			})
			off += curLen
			cur, curLen = nil, 0
		}
		for _, prm := range group {
			sz := prm.Size()
			if maxElems > 0 && curLen > 0 && curLen+sz > maxElems {
				flush()
			}
			cur = append(cur, prm)
			curLen += sz
			p.Params = append(p.Params, prm)
		}
		flush()
	}
	p.elems = off
	return p
}

// Elems returns the total gradient element count across all buckets.
func (p *Plan) Elems() int { return p.elems }

// Slice returns the bucket's window of the flat gradient buffer.
func (p *Plan) Slice(b *Bucket) []float32 { return p.Flat[b.Off : b.Off+b.Len] }

// bind allocates Flat and W, makes every bucketed parameter's gradient and
// value views of its window of them, carrying over the values they hold,
// and shards the buffers over world ranks. Backward then writes straight
// into the buffer the ring reduce-scatters, the owner's update writes
// straight into the buffer the ring all-gathers, and the gathered weights
// land where the next forward reads them. Each view's capacity ends at
// its own window.
//
// The replaced tensors become garbage, as much again as the buffers, and
// a collection that one of the two big allocations starts measures the
// live heap that sets when the next one comes. So gradients and weights
// are rebound in two passes, each dropping what it replaced before the
// next allocation: the heap such a collection finds live holds the model
// three times, not four, and the next one comes early enough that the
// first step's own allocations reuse the freed tensors instead of
// raising the process's peak.
func (p *Plan) bind(world int) {
	p.Flat = rebind(p, func(prm *nn.Param) **tensor.Tensor { return &prm.Grad })
	p.W = rebind(p, func(prm *nn.Param) **tensor.Tensor { return &prm.Value })

	shards, err := memscale.PlanShards(p.Params, world)
	if err != nil {
		panic(err) // world >= 1 is Join's invariant
	}
	p.Own = shards.Bounds
	p.OwnParams = make([]int, world+1)
	for r, s := range shards.Shards {
		p.OwnParams[r+1] = p.OwnParams[r] + len(s)
	}
	for i := range p.List {
		b := &p.List[i]
		b.Bounds = make([]int, world+1)
		for r, o := range p.Own {
			b.Bounds[r] = min(max(o-b.Off, 0), b.Len)
		}
	}
}

// rebind allocates one buffer laid out like the plan and makes the tensor
// field of every bucketed parameter a view of its window, values copied.
func rebind(p *Plan, field func(*nn.Param) **tensor.Tensor) []float32 {
	buf := make([]float32, p.elems)
	for i := range p.List {
		off := p.List[i].Off
		for _, prm := range p.List[i].Params {
			t := field(prm)
			n := (*t).Size()
			view := buf[off : off+n : off+n]
			copy(view, (*t).Data())
			*t = tensor.Of(view, (*t).Shape()...)
			off += n
		}
	}
	return buf
}

// lastBucketOfGroup[g] is the index just past the final bucket whose
// ReadyGroup <= g — i.e. how many buckets are launchable once group g's
// gradients are final.
func (p *Plan) launchableAfter(group int) int {
	n := 0
	for i := range p.List {
		if p.List[i].ReadyGroup <= group {
			n = i + 1
		}
	}
	return n
}
