package distnet

import "demystbert/internal/nn"

// Bucket is one coalesced slice of the flat gradient buffer, covering a
// contiguous run of parameters from the backward-ready ordering. It is
// the unit of communication: one Bucket = one ring AllReduce.
type Bucket struct {
	Params     []*nn.Param
	Off, Len   int // extent within Plan.Flat, in float32 elements
	ReadyGroup int // index of the last grad group contributing to it;
	// the bucket may launch once this group's grads are final
}

// Plan owns the flat gradient staging buffer and its partition into
// buckets. Buckets follow the backward production order (MLM/NSP heads
// first, then layers top-down, embedding last), so with overlap enabled
// early buckets ship while later layers are still computing.
type Plan struct {
	Flat []float32
	List []Bucket
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
		}
		flush()
	}
	p.Flat = make([]float32, off)
	return p
}

// Elems returns the total gradient element count across all buckets.
func (p *Plan) Elems() int { return len(p.Flat) }

// Slice returns the bucket's window of the flat buffer.
func (p *Plan) Slice(b *Bucket) []float32 { return p.Flat[b.Off : b.Off+b.Len] }

// Gather copies the bucket's parameter gradients into its flat window.
func (p *Plan) Gather(b *Bucket) {
	off := b.Off
	for _, prm := range b.Params {
		off += copy(p.Flat[off:], prm.Grad.Data())
	}
}

// ScatterScale writes the reduced flat window back into the parameter
// gradients, scaled by scale (1/world: the data-parallel average). The
// per-element expression is sum·(1/world), the one the serial two-replica
// reference uses, keeping world=2 training bit-identical to it.
func (p *Plan) ScatterScale(b *Bucket, scale float32) {
	off := b.Off
	for _, prm := range b.Params {
		g := prm.Grad.Data()
		src := p.Flat[off : off+len(g)]
		for j := range g {
			g[j] = src[j] * scale
		}
		off += len(g)
	}
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
