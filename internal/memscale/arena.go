// Package memscale lets a laptop-class machine execute honest BERT-Large
// training iterations in bounded memory, the regime the paper's Table 4
// footprint analysis says cannot fit naively: optimizer state is
// streamed shard by shard from disk in a single process (virtual shards;
// across data-parallel ranks the distnet trainer shards it, over this
// package's PlanShards), and checkpointed activations spill to a
// file-backed arena instead of living in RAM. Everything is exact — the
// spilled bytes round-trip bitwise, and the sharded update is pinned
// bitwise-equal to its unsharded reference.
package memscale

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"demystbert/internal/obs"
)

// Spill-path telemetry, served at /metrics alongside the kernel counters.
var (
	spillBytesWritten = obs.NewCounter("memscale_spill_bytes_written_total",
		"bytes written to the spill arena (activations and optimizer state)")
	spillBytesRead = obs.NewCounter("memscale_spill_bytes_read_total",
		"bytes read back from the spill arena")
	spillStallNS = obs.NewCounter("memscale_spill_stall_ns_total",
		"nanoseconds the training step spent blocked on arena I/O")
	shardSwapsTotal = obs.NewCounter("memscale_shard_swaps_total",
		"optimizer-state shard residency swaps (virtual-shard mode)")
)

// SpillCounters reports the cumulative arena traffic and stall time —
// the numbers bertprof prints beside its profile when it spills.
func SpillCounters() (written, read int64, stall time.Duration) {
	return spillBytesWritten.Value(), spillBytesRead.Value(),
		time.Duration(spillStallNS.Value())
}

// Arena is an append-allocated, file-backed store for float32 blocks.
// Regions are fixed at Alloc time and rewritten in place each iteration,
// so the file never grows past the planned working set. Read and Write
// are safe for concurrent use on disjoint regions (plain ReadAt/WriteAt
// under the hood); Alloc serializes internally.
//
// A plain file (not mmap) is deliberate: mmap'd pages are invisible to
// GOMEMLIMIT and the Go heap accounting this package exists to respect —
// explicit ReadAt/WriteAt keeps resident memory equal to the buffers the
// caller actually holds.
type Arena struct {
	f *os.File

	mu   sync.Mutex
	size int64
	free [][]byte // encode/decode chunks not in use, guarded by mu
}

// arenaChunk is the encode/decode granularity: large enough to amortize
// syscalls, small enough to stay cache-resident.
const arenaChunk = 1 << 18 // 256 KiB

// NewArena creates the backing file in dir (or the default temp dir when
// dir is empty). The file is unlinked immediately: the space is reclaimed
// by the OS as soon as the process exits, however it exits.
func NewArena(dir string) (*Arena, error) {
	f, err := os.CreateTemp(dir, "memscale-arena-*.spill")
	if err != nil {
		return nil, fmt.Errorf("memscale: creating arena: %w", err)
	}
	os.Remove(f.Name()) // keep the fd, drop the name
	return &Arena{f: f}, nil
}

// chunk takes an encode/decode chunk off the free list, or makes one. The
// list is a plain stack, not the standard library's pool: it holds at
// most one chunk per Read or Write that ever ran at once, and neither a
// collection nor the race detector drops one.
func (a *Arena) chunk() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	if k := len(a.free); k > 0 {
		b := a.free[k-1]
		a.free = a.free[:k-1]
		return b
	}
	return make([]byte, arenaChunk)
}

func (a *Arena) release(b []byte) {
	a.mu.Lock()
	a.free = append(a.free, b)
	a.mu.Unlock()
}

// Region addresses one allocated block: a byte offset and element count.
type Region struct {
	off   int64
	elems int
}

// Elems returns the region's capacity in float32 elements.
func (r Region) Elems() int { return r.elems }

// Alloc reserves a region of elems float32s at the end of the arena.
func (a *Arena) Alloc(elems int) Region {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := Region{off: a.size, elems: elems}
	a.size += int64(elems) * 4
	return r
}

// Size returns the total bytes allocated so far.
func (a *Arena) Size() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.size
}

// Write spills src into the region. len(src) must equal the region size.
func (a *Arena) Write(r Region, src []float32) error {
	if len(src) != r.elems {
		return fmt.Errorf("memscale: writing %d elems into region of %d", len(src), r.elems)
	}
	start := time.Now()
	buf := a.chunk()
	defer a.release(buf)
	off := r.off
	for len(src) > 0 {
		n := len(src)
		if n > arenaChunk/4 {
			n = arenaChunk / 4
		}
		for i, v := range src[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := a.f.WriteAt(buf[:4*n], off); err != nil {
			return fmt.Errorf("memscale: arena write at %d: %w", off, err)
		}
		src = src[n:]
		off += int64(4 * n)
	}
	spillBytesWritten.Add(int64(r.elems) * 4)
	spillStallNS.Add(int64(time.Since(start)))
	return nil
}

// Read restores the region into dst bitwise as written. len(dst) must
// equal the region size.
func (a *Arena) Read(r Region, dst []float32) error {
	if len(dst) != r.elems {
		return fmt.Errorf("memscale: reading %d elems from region of %d", len(dst), r.elems)
	}
	start := time.Now()
	buf := a.chunk()
	defer a.release(buf)
	off := r.off
	for len(dst) > 0 {
		n := len(dst)
		if n > arenaChunk/4 {
			n = arenaChunk / 4
		}
		if _, err := a.f.ReadAt(buf[:4*n], off); err != nil {
			return fmt.Errorf("memscale: arena read at %d: %w", off, err)
		}
		for i := range dst[:n] {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		dst = dst[n:]
		off += int64(4 * n)
	}
	spillBytesRead.Add(int64(r.elems) * 4)
	spillStallNS.Add(int64(time.Since(start)))
	return nil
}

// Close releases the backing file.
func (a *Arena) Close() error {
	if a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}
