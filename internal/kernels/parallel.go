// Package kernels implements the compute kernels of the real-execution
// BERT engine: general and batched matrix multiplication with all transpose
// combinations, the element-wise operators (add, multiply, scale, bias,
// mask, dropout), softmax, layer normalization, GeLU, reductions, layout
// transforms, and softmax cross-entropy. Each kernel has an exact FLOP and
// byte-traffic cost model (cost.go) so profiled runs report the same
// algorithmic quantities the paper's characterization uses.
//
// Kernels operate on raw []float32 buffers with explicit dimensions; the
// layer modules in internal/nn supply tensor-typed wrappers.
//
// Parallel kernels run on a persistent worker pool (this file), a value the
// caller passes (a nil *Pool is the process pool): workers are spawned
// once, and each parallel region hands out index ranges through
// an atomic counter, so load balance is dynamic and steady-state dispatch
// does no per-call goroutine spawning. A BERT step is hundreds of small
// kernels back to back, so the fork/join is built to cost microseconds:
// while the pool is saturated a worker that finishes a region keeps
// polling for the next one for hotWindow before it parks, and a join
// yields for joinWindow and then parks on the region's own wake-up — it
// never sleeps on a timer.
package kernels

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Pool is a set of persistent workers that parallel kernels fork onto:
// its work channel, the workers spawned so far (grown on demand up to
// width-1; the calling goroutine is the last) and its heat. A pool is a
// value the caller passes, like the GEMM route: the kernels are its
// methods, and nn reads it from Ctx.Pool. Its width is fixed when it is
// built, and nothing ever closes it: its workers live as long as the
// process. A nil *Pool is the process pool, GOMAXPROCS wide at init,
// which is what production runs everywhere.
type Pool struct {
	width int // read only in this file: grainFor, piecesPer, concurrentPieces, parallelRun

	// work feeds regions to the workers and to joining callers, which
	// steal from it while they wait. The buffer lets a caller enlist
	// helpers without ever blocking: queued handles are consumed by an
	// idle worker, by a waiter, or by the enqueuing caller itself once it
	// reaches its own join loop.
	work chan *region

	spawned atomic.Int64 // live workers

	// Heat says how saturated the pool has been lately. inFlight counts
	// dispatched regions; each change between "none" and "some" settles
	// the stretch that just ended into heat: a busy stretch adds its
	// length, and so does an idle one no longer than hotWindow (a hot
	// worker bridges it, so the stream of kernels did not break); a
	// longer idle stretch takes away idleWeight times its length. heat
	// stays within [0, heatCap]. The updates are plain loads and stores:
	// concurrent roots can lose one, which a heuristic can afford.
	inFlight atomic.Int64
	lastFlip atomic.Int64 // ns since poolEpoch
	heat     atomic.Int64 // ns
}

// NewPool returns a pool of the given width: regions run on at most width
// goroutines, the caller included. A width below 1 is 1, a pool that runs
// every region inline.
func NewPool(width int) *Pool {
	return &Pool{width: max(width, 1), work: make(chan *region, 1024)}
}

// processPool is what a nil *Pool means.
var processPool = NewPool(runtime.GOMAXPROCS(0))

// or returns pool, or the process pool when pool is nil.
func (pool *Pool) or() *Pool {
	if pool == nil {
		return processPool
	}
	return pool
}

// blockBody is a unit of parallel work: runRange is invoked with disjoint
// half-open index ranges, possibly concurrently from several workers. Its
// one implementation is argsBody, what argsPool.run dispatches.
type blockBody interface{ runRange(lo, hi int) }

// region is one parallel-for execution shared between the caller and the
// pool workers that join it. Work is handed out in grain-sized chunks via
// the atomic next counter, so fast workers take more chunks (dynamic
// chunking) instead of being assigned a fixed slice up front.
//
// Completion is one word, so the caller's join never depends on the pool
// picking anything up: state counts the handles enlisted in the pool's work
// channel and not yet retired, and a handle is retired only after its
// holder's drain has returned. The caller's own drain returns once every
// chunk is claimed, so from then on state == 0 means every index is
// processed and nobody else holds the region. regionParked, set in the same
// word by a caller that gives up yielding, obliges whoever retires the last
// handle to send on wake; a retirer that sees anything else never touches
// the region again, which is what lets the caller recycle it the moment it
// reads zero.
type region struct {
	body  blockBody
	n     int
	grain int
	next  atomic.Int64
	state atomic.Int64
	wake  chan struct{} // capacity 1: the last retirer's send never blocks
}

const regionParked = 1 << 32

// drain grabs chunks until the region's index space is exhausted.
func (r *region) drain() {
	n := int64(r.n)
	g := int64(r.grain)
	var chunks int64
	for {
		hi := r.next.Add(g)
		lo := hi - g
		if lo >= n {
			if chunks > 0 {
				poolGrains.Add(chunks)
			}
			return
		}
		if hi > n {
			hi = n
		}
		chunks++
		r.body.runRange(int(lo), int(hi))
	}
}

// help is what every consumer of a queued handle does: take chunks until
// none are left, then retire the handle.
func (r *region) help() {
	r.drain()
	if r.state.Add(-1) == regionParked {
		r.wake <- struct{}{}
	}
}

var regions freeList[region]

// ensureWorkers grows the pool to at least target workers.
func (pool *Pool) ensureWorkers(target int) {
	for {
		cur := pool.spawned.Load()
		if cur >= int64(target) {
			return
		}
		if pool.spawned.CompareAndSwap(cur, cur+1) {
			go pool.worker()
		}
	}
}

// Fork/join constants, not knobs: each is the break-even point of a cost
// measured on the host class this engine runs on (2-core VM, DESIGN.md
// §6), and a wrong guess is bounded either way.
//
// Waking a goroutine parked on a channel costs 75–190 µs at the median
// before it runs (milliseconds at p99) and 10–17 µs of futex work on the
// sender's side, and time.Sleep(20µs) returns after 80 µs–1.1 ms at the
// median — against ~0.1 µs for a runtime.Gosched that finds nothing else
// to run. The kernels of one training step or one served batch follow
// each other within tens of microseconds, so a worker that parks after
// every region is asleep for the start of every kernel.
const (
	// hotWindow is how long a worker that has just finished a region keeps
	// polling for the next one before it parks. It is the ski-rental
	// choice: poll for about as long as one wake-up costs, so a worker
	// never spends more than twice what the better of "always park" and
	// "never park" would have, back-to-back kernels find their helper
	// awake, and an idle process is parked within 300 µs of its last
	// kernel and burns nothing.
	hotWindow = 300 * time.Microsecond

	// joinWindow is how long a caller whose own chunks are done keeps
	// stealing and yielding before it parks on the region's wake-up. The
	// tail of a region is at most one chunk on another worker, so almost
	// every join ends inside the window; the park behind it only bounds
	// what a descheduled or very long straggler can make a waiter burn.
	joinWindow = 300 * time.Microsecond

	// heatCap and idleWeight say when the pool is saturated, which is the
	// only time its workers stay hot: the pool must have been in use for
	// at least idleWeight/(idleWeight+1) = 3/4 of the recent past, and
	// for heatCap/2 = 0.5 s net of that, before a worker polls at all.
	// A polling worker is only worth its core if the core is its own, and
	// on a multiplexed host that is earned by load: the reference VM's two
	// vCPUs take 4 ms turns on one core once the VM has idled for ~2 s,
	// and get a core each again after ~1.2 s with both busy (4.7 s at
	// 50 % duty, never at 30 %). A caller that forks a short burst every
	// 20 ms never earns it: sparse serving, when it still forked every
	// kernel across this pool, read 8.4 ms or 14 ms from one run to the
	// next with always-hot workers, by where the hypervisor had left the
	// second vCPU before the process started. Serving no longer forks —
	// each batch runner has a one-wide pool of its own, which runs every
	// region inline — so the rule serves the callers that do: training
	// steps (single-process, each distnet rank, bertprof, the
	// memory-scaled trainer), which keep the pool above 80 % busy and are
	// spread within their first second, and one-off bursts such as
	// serving's load-time pack warm-up, which stay cold as they always
	// did.
	heatCap    = time.Second
	idleWeight = 3
)

// poolEpoch is the time base of every pool's lastFlip.
var poolEpoch = time.Now()

func (pool *Pool) settle(busy bool) {
	now := int64(time.Since(poolEpoch))
	d := max(now-pool.lastFlip.Swap(now), 0) // a concurrent root may have stamped later
	h := pool.heat.Load()
	if busy || d <= int64(hotWindow) {
		h = min(h+d, int64(heatCap))
	} else {
		h = max(h-idleWeight*d, 0)
	}
	pool.heat.Store(h)
}

// saturated reports whether workers stay hot between regions.
func (pool *Pool) saturated() bool { return pool.heat.Load() >= int64(heatCap/2) }

// worker joins one region at a time for the life of the process — a pool
// is never torn down. Between regions of a saturated pool it polls the
// work channel for hotWindow, yielding every turn so that a single P is
// never starved by a spinning worker, and only then blocks in the receive;
// otherwise it blocks at once.
func (pool *Pool) worker() {
	for {
		var r *region
		if pool.saturated() {
			r = pool.poll()
		}
		if r != nil {
			poolHotPickups.Inc()
		} else {
			poolParks.Inc()
			r = <-pool.work
		}
		r.help()
	}
}

// poll returns the next queued region, or nil if none arrives within
// hotWindow. It reads the channel field once: the line it sits on is the
// one every dispatch writes the heat to.
func (pool *Pool) poll() *region {
	work := pool.work
	start := time.Now()
	for {
		select {
		case r := <-work:
			return r
		default:
		}
		if time.Since(start) >= hotWindow {
			return nil
		}
		runtime.Gosched()
	}
}

// steal is what a joining caller does with a handle it finds queued while
// it waits — its own or anybody's.
func steal(other *region) {
	poolSteals.Inc()
	other.help()
}

// join blocks until every handle of r has been retired. The caller has
// already drained r, so that is also when every index has been processed.
// Stealing from work, the channel r was enlisted on, while it waits is
// what keeps nested dispatch live: a waiter is always a reader of its
// pool's channel, parked or not.
func (r *region) join(work chan *region) {
	var start time.Time
	for {
		s := r.state.Load()
		if s == 0 {
			return
		}
		select {
		case other := <-work:
			steal(other)
			continue
		default:
		}
		if start.IsZero() {
			start = time.Now()
		}
		if time.Since(start) < joinWindow {
			runtime.Gosched()
			continue
		}
		if r.state.CompareAndSwap(s, s|regionParked) {
			break
		}
	}
	// Parked: exactly one send on wake is now owed, by whoever takes the
	// count to zero, and r cannot be recycled before it arrives.
	for {
		select {
		case other := <-work:
			steal(other)
		case <-r.wake:
			r.state.Store(0)
			return
		}
	}
}

// parallelRun executes body over [0, n) in grain-sized chunks on pool,
// blocking until every index is processed. The calling goroutine always
// participates, and while it waits for chunks claimed by others it steals
// queued handles from the pool's work channel — so no join ever depends on
// pool availability, and nested dispatch (a pool worker calling
// parallelRun) cannot deadlock even when every worker is itself blocked in
// a join.
// With width 1 or a single chunk it runs inline with zero dispatch cost.
// Kernels reach it through argsPool.run.
func parallelRun(pool *Pool, n, grain int, body blockBody) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	pool = pool.or()
	w := pool.width
	if items := (n + grain - 1) / grain; w > items {
		w = items
	}
	if w <= 1 {
		poolInline.Inc()
		body.runRange(0, n)
		return
	}
	poolDispatches.Inc()
	if pool.inFlight.Add(1) == 1 {
		pool.settle(false) // an idle stretch ends
	}
	pool.ensureWorkers(w - 1)
	r := regions.get()
	if r.wake == nil {
		r.wake = make(chan struct{}, 1)
	}
	r.body, r.n, r.grain = body, n, grain
	r.next.Store(0)
enlist:
	for i := 0; i < w-1; i++ {
		r.state.Add(1)
		select {
		case pool.work <- r:
		default:
			// Queue full: plenty of work is already circulating; run
			// with the helpers enlisted so far.
			r.state.Add(-1)
			break enlist
		}
	}
	r.drain()
	r.join(pool.work)
	r.body = nil
	regions.put(r)
	if pool.inFlight.Add(-1) == 0 {
		pool.settle(true) // a busy stretch ends
	}
}

// minForkWork is the region size, in elements touched, below which a fork
// costs more than it saves even when the helper is awake: a few
// microseconds of hand-off against at most a microsecond or two of
// bandwidth-bound work.
const minForkWork = 4096

// grainFor is the chunk rule of every kernel without a grain of its own,
// for n indices that stand for per elements each (1 for a flat buffer, the
// row length for a row-wise kernel): about four chunks per worker — coarse
// enough to amortize dispatch, fine enough that an unlucky worker cannot
// stall the join — and a single chunk, which runs inline, at width 1 or
// below minForkWork elements. w is the pool's width.
func grainFor(pool *Pool, n, per int) int {
	w := pool.or().width
	if w == 1 || n*per < minForkWork {
		return max(n, 1)
	}
	return max(n/(4*w), 1)
}

// piecesPer is how many pieces each of items work items should be cut
// into for a region to hold at least perWorker items per worker: 1 at
// width 1 or when items already suffice. The blocked GEMM cuts the row
// blocks of a short stripe into column segments with it, and auto's
// short-stripe route sizes its segments with it. w is the pool's width.
func piecesPer(pool *Pool, items, perWorker int) int {
	w := pool.or().width
	if w <= 1 || items >= perWorker*w {
		return 1
	}
	return (perWorker*w + items - 1) / items
}

// concurrentPieces is the most chunks of a region of n indices at grain
// that run on pool at once: one per goroutine parallelRun puts on it.
func concurrentPieces(pool *Pool, n, grain int) int {
	grain = max(grain, 1)
	return min(pool.or().width, (n+grain-1)/grain)
}

// argsBody is a parallel-region body that calls a plain function on
// operands it holds by value. A closure would do the same, but its
// captured operands escape to the heap on every call.
type argsBody[A any] struct {
	args A
	f    func(a *A, lo, hi int)
}

func (b *argsBody[A]) runRange(lo, hi int) { b.f(&b.args, lo, hi) }

// argsPool holds the bodies of one operand type A; its zero value is
// ready to use.
type argsPool[A any] struct{ bodies freeList[argsBody[A]] }

// run is the one way a kernel forks: it runs f(&args, lo, hi) over [0, n)
// in grain-sized chunks on pool (parallelRun), and allocates nothing
// once ap holds a body. f must be a top-level function, not a closure.
// grain is the kernel's own, or grainFor's.
func (ap *argsPool[A]) run(pool *Pool, n, grain int, args A, f func(a *A, lo, hi int)) {
	b := ap.bodies.get()
	b.args, b.f = args, f
	parallelRun(pool, n, grain, b)
	var zero A
	b.args, b.f = zero, nil
	ap.bodies.put(b)
}

// closures runs closures through the one entry: the naive GEMM and tests
// use it. Unlike an args struct, a closure's captures
// escape to the heap on every call.
var closures argsPool[func(lo, hi int)]

func callClosure(f *func(lo, hi int), lo, hi int) { (*f)(lo, hi) }

// parallelFor runs body over [0, n) in grain-sized chunks on pool.
func parallelFor(pool *Pool, n, grain int, body func(lo, hi int)) {
	closures.run(pool, n, grain, body, callClosure)
}
