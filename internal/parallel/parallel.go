// Package parallel executes the HD kernels across goroutines using
// the exact decomposition the paper's OpenMP code uses on the PULP
// cluster (Fig. 2): each kernel is a parallel-for over the packed
// hypervector words with static chunking, so "the workload is equally
// distributed among the cores, giving to each core a portion of the
// hypervectors on which the required encoding operations are
// performed" (§3). Goroutines play the cores; the results are
// bit-identical to the serial library for any worker count.
//
// The pool's workers are persistent: NewPool starts them once and
// each collective call only exchanges a task descriptor per worker,
// the software analogue of the cluster cores spinning on the PULP
// event unit rather than being forked per kernel. A collective makes
// no allocations in steady state — per-worker partial results and
// plane scratch live in slots owned by the pool, indexed by worker
// id, and the caller's goroutine works chunk 0 itself so a 1-worker
// pool never touches a channel.
//
// A Pool runs one collective at a time: the kernels stage their
// arguments in pool-owned fields, so concurrent calls on the same
// Pool race. Use one Pool per driving goroutine (they are cheap), as
// one PULP cluster serves one offload at a time.
package parallel

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"strconv"

	"pulphd/internal/hv"
)

// task is one chunk of a collective handed to a persistent worker.
type task struct {
	fn     func(lo, hi, worker int)
	lo, hi int
	worker int
}

// worker is the persistent loop. It deliberately captures only the
// channels, not the Pool, so an abandoned Pool stays finalizable and
// its finalizer can stop the loop. The goroutine labels itself once at
// spawn (pprof labels cost nothing per collective), so CPU profiles of
// the serving path attribute kernel chunks to pool_worker=<id> rather
// than to an anonymous goroutine.
func worker(wake <-chan task, done chan<- struct{}, quit <-chan struct{}, id int) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("pool_worker", strconv.Itoa(id))))
	for {
		select {
		case t := <-wake:
			t.fn(t.lo, t.hi, t.worker)
			done <- struct{}{}
		case <-quit:
			return
		}
	}
}

// padStride spaces per-worker partial-sum slots a cache line apart
// (8 × int64 = 64 bytes) so workers never write the same line.
const padStride = 8

// Pool executes word-range parallel-fors over a fixed set of
// persistent workers.
type Pool struct {
	workers int
	closed  bool

	wake []chan task   // one per helper; the caller runs chunk 0
	done chan struct{} // completion barrier, buffered workers-1
	quit chan struct{}

	// Pre-bound chunk kernels, created once so dispatching them
	// allocates nothing.
	xorFn, majFn, hamFn, amFn, userFnAdapter func(lo, hi, worker int)

	// Staged arguments of the collective in flight.
	dw, aw, bw, qw []uint32
	setWords       [][]uint32
	protoWords     [][]uint32
	threshold      uint32
	nplanes        int
	userFn         func(lo, hi int)

	// Per-worker result slots and scratch, indexed by worker id.
	partial []int64      // Hamming partial popcounts, padded
	dists   [][]int64    // AMSearch per-prototype partials
	planes  [][]uint64   // Majority bit-sliced count planes
	sub     [][][]uint32 // Majority per-worker set subslice headers
}

// NewPool returns a pool of n workers; n ≤ 0 selects GOMAXPROCS.
// The PULP analogy caps usefulness around the cluster sizes (4–8),
// but any positive count works. The n-1 helper goroutines live until
// Close; a finalizer stops them if the pool is dropped unclosed.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: n,
		partial: make([]int64, n*padStride),
		dists:   make([][]int64, n),
		planes:  make([][]uint64, n),
		sub:     make([][][]uint32, n),
	}
	p.xorFn = p.xorChunk
	p.majFn = p.majorityChunk
	p.hamFn = p.hammingChunk
	p.amFn = p.amChunk
	p.userFnAdapter = p.userChunk
	if n > 1 {
		p.wake = make([]chan task, n-1)
		p.done = make(chan struct{}, n-1)
		p.quit = make(chan struct{})
		for i := range p.wake {
			p.wake[i] = make(chan task, 1)
			go worker(p.wake[i], p.done, p.quit, i+1)
		}
		runtime.SetFinalizer(p, (*Pool).Close)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close stops the helper goroutines. It is idempotent. Collectives
// called after Close run serially on the caller, so a closed pool
// stays usable (and correct) — it just no longer parallelizes.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.quit != nil {
		close(p.quit)
		runtime.SetFinalizer(p, nil)
	}
}

// forRange splits [0, n) into one static chunk per worker (OpenMP
// schedule(static)), wakes a helper per non-first chunk, runs chunk 0
// on the caller, and waits for the barrier. Chunk sizes are rounded
// up to an even word count so every chunk but the last starts on a
// uint64 boundary and the word64 fast paths keep their aligned view.
// Returns the number of chunks run, which is the number of per-worker
// result slots [0, active) filled.
func (p *Pool) forRange(n int, fn func(lo, hi, worker int)) (active int) {
	if n <= 0 {
		return 0
	}
	chunk := (n + p.workers - 1) / p.workers
	chunk += chunk & 1
	active = (n + chunk - 1) / chunk
	if active == 1 || p.closed {
		fn(0, n, 0)
		return 1
	}
	for w := 1; w < active; w++ {
		hi := (w + 1) * chunk
		if hi > n {
			hi = n
		}
		p.wake[w-1] <- task{fn: fn, lo: w * chunk, hi: hi, worker: w}
	}
	fn(0, chunk, 0)
	for w := 1; w < active; w++ {
		<-p.done
	}
	return active
}

// ForRange splits [0, n) into one static chunk per worker and runs
// fn(lo, hi) concurrently. fn must not touch indices outside its
// range.
func (p *Pool) ForRange(n int, fn func(lo, hi int)) {
	p.userFn = fn
	p.forRange(n, p.userFnAdapter)
	p.userFn = nil
}

func (p *Pool) userChunk(lo, hi, _ int) { p.userFn(lo, hi) }

// ForRangeWorker is ForRange with the worker id passed through, so
// callers can keep per-worker state (scratch, partial results) in
// slots instead of behind a mutex. Ids are dense in [0, active) where
// active is the returned chunk count; id 0 is the calling goroutine.
func (p *Pool) ForRangeWorker(n int, fn func(lo, hi, worker int)) int {
	return p.forRange(n, fn)
}

func checkDims(op string, dst hv.Vector, vs ...hv.Vector) {
	for _, v := range vs {
		if v.Dim() != dst.Dim() {
			panic(fmt.Sprintf("parallel: %s: dimension mismatch %d != %d", op, v.Dim(), dst.Dim()))
		}
	}
}

// Xor computes dst = a ⊕ b with the word range split across workers
// — the binding step of the spatial encoder.
func (p *Pool) Xor(dst, a, b hv.Vector) {
	checkDims("Xor", dst, a, b)
	p.dw, p.aw, p.bw = dst.Words(), a.Words(), b.Words()
	p.forRange(len(p.dw), p.xorFn)
	p.dw, p.aw, p.bw = nil, nil, nil
}

func (p *Pool) xorChunk(lo, hi, _ int) {
	hv.XorWords(p.dw[lo:hi], p.aw[lo:hi], p.bw[lo:hi])
}

// Majority computes the componentwise majority of set into dst, each
// worker handling its word chunk with the same word64 kernel the
// serial library uses. Ties (even set sizes) resolve to 0, as in
// hv.MajorityTo without a tie vector; append the accelerator's
// XOR-of-first-two vector to the set for the §5.1 semantics.
func (p *Pool) Majority(dst hv.Vector, set []hv.Vector) {
	if len(set) == 0 {
		panic("parallel: Majority of no vectors")
	}
	checkDims("Majority", dst, set...)
	p.setWords = p.setWords[:0]
	for _, v := range set {
		p.setWords = append(p.setWords, v.Words())
	}
	p.threshold = uint32(len(set) / 2)
	p.nplanes = bits.Len(uint(len(set)))
	for w := range p.planes {
		if len(p.planes[w]) < p.nplanes {
			p.planes[w] = make([]uint64, p.nplanes)
		}
		if len(p.sub[w]) < len(set) {
			p.sub[w] = make([][]uint32, len(set))
		}
	}
	p.dw = dst.Words()
	p.forRange(len(p.dw), p.majFn)
	p.dw = nil
	p.setWords = p.setWords[:0]
	// The inputs carry clean tails, so every plane and hence the
	// output tail stays clean; nothing to mask.
}

func (p *Pool) majorityChunk(lo, hi, w int) {
	sub := p.sub[w][:len(p.setWords)]
	for i, ws := range p.setWords {
		sub[i] = ws[lo:hi]
	}
	hv.MajorityWords(p.dw[lo:hi], sub, p.threshold, p.planes[w][:p.nplanes])
}

// Hamming computes the Hamming distance with per-worker partial
// popcounts merged at the join — the distributed distance computation
// of §1. Each worker writes its partial into its own padded slot, so
// the merge needs no mutex and the call no per-call slice.
func (p *Pool) Hamming(a, b hv.Vector) int {
	checkDims("Hamming", a, b)
	p.aw, p.bw = a.Words(), b.Words()
	active := p.forRange(len(p.aw), p.hamFn)
	total := 0
	for w := 0; w < active; w++ {
		total += int(p.partial[w*padStride])
	}
	p.aw, p.bw = nil, nil
	return total
}

func (p *Pool) hammingChunk(lo, hi, w int) {
	p.partial[w*padStride] = int64(hv.HammingWords(p.aw[lo:hi], p.bw[lo:hi]))
}

// AMSearch finds the minimum-Hamming-distance prototype, computing
// all distances with word-level parallelism ("the hypervectors are
// equally distributed among the cores to perform componentwise XOR
// ... and count the number of mismatches as distances", §3) and
// reducing serially like the AM kernel does. Per-worker distance
// rows replace the mutex-merged shared slice.
func (p *Pool) AMSearch(query hv.Vector, protos []hv.Vector) (index, distance int) {
	if len(protos) == 0 {
		panic("parallel: AMSearch with no prototypes")
	}
	checkDims("AMSearch", query, protos...)
	p.qw = query.Words()
	p.protoWords = p.protoWords[:0]
	for _, v := range protos {
		p.protoWords = append(p.protoWords, v.Words())
	}
	for w := range p.dists {
		if len(p.dists[w]) < len(protos) {
			p.dists[w] = make([]int64, len(protos))
		}
	}
	active := p.forRange(len(p.qw), p.amFn)
	best, bestDist := 0, int64(query.Dim()+1)
	for k := range protos {
		var d int64
		for w := 0; w < active; w++ {
			d += p.dists[w][k]
		}
		if d < bestDist {
			best, bestDist = k, d
		}
	}
	p.qw = nil
	p.protoWords = p.protoWords[:0]
	return best, int(bestDist)
}

func (p *Pool) amChunk(lo, hi, w int) {
	d := p.dists[w]
	for k, pw := range p.protoWords {
		d[k] = int64(hv.HammingWords(p.qw[lo:hi], pw[lo:hi]))
	}
}

// SpatialEncode runs the full Fig. 2 spatial encoder in parallel:
// bind every channel, append the tie-break vector for even channel
// counts, majority into dst. bound must provide scratch for
// len(im)(+1) vectors of the right dimension.
func (p *Pool) SpatialEncode(dst hv.Vector, bound, im, cim []hv.Vector) {
	if len(im) != len(cim) {
		panic(fmt.Sprintf("parallel: SpatialEncode: %d items for %d levels", len(im), len(cim)))
	}
	n := len(im)
	need := n
	if n%2 == 0 {
		need++
	}
	if len(bound) < need {
		panic(fmt.Sprintf("parallel: SpatialEncode: need %d scratch vectors, got %d", need, len(bound)))
	}
	for c := 0; c < n; c++ {
		p.Xor(bound[c], im[c], cim[c])
	}
	set := bound[:n]
	if n%2 == 0 {
		p.Xor(bound[n], bound[0], bound[1])
		set = bound[:n+1]
	}
	p.Majority(dst, set)
}
