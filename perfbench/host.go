package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ollock"
)

// lineup is the set of lock kinds every workload runs, in report order;
// refKind is the sync.RWMutex control that runs beside them; the
// end-to-end throughput of each kind is a ratio to it.
var lineup = []string{"goll", "foll", "roll", "bravo-roll"}

const refKind = "rwmutex"

// rwmutex adapts sync.RWMutex to ollock.Lock; every client shares the
// one mutex.
type rwmutex struct{ sync.RWMutex }

func (l *rwmutex) NewProc() ollock.Proc { return &l.RWMutex }

func newLock(kind string, opts ...ollock.Option) ollock.Lock {
	if kind == refKind {
		return &rwmutex{}
	}
	return ollock.MustNew(ollock.Kind(kind), clients, opts...)
}

var epoch = time.Now()

// now is a monotonic clock in ns. One call costs tens of ns on a VM, so
// the hot loops time only sampled ops.
func now() int64 { return int64(time.Since(epoch)) }

// readSampleMask selects the timed reads: one in readSampleMask+1.
// Every write is timed.
const readSampleMask = 15

// traceEvery records spans for one op in traceEvery while a client's
// trace buffer has room.
const traceEvery = 16

// instance is one lock kind guarding its own copy of the store, with
// one Proc per client.
type instance struct {
	st    *store
	lock  ollock.Lock
	procs [clients]ollock.Proc
	pos   [clients]int
	// ops, writes and failed accumulate over every drive; writes is
	// what the records' versions must sum to.
	ops, writes, failed uint64
}

func newInstance(kind string, opts ...ollock.Option) *instance {
	in := &instance{st: newStore(), lock: newLock(kind, opts...)}
	for c := range in.procs {
		in.procs[c] = in.lock.NewProc()
	}
	return in
}

// tally is one client's record of one drive.
type tally struct {
	ops, reads, writes, failed uint64
	read, write                hist // op latency without spans, call to release, ns
	// trace receives the spanned ops; a drive records spans only
	// while it has room, so a nil trace records none.
	trace []opTrace
}

// opTrace holds the four boundary timestamps of one traced op; the
// spans (op, and its acquire/hold/release children) are derived from
// them when the trace is written out.
type opTrace struct {
	id                        uint64
	write                     bool
	call, acquired, rel, done int64
}

// run is client c's closed loop: it replays its stream from where it
// last stopped until stop is set or limit ops are done (limit 0: no
// limit). Every write and one read in readSampleMask+1 is timed; while
// t.trace has room, one op in traceEvery records its spans instead.
func (in *instance) run(c int, stream []op, stop *atomic.Bool, limit uint64, t *tally) {
	p, st, pos := in.procs[c], in.st, in.pos[c]
	var n, reads, writes, failed uint64
	for {
		if n&63 == 0 && (stop.Load() || (limit > 0 && n >= limit)) {
			break
		}
		o := stream[pos]
		if pos++; pos == len(stream) {
			pos = 0
		}
		k := o.key()
		var ok bool
		switch {
		case len(t.trace) < cap(t.trace) && n%traceEvery == 0:
			tr := opTrace{id: uint64(c)<<40 | n, write: o.write(), call: now()}
			if tr.write {
				p.Lock()
				tr.acquired = now()
				ok = st.write(k, c)
				tr.rel = now()
				p.Unlock()
			} else {
				p.RLock()
				tr.acquired = now()
				ok = st.read(k)
				tr.rel = now()
				p.RUnlock()
			}
			tr.done = now()
			t.trace = append(t.trace, tr)
		case o.write():
			t0 := now()
			p.Lock()
			ok = st.write(k, c)
			p.Unlock()
			t.write.record(now() - t0)
		case reads&readSampleMask == 0:
			t0 := now()
			p.RLock()
			ok = st.read(k)
			p.RUnlock()
			t.read.record(now() - t0)
		default:
			p.RLock()
			ok = st.read(k)
			p.RUnlock()
		}
		if o.write() {
			writes++
		} else {
			reads++
		}
		if !ok {
			failed++
		}
		n++
	}
	in.pos[c] = pos
	t.ops, t.reads, t.writes, t.failed = t.ops+n, t.reads+reads, t.writes+writes, t.failed+failed
}

// drive runs every client concurrently, for d when d > 0, else until
// each has done limit ops, and returns the elapsed time.
func (in *instance) drive(streams [][]op, d time.Duration, limit uint64, ts *[clients]tally) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			in.run(c, streams[c], &stop, limit, &ts[c])
		}(c)
	}
	if d > 0 {
		time.Sleep(d)
		stop.Store(true)
	}
	wg.Wait()
	el := time.Since(start)
	for c := range ts {
		in.ops += ts[c].ops
		in.writes += ts[c].writes
		in.failed += ts[c].failed
	}
	return el
}

// lostUpdates is how far the records' versions fall short of (or
// exceed) the writes applied.
func (in *instance) lostUpdates() uint64 {
	v := in.st.versions()
	if v > in.writes {
		return v - in.writes
	}
	return in.writes - v
}

// warmupOps is each client's warm-up before measuring; it is part of
// set-up. A multiple of 64, the loop's stop-check period.
const warmupOps = 1 << 16

// setUp builds kind's store, lock and Procs and warms them up.
func setUp(kind string, streams [][]op, opts ...ollock.Option) *instance {
	in := newInstance(kind, opts...)
	var ts [clients]tally
	in.drive(streams, 0, warmupOps, &ts)
	return in
}

// liveHeapSince collects garbage and returns how much the live heap
// grew since before was read.
func liveHeapSince(before *runtime.MemStats) float64 {
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// hostSetup is the set-up phase of a host workload.
type hostSetup struct {
	insts  map[string]*instance
	setupS float64 // median over reps of the lineup's summed set-up time
	// storeHeap is the live heap the control's set-up adds: the store
	// and a bare sync.RWMutex. lockHeap is what each kind's set-up adds
	// beyond it: the lock, its Procs and whatever the warm-up leaves
	// live. Both are medians over reps.
	storeHeap float64
	lockHeap  map[string]float64
	attempt   uint64 // ops run by discarded set-ups (their checks count too)
	failed    uint64
}

// setUpAll sets the lineup and the control up reps times, timing each
// and measuring the live heap each adds, and keeps the last set of
// instances.
func setUpAll(streams [][]op, reps int) hostSetup {
	hs := hostSetup{lockHeap: map[string]float64{}}
	var sums, stores []float64
	locks := map[string][]float64{}
	for r := 0; r < reps; r++ {
		last := r == reps-1
		insts := map[string]*instance{}
		heap := map[string]float64{}
		var sum float64
		for _, k := range append(append([]string{}, lineup...), refKind) {
			var before runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			in := setUp(k, streams)
			d := time.Since(t0).Seconds()
			if k != refKind {
				sum += d
			}
			heap[k] = liveHeapSince(&before)
			if last {
				insts[k] = in
			} else {
				hs.attempt += in.ops
				hs.failed += in.failed + in.lostUpdates()
			}
			runtime.KeepAlive(in)
		}
		sums = append(sums, sum)
		stores = append(stores, heap[refKind])
		for _, k := range lineup {
			locks[k] = append(locks[k], heap[k]-heap[refKind])
		}
		if last {
			hs.insts = insts
		}
	}
	hs.setupS = median(sums)
	hs.storeHeap = median(stores)
	for k, v := range locks {
		hs.lockHeap[k] = median(v)
	}
	return hs
}

// reportQs are the latency quantiles every round records, in order.
var reportQs = [...]float64{0.50, 0.90, 0.99}

// kindResult is one kind's measured host run.
type kindResult struct {
	opsPerSec     []float64                // per round
	read, write   [len(reportQs)][]float64 // per quantile, per round, ns
	readN, writeN uint64                   // timed samples over all rounds
}

// measureRounds runs rounds rounds; in each, every kind runs alone for
// its slice, in an order that rotates by round, so slow drift of the
// host spreads evenly over the kinds.
func measureRounds(insts map[string]*instance, names []string, streams [][]op, rounds int, slice time.Duration) map[string]*kindResult {
	out := map[string]*kindResult{}
	for _, k := range names {
		out[k] = &kindResult{}
	}
	var ts [clients]tally
	var rh, wh hist
	for r := 0; r < rounds; r++ {
		for j := range names {
			k := names[(j+r)%len(names)]
			in, kr := insts[k], out[k]
			for c := range ts {
				ts[c].ops, ts[c].reads, ts[c].writes, ts[c].failed = 0, 0, 0, 0
				ts[c].read.reset()
				ts[c].write.reset()
			}
			el := in.drive(streams, slice, 0, &ts)
			rh.reset()
			wh.reset()
			var ops uint64
			for c := range ts {
				rh.merge(&ts[c].read)
				wh.merge(&ts[c].write)
				ops += ts[c].ops
			}
			kr.opsPerSec = append(kr.opsPerSec, float64(ops)/el.Seconds())
			for i, q := range reportQs {
				kr.read[i] = append(kr.read[i], rh.quantile(q))
				kr.write[i] = append(kr.write[i], wh.quantile(q))
			}
			kr.readN += rh.n
			kr.writeN += wh.n
		}
	}
	return out
}
