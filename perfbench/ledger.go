package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ollock"
	"ollock/internal/bravo"
	"ollock/internal/csnzi"
	"ollock/internal/foll"
	"ollock/internal/goll"
	"ollock/internal/rind"
	"ollock/internal/roll"
)

// The ledger replays the workload's op stream into each layer's own
// entry point, with an empty critical section, so that one layer's self
// time is the difference between two rows.

// csnziProc drives a bare C-SNZI as a read lock.
type csnziProc struct {
	c  *csnzi.CSNZI
	id int
	t  csnzi.Ticket
}

func (p *csnziProc) RLock()   { p.t = p.c.Arrive(p.id) }
func (p *csnziProc) RUnlock() { p.c.Depart(p.t) }
func (p *csnziProc) Lock()    { panic("perfbench: csnzi row replays reads only") }
func (p *csnziProc) Unlock()  { panic("perfbench: csnzi row replays reads only") }

// indProc drives a rind.Indicator as a read lock.
type indProc struct {
	ind rind.Indicator
	id  int
	t   rind.Ticket
}

func (p *indProc) RLock()   { p.t = p.ind.Arrive(p.id) }
func (p *indProc) RUnlock() { p.ind.Depart(p.t) }
func (p *indProc) Lock()    { panic("perfbench: indicator row replays reads only") }
func (p *indProc) Unlock()  { panic("perfbench: indicator row replays reads only") }

// layerRow is one ledger row: a constructor for one lock instance that
// returns a Proc factory (called once per client), and whether the
// layer has a write side.
type layerRow struct {
	name      string
	readsOnly bool
	newLock   func() func(id int) ollock.Proc
}

func facadeRow(name, kind string, opts ...ollock.Option) layerRow {
	return layerRow{name: name, newLock: func() func(int) ollock.Proc {
		l := ollock.MustNew(ollock.Kind(kind), clients, opts...)
		return func(int) ollock.Proc { return l.NewProc() }
	}}
}

func ledgerRows() []layerRow {
	return []layerRow{
		{name: "csnzi", readsOnly: true, newLock: func() func(int) ollock.Proc {
			c := csnzi.New()
			return func(id int) ollock.Proc { return &csnziProc{c: c, id: id} }
		}},
		indicatorRow("rind.csnzi", func() rind.Indicator { return rind.NewCSNZI() }),
		indicatorRow("rind.central", func() rind.Indicator { return rind.NewCentral() }),
		indicatorRow("rind.sharded", func() rind.Indicator { return rind.NewSharded(0) }),
		{name: "goll", newLock: func() func(int) ollock.Proc {
			l := goll.New()
			return func(int) ollock.Proc { return l.NewProc() }
		}},
		{name: "foll", newLock: func() func(int) ollock.Proc {
			l := foll.New(clients)
			return func(int) ollock.Proc { return l.NewProc() }
		}},
		{name: "roll", newLock: func() func(int) ollock.Proc {
			l := roll.New(clients)
			return func(int) ollock.Proc { return l.NewProc() }
		}},
		{name: "bravo", newLock: func() func(int) ollock.Proc {
			r := roll.New(clients)
			b := bravo.New(func() bravo.BaseProc { return r.NewProc() })
			return func(int) ollock.Proc { return b.NewProc() }
		}},
		facadeRow("ollock.goll", "goll"),
		facadeRow("ollock.foll", "foll"),
		facadeRow("ollock.roll", "roll"),
		facadeRow("ollock.bravo-roll", "bravo-roll"),
		facadeRow("park.adaptive", "roll", ollock.WithWait(ollock.WaitAdaptive)),
		facadeRow("park.array", "roll", ollock.WithWait(ollock.WaitArray)),
		facadeRow("seam.stats", "roll", ollock.WithStats("")),
		{name: "seam.trace", newLock: func() func(int) ollock.Proc {
			l := ollock.MustNew(ollock.ROLL, clients, ollock.WithTrace(seamTracer.Register("roll")))
			return func(int) ollock.Proc { return l.NewProc() }
		}},
		{name: "seam.prof", newLock: func() func(int) ollock.Proc {
			l := ollock.MustNew(ollock.ROLL, clients, ollock.WithProfile(seamProfiler.Register("roll")))
			return func(int) ollock.Proc { return l.NewProc() }
		}},
		{name: "ref.rwmutex", newLock: func() func(int) ollock.Proc {
			l := &rwmutex{}
			return func(int) ollock.Proc { return &l.RWMutex }
		}},
	}
}

// The seam rows' recorders: small rings, default sampling rate.
var (
	seamTracer   = ollock.NewTracer(64)
	seamProfiler = ollock.NewProfiler(0)
)

func indicatorRow(name string, mk func() rind.Indicator) layerRow {
	return layerRow{name: name, readsOnly: true, newLock: func() func(int) ollock.Proc {
		ind := mk()
		return func(id int) ollock.Proc { return &indProc{ind: ind, id: id} }
	}}
}

// buildRow makes one instance of the row's layer and each client's
// Proc on it.
func buildRow(r layerRow) [clients]ollock.Proc {
	var procs [clients]ollock.Proc
	mk := r.newLock()
	for c := range procs {
		procs[c] = mk(c)
	}
	return procs
}

// replayClient replays one client's stream against p with an empty
// critical section until stop, timing every write and one read in
// readSampleMask+1. It returns the number of ops done.
func replayClient(p ollock.Proc, stream []op, readsOnly bool, stop *atomic.Bool, rh, wh *hist) uint64 {
	var n, reads uint64
	pos := 0
	for {
		if n&63 == 0 && stop.Load() {
			return n
		}
		o := stream[pos]
		if pos++; pos == len(stream) {
			pos = 0
		}
		switch {
		case o.write():
			if readsOnly {
				continue
			}
			t0 := now()
			p.Lock()
			p.Unlock()
			wh.record(now() - t0)
		case reads&readSampleMask == 0:
			t0 := now()
			p.RLock()
			p.RUnlock()
			rh.record(now() - t0)
			reads++
		default:
			p.RLock()
			p.RUnlock()
			reads++
		}
		n++
	}
}

// rowRep is one repetition of one ledger row.
type rowRep struct {
	readNs, writeNs, opsPerSec float64
	ops                        uint64
}

func replayRow(procs [clients]ollock.Proc, streams [][]op, readsOnly bool, d time.Duration, calib float64) rowRep {
	var stop atomic.Bool
	var wg sync.WaitGroup
	var rh, wh [clients]hist
	var ops [clients]uint64
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops[c] = replayClient(procs[c], streams[c], readsOnly, &stop, &rh[c], &wh[c])
		}(c)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	el := time.Since(start)
	rh[0].merge(&rh[1])
	wh[0].merge(&wh[1])
	rep := rowRep{ops: ops[0] + ops[1]}
	rep.opsPerSec = float64(rep.ops) / el.Seconds()
	rep.readNs = rh[0].quantile(0.5) - calib
	if wh[0].n > 0 {
		rep.writeNs = wh[0].quantile(0.5) - calib
	}
	return rep
}

// timerCalib is the median cost the two clock reads add to one timed
// interval; ledger rows subtract it.
func timerCalib() float64 {
	var h hist
	for i := 0; i < 200000; i++ {
		t0 := now()
		h.record(now() - t0)
	}
	return h.quantile(0.5)
}

// ledgerResult holds each row's median over repetitions, and each
// row's read time per repetition, in repetition order.
type ledgerResult struct {
	read, write, opsPerSec            map[string]float64
	readReps                          map[string][]float64
	parksPerAcquire, yieldsPerAcquire float64
	calib                             float64
}

// runLedger replays every row reps times, interleaving rows within
// each repetition. Each row's instance is built afresh per repetition.
func runLedger(streams [][]op, reps int, d time.Duration) ledgerResult {
	rows := ledgerRows()
	res := ledgerResult{
		read: map[string]float64{}, write: map[string]float64{},
		opsPerSec: map[string]float64{}, readReps: map[string][]float64{},
		calib: timerCalib(),
	}
	reads := res.readReps
	writes := map[string][]float64{}
	rates := map[string][]float64{}
	for r := 0; r < reps; r++ {
		for _, row := range rows {
			runtime.GC() // drop the previous row's instances before building
			rep := replayRow(buildRow(row), streams, row.readsOnly, d, res.calib)
			reads[row.name] = append(reads[row.name], rep.readNs)
			rates[row.name] = append(rates[row.name], rep.opsPerSec)
			if !row.readsOnly {
				writes[row.name] = append(writes[row.name], rep.writeNs)
			}
		}
	}
	for name, v := range reads {
		res.read[name] = median(v)
		res.opsPerSec[name] = median(rates[name])
	}
	for name, v := range writes {
		res.write[name] = median(v)
	}
	res.parksPerAcquire, res.yieldsPerAcquire = parkCounts(streams, d)
	return res
}

// parkCounts replays the stream once into facade roll under the
// adaptive wait policy with its counters on, and returns parks and
// yields per acquisition.
func parkCounts(streams [][]op, d time.Duration) (parks, yields float64) {
	l := ollock.MustNew(ollock.ROLL, clients, ollock.WithWait(ollock.WaitAdaptive), ollock.WithStats(""))
	var procs [clients]ollock.Proc
	for c := range procs {
		procs[c] = l.NewProc()
	}
	rep := replayRow(procs, streams, false, d, 0)
	sn, ok := ollock.SnapshotOf(l)
	if !ok || rep.ops == 0 {
		return 0, 0
	}
	return float64(sn.Counter("park.park")) / float64(rep.ops), float64(sn.Counter("park.yield")) / float64(rep.ops)
}

// selfRows derives each layer's self time from a row and the row
// beneath it: the median over repetitions of their difference within
// one repetition. The two rows of a pair run a fraction of a second
// apart, so a shift of the host between repetitions cancels out (on
// the 2-vCPU VM, contended ops get 4-8x cheaper for stretches of tens
// to hundreds of ms). A self time that is negative by more than the
// quartile spread of its differences is flagged.
func selfRows(lr ledgerResult) (map[string]float64, []string) {
	pairs := [][3]string{
		{"self.rind.read_ns", "rind.csnzi", "csnzi"},
		{"self.goll.read_ns", "goll", "rind.csnzi"},
		{"self.foll.read_ns", "foll", "rind.csnzi"},
		{"self.roll.read_ns", "roll", "rind.csnzi"},
		{"self.bravo.read_ns", "bravo", "roll"},
		{"self.ollock.read_ns", "ollock.roll", "roll"},
	}
	out := map[string]float64{}
	var flags []string
	for _, p := range pairs {
		a, b := lr.readReps[p[1]], lr.readReps[p[2]]
		diffs := make([]float64, len(a))
		for i := range a {
			diffs[i] = a[i] - b[i]
		}
		v := median(diffs)
		out[p[0]] = v
		if tol := quartileSpread(diffs); v < -tol {
			flags = append(flags, fmt.Sprintf("%s = %.2f ns is negative beyond the quartile spread of its differences (%.2f ns)", p[0], v, tol))
		}
	}
	return out, flags
}
