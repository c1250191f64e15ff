package main

import (
	"fmt"
	"runtime"
	"time"

	"ollock/internal/sim"
	"ollock/internal/sim/simlock"
)

// simResult is one kind's run on the simulated T5440: virtual-time
// results, the same on every run of one input, and the host's wall
// time for them.
type simResult struct {
	kind       string
	ops        int64
	cycles     int64
	steps      int64
	remote     float64 // fraction of memory accesses that crossed chips
	violations int
	wall       time.Duration
}

// opsPerSec is the simulated throughput at the modelled 1.4 GHz.
func (r *simResult) opsPerSec() float64 { return float64(r.ops) / (float64(r.cycles) / sim.ClockHz) }

// simKind runs one kind: one simulated thread per op list replays its
// list against one lock. The critical section is empty apart from one
// scheduling point (Work(0)), so the host-side occupancy counts can
// see two holders overlap; simulated threads run one at a time, so
// plain ints are safe.
func simKind(kind string, ops [][]bool) simResult {
	f := simlock.ByName(kind)
	if f == nil {
		panic("perfbench: no simulated lock " + kind)
	}
	res := simResult{kind: kind}
	m := sim.New(sim.T5440())
	l := f.New(m, len(ops))
	var readers, writers int
	for i, list := range ops {
		p := l.NewProc(i)
		res.ops += int64(len(list))
		m.Spawn(func(c *sim.Ctx) {
			for _, w := range list {
				if w {
					p.Lock(c)
					writers++
					if writers != 1 || readers != 0 {
						res.violations++
					}
					c.Work(0)
					if writers != 1 || readers != 0 {
						res.violations++
					}
					writers--
					p.Unlock(c)
				} else {
					p.RLock(c)
					readers++
					if writers != 0 {
						res.violations++
					}
					c.Work(0)
					if writers != 0 {
						res.violations++
					}
					readers--
					p.RUnlock(c)
				}
			}
		})
	}
	t0 := time.Now()
	res.cycles = m.Run()
	res.wall = time.Since(t0)
	res.steps = m.Steps()
	var acc, remote int64
	for _, st := range m.ThreadStats() {
		acc += st.Accesses
		remote += st.Remote
	}
	if acc > 0 {
		res.remote = float64(remote) / float64(acc)
	}
	return res
}

// simStage is the lineup run several passes on one input.
type simStage struct {
	first    []simResult // the first pass, reported
	passStep []float64   // per pass: wall ns per scheduler step
	// attempted and violations sum every pass; mismatches counts runs
	// whose cycles or steps differed from the first pass, since the
	// simulator must be deterministic.
	attempted  int64
	violations int
	mismatches int
	notes      []string
}

// runSimStage runs the lineup passes times, threads simulated threads
// with opsPer ops each, drawn from seed.
func runSimStage(threads, opsPer int, seed uint64, passes int) simStage {
	ops := genSimOps(seed, threads, opsPer, simReadFrac)
	var st simStage
	for i := 0; i < passes; i++ {
		st.pass(ops)
	}
	return st
}

// pass runs the lineup once on ops and checks it against the first
// pass. It runs on one P: the simulator runs one goroutine at a time,
// and a single P keeps the VM's cross-CPU wake-up latency out of its
// wall time.
func (st *simStage) pass(ops [][]bool) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	pass := len(st.passStep)
	var wall time.Duration
	var steps int64
	for i, k := range lineup {
		r := simKind(k, ops)
		wall += r.wall
		steps += r.steps
		st.attempted += r.ops
		st.violations += r.violations
		if pass == 0 {
			st.first = append(st.first, r)
		} else if f := st.first[i]; f.cycles != r.cycles || f.steps != r.steps {
			st.mismatches++
			st.notes = append(st.notes, fmt.Sprintf("sim %s pass %d: cycles %d steps %d, first pass cycles %d steps %d",
				k, pass, r.cycles, r.steps, f.cycles, f.steps))
		}
	}
	st.passStep = append(st.passStep, float64(wall.Nanoseconds())/float64(steps))
}
