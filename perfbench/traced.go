package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ollock"
)

// tracedKind is one kind's traced run: facade-boundary spans and the
// lock's own counters over the traced window, and the throughput and
// tail latency of the same kind with its counters off.
type tracedKind struct {
	opsPerSec          float64
	plainOpsPerSec     float64 // counters off, no spans
	ops, reads, writes uint64
	readOp, writeOp    hist // op spans, ns
	readLat, writeLat  hist // counters off, no spans: timed as the end-to-end run times ops
	acqRead, acqWrite  hist // acquire spans
	release, hold      hist
	counters           map[string]float64 // counter deltas; hist sums and counts as <name>.sum/.count
	trace              []opTrace
}

// traceCap bounds each client's trace buffer.
const traceCap = 4096

// counterTotals returns the lock's counters, with each histogram's sum
// and count as <name>.sum and <name>.count.
func counterTotals(l ollock.Lock) map[string]float64 {
	out := map[string]float64{}
	sn, ok := ollock.SnapshotOf(l)
	if !ok {
		return out
	}
	for name, v := range sn.Counters {
		out[name] = float64(v)
	}
	for name, h := range sn.Hists {
		out[name+".sum"] = float64(h.Sum)
		out[name+".count"] = float64(h.Count)
	}
	return out
}

// runTracedKind runs kind twice for d each. First as the end-to-end
// run builds it, counters off and no spans, for its throughput and tail
// latencies; then set up afresh with its counters on, recording spans.
// It returns both instances for their correctness checks.
func runTracedKind(kind string, streams [][]op, d time.Duration) (tracedKind, [2]*instance) {
	var tk tracedKind
	plain := setUp(kind, streams)
	quiesce()
	var ts [clients]tally
	el := plain.drive(streams, d, 0, &ts)
	for c := range ts {
		tk.readLat.merge(&ts[c].read)
		tk.writeLat.merge(&ts[c].write)
		tk.plainOpsPerSec += float64(ts[c].ops)
	}
	tk.plainOpsPerSec /= el.Seconds()

	in := setUp(kind, streams, ollock.WithStats(""))
	before := counterTotals(in.lock)
	quiesce()
	ts = [clients]tally{}
	for c := range ts {
		ts[c].trace = make([]opTrace, 0, traceCap)
	}
	el = in.drive(streams, d, 0, &ts)
	tk.counters = counterTotals(in.lock)
	for name, v := range before {
		tk.counters[name] -= v
	}
	for c := range ts {
		t := &ts[c]
		tk.ops += t.ops
		tk.reads += t.reads
		tk.writes += t.writes
		for _, tr := range t.trace {
			if tr.write {
				tk.writeOp.record(tr.done - tr.call)
				tk.acqWrite.record(tr.acquired - tr.call)
			} else {
				tk.readOp.record(tr.done - tr.call)
				tk.acqRead.record(tr.acquired - tr.call)
			}
			tk.hold.record(tr.rel - tr.acquired)
			tk.release.record(tr.done - tr.rel)
		}
		tk.trace = append(tk.trace, t.trace...)
	}
	tk.opsPerSec = float64(tk.ops) / el.Seconds()
	return tk, [2]*instance{plain, in}
}

// lockBytes is the live heap one lock and its clients' Procs take,
// averaged over n locks.
func lockBytes(kind string) float64 {
	const n = 1024
	keep := make([]any, 0, 3*n)
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		l := newLock(kind)
		keep = append(keep, l)
		for c := 0; c < clients; c++ {
			keep = append(keep, l.NewProc())
		}
	}
	b := liveHeapSince(&before)
	runtime.KeepAlive(keep)
	return b / n
}

// writeSpans writes every traced op as four spans, one per line:
// op id, span name, parent span name ("-" for the root), start and end
// in ns since the benchmark started. The first line is the run's
// provenance.
func writeSpans(path, provenance string, traced map[string]tracedKind) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# provenance %s\n", provenance)
	fmt.Fprintln(w, "kind\top_id\tspan\tparent\tstart_ns\tend_ns")
	for _, k := range lineup {
		for _, tr := range traced[k].trace {
			name := "read"
			if tr.write {
				name = "write"
			}
			fmt.Fprintf(w, "%s\t%d\t%s\t-\t%d\t%d\n", k, tr.id, name, tr.call, tr.done)
			fmt.Fprintf(w, "%s\t%d\tacquire\t%s\t%d\t%d\n", k, tr.id, name, tr.call, tr.acquired)
			fmt.Fprintf(w, "%s\t%d\thold\t%s\t%d\t%d\n", k, tr.id, name, tr.acquired, tr.rel)
			fmt.Fprintf(w, "%s\t%d\trelease\t%s\t%d\t%d\n", k, tr.id, name, tr.rel, tr.done)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
