// Command perfbench is the repository's benchmark: a closed-loop load
// generator that drives the ollock facade over a kvstore-shaped store
// (a map read under RLock, written under Lock) with pre-generated,
// seeded op streams, and runs the same lineup on the simulated T5440.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot-r99 --seed 1 --seconds 50 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// run and the per-layer ledger instead. The last line of standard
// output is the result as one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Run shape. The end-to-end run splits --seconds into rounds × kinds
// slices. The traced run also drives the lineup on the simulated
// T5440: it simulates the seed's input at the paper's 256 threads,
// twice, and requires both passes to agree.
const (
	rounds      = 40
	setupReps   = 9
	ledgerReps  = 11
	simReadFrac = 0.99
	simThreads  = 256
	simOps      = 16 // ops per simulated thread in the traced run
	simPasses   = 2
)

func main() {
	workload := flag.String("workload", "", "workload: hot-r99 or hot-r50")
	seed := flag.Uint64("seed", 1, "seed of the generated op streams")
	seconds := flag.Int("seconds", 50, "measurement time in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer ledger")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the traced run's span file")
	flag.Parse()

	sp, ok := workloadByName(*workload)
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of hot-r99, hot-r50), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	prov, _ := json.Marshal(provenance(root, sp.name, *seed, *seconds, *traceMode))
	fmt.Printf("# perfbench %s: %s\n# provenance %s\n", sp.name, sp.why, prov)

	d := time.Duration(*seconds) * time.Second
	var r *report
	var defs []metricDef
	if *traceMode == 0 {
		defs = endToEndDefs()
		r = endToEnd(sp, *seed, d)
	} else {
		defs = perLayerDefs()
		r = perLayer(sp, *seed, d, *out, string(prov))
	}
	if err := r.checkDefs(defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	fmt.Println(r.result())
	if r.failed > 0 {
		os.Exit(1)
	}
}

// endToEnd sets the lineup and the control up, measures them in
// interleaved rounds, and checks the stores.
func endToEnd(sp spec, seed uint64, d time.Duration) *report {
	r := newReport()
	streams := genStreams(sp, seed, clients, streamLen)
	hs := setUpAll(streams, setupReps)
	r.attempted += hs.attempt
	r.fail(hs.failed, "torn reads, exclusion violations or lost updates during the discarded set-ups")
	names := append(append([]string{}, lineup...), refKind)
	quiesce()
	res := measureRounds(hs.insts, names, streams, rounds, d/time.Duration(rounds*len(names)))

	r.printf("# %-10s %12s %10s %32s %32s %12s", "kind", "ops/s", "x RWMutex", "read p50/p90/p99 ns (samples)", "write p50/p90/p99 ns (samples)", "lock heap B")
	heap := 0.0
	for _, k := range names {
		in, kr := hs.insts[k], res[k]
		check(r, k, in)
		var rq, wq [len(reportQs)]float64
		for i := range reportQs {
			rq[i], wq[i] = median(kr.read[i]), median(kr.write[i])
		}
		// vsRef pairs each round's slice with the control's slice of the
		// same round, so most host drift slower than a round cancels out.
		vsRef := make([]float64, rounds)
		for i, v := range kr.opsPerSec {
			vsRef[i] = v / res[refKind].opsPerSec[i]
		}
		r.printf("# %-10s %12.0f %10.4f %7.0f/%-7.0f/%-7.0f (%7d) %7.0f/%-7.0f/%-7.0f (%7d) %12.0f",
			k, median(kr.opsPerSec), median(vsRef), rq[0], rq[1], rq[2], kr.readN, wq[0], wq[1], wq[2], kr.writeN, hs.lockHeap[k])
		if k == refKind {
			continue
		}
		r.set(k+".ops_vs_rwmutex", median(vsRef), "x")
		heap = max(heap, hs.lockHeap[k])
	}
	r.printf("# ops/s, x RWMutex (ops/s over the control's in the same round) and percentiles are medians over %d rounds; reads timed 1 in %d, every write timed", rounds, readSampleMask+1)
	r.printf("# lock heap: live heap a kind's set-up adds beyond the control's (%.0f B: store and sync.RWMutex), median of %d set-ups", hs.storeHeap, setupReps)
	r.set("setup_s", hs.setupS, "s")
	r.set("heap_bytes", heap, "B")
	return r
}

// check counts in's ops and its failures: torn reads, exclusion
// violations and lost updates.
func check(r *report, kind string, in *instance) {
	r.attempted += in.ops
	r.fail(in.failed, "%s: torn reads or exclusion violations", kind)
	r.fail(in.lostUpdates(), "%s: record versions differ from the writes applied", kind)
}

// quiesce collects the set-up's garbage and returns it to the OS now,
// so neither the collector nor the background scavenger takes a P from
// a client (and stalls a lock holder) while the clients are measured.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// addSimChecks counts a simulated stage's ops and its failures:
// exclusion violations and any pass that did not repeat the first.
func addSimChecks(r *report, st simStage) {
	r.attempted += uint64(st.attempted)
	r.fail(uint64(st.violations), "simulated exclusion violations")
	r.fail(uint64(st.mismatches), "simulator not deterministic")
	for _, n := range st.notes {
		r.printf("# %s", n)
	}
}

// perLayer is the traced run: facade spans and lock counters per
// kind, the layer ledger, and the simulator's per-layer figures.
func perLayer(sp spec, seed uint64, d time.Duration, out, prov string) *report {
	r := newReport()
	streams := genStreams(sp, seed, clients, streamLen)
	traced := map[string]tracedKind{}
	for _, k := range lineup {
		tk, insts := runTracedKind(k, streams, d/20)
		for _, in := range insts {
			check(r, k, in)
		}
		traced[k] = tk
		r.set(k+".read_p50_ns", tk.readOp.quantile(0.5), "ns")
		r.set(k+".write_p50_ns", tk.writeOp.quantile(0.5), "ns")
		r.set(k+".read_p90_ns", tk.readLat.quantile(0.90), "ns")
		r.set(k+".write_p90_ns", tk.writeLat.quantile(0.90), "ns")
		r.set(k+".read_p99_ns", tk.readLat.quantile(0.99), "ns")
		r.set(k+".write_p99_ns", tk.writeLat.quantile(0.99), "ns")
		r.set(k+".acquire_read_ns", tk.acqRead.quantile(0.5), "ns")
		r.set(k+".acquire_write_ns", tk.acqWrite.quantile(0.5), "ns")
		r.set(k+".release_ns", tk.release.quantile(0.5), "ns")
		r.set(k+".hold_ns", tk.hold.quantile(0.5), "ns")
		r.set(k+".ops_per_s", tk.plainOpsPerSec, "ops/s")
		r.set(k+".traced_ops_per_s", tk.opsPerSec, "ops/s")
		r.set(k+".lock_bytes", lockBytes(k), "B")
		c := tk.counters
		arrivals := c["csnzi.arrive.root"] + c["csnzi.arrive.tree"] + c["csnzi.arrive.fail"]
		r.set(k+".csnzi.tree_arrive_ratio", ratio(c["csnzi.arrive.tree"], arrivals), "tree/arrive")
		r.set(k+".csnzi.arrive_fail_ratio", ratio(c["csnzi.arrive.fail"], arrivals), "fail/arrive")
		r.set(k+".csnzi.cas_retry_per_arrive", ratio(c["csnzi.cas.retry"], arrivals), "retry/arrive")
		reads, writes := float64(tk.reads), float64(tk.writes)
		switch k {
		case "goll":
			r.set("goll.handoff_per_write", ratio(c["goll.handoff"], writes), "handoff/write")
		case "foll":
			r.set("foll.read_join_ratio", ratio(c["foll.read.join"], reads), "join/read")
		case "roll":
			r.set("roll.read_join_ratio", ratio(c["roll.read.join"], reads), "join/read")
			r.set("roll.overtake_per_read", ratio(c["roll.overtake"], reads), "overtake/read")
			r.set("roll.hint_hit_ratio", ratio(c["roll.hint.hit"], reads), "hit/read")
		case "bravo-roll":
			bReads := c["bravo.read.fast"] + c["bravo.read.slow"]
			r.set("bravo-roll.bravo.fast_read_ratio", ratio(c["bravo.read.fast"], bReads), "fast/read")
			r.set("bravo-roll.bravo.revoke_per_write", ratio(c["bravo.revoke"], writes), "revoke/write")
			r.set("bravo-roll.bravo.slot_collision_ratio", ratio(c["bravo.slot.collision"], bReads), "collision/read")
			r.set("bravo-roll.bravo.drain_wait_ns", ratio(c["bravo.drain.wait.sum"], c["bravo.drain.wait.count"]), "ns")
		}
		r.printf("# traced %-10s %10.0f ops/s  %d reads %d writes  %d ops with spans (1 in %d); counters off, no spans: %.0f ops/s, p90/p99 read %.0f/%.0f ns (%d samples) write %.0f/%.0f ns (%d samples)",
			k, tk.opsPerSec, tk.reads, tk.writes, len(tk.trace), traceEvery, tk.plainOpsPerSec, tk.readLat.quantile(0.90), tk.readLat.quantile(0.99), tk.readLat.n, tk.writeLat.quantile(0.90), tk.writeLat.quantile(0.99), tk.writeLat.n)
	}
	spans := filepath.Join(out, "spans-"+sp.name+".tsv")
	if err := writeSpans(spans, prov, traced); err != nil {
		r.printf("# spans not written: %v", err)
	} else {
		r.printf("# spans written to %s", spans)
	}

	rowDur := d / 2 / time.Duration(ledgerReps*len(ledgerRows())+1)
	lr := runLedger(streams, ledgerReps, rowDur)
	r.printf("# ledger: %d clients, %v per row x %d reps, timer overhead %.0f ns subtracted", clients, rowDur.Round(time.Millisecond), ledgerReps, lr.calib)
	for _, row := range ledgerRows() {
		r.printf("# ledger %-18s read %8.2f ns (quartile spread %6.2f)  write %8.2f ns  %12.0f ops/s", row.name, lr.read[row.name], quartileSpread(lr.readReps[row.name]), lr.write[row.name], lr.opsPerSec[row.name])
	}
	for _, n := range []string{"csnzi", "rind.csnzi", "rind.central", "rind.sharded", "goll", "foll", "roll", "bravo", "seam.stats", "seam.trace", "seam.prof"} {
		r.set(n+".read_ns", lr.read[n], "ns")
	}
	for _, n := range []string{"goll", "foll", "roll", "bravo"} {
		r.set(n+".write_ns", lr.write[n], "ns")
	}
	for _, k := range lineup {
		r.set("ollock."+k+".read_ns", lr.read["ollock."+k], "ns")
		r.set("ollock."+k+".write_ns", lr.write["ollock."+k], "ns")
	}
	r.set("park.adaptive.write_ns", lr.write["park.adaptive"], "ns")
	r.set("park.array.write_ns", lr.write["park.array"], "ns")
	r.set("park.parks_per_acquire", lr.parksPerAcquire, "park/acquire")
	r.set("park.yields_per_acquire", lr.yieldsPerAcquire, "yield/acquire")
	r.set("ref.rwmutex.read_ns", lr.read["ref.rwmutex"], "ns")
	r.set("ref.rwmutex.write_ns", lr.write["ref.rwmutex"], "ns")
	r.set("ref.rwmutex.ops_per_s", lr.opsPerSec["ref.rwmutex"], "ops/s")
	selfs, flags := selfRows(lr)
	for n, v := range selfs {
		r.set(n, v, "ns")
	}
	for _, f := range flags {
		r.printf("# FLAG %s", f)
	}

	st := runSimStage(simThreads, simOps, seed, simPasses)
	r.printf("# sim: lineup on the T5440 at %d threads x %d ops (%.0f%% reads), %d passes", simThreads, simOps, simReadFrac*100, simPasses)
	for _, res := range st.first {
		r.printf("# sim %-10s %12d cycles %14.0f ops/s %10d steps  %.4f remote", res.kind, res.cycles, res.opsPerSec(), res.steps, res.remote)
	}
	addSimChecks(r, st)
	var steps int64
	for _, res := range st.first {
		steps += res.steps
		r.set(res.kind+".sim.cycles", float64(res.cycles), "cycles")
		r.set(res.kind+".sim.remote_fraction", res.remote, "remote/access")
	}
	r.set("sim.steps", float64(steps), "steps")
	r.set("sim.ns_per_step", median(st.passStep), "ns")

	for _, def := range perLayerDefs() {
		base := ""
		for suffix, b := range ratioBases {
			if strings.HasSuffix(def.Name, suffix) {
				base = "  base: " + b
			}
		}
		m := r.metrics[def.Name]
		r.printf("# %-40s %16.4f %-14s%s", def.Name, m.Value, def.Unit, base)
	}
	return r
}
