package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one declared metric, as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Bounds: the share of the parent's median by which an end-to-end
// metric may worsen. The lock heap moves only with allocation sizes
// (about 1% seed to seed).
//
// Throughput is gated as a ratio to the sync.RWMutex control measured
// in the same rounds, not in ops/s. On a shared 2-vCPU VM the host's
// speed drifts by 15-50% over minutes, and every absolute figure drifts
// with it: over ten seeds the quartile spread of ops/s and of the
// median latencies reached 0.07-0.17 in ordinary periods, that of ops/s
// 0.27-0.40 over eight 20 s runs in a noisy one, and the p90s'
// 0.22-0.31. The ratio's stayed at 0.03-0.09 in the ordinary periods
// and 0.12-0.16 in the noisy one. The control is the standard library,
// which a change to this repository cannot move, so the ratio moves
// only with the lock. The absolute ops/s and the p50/p90/p99 of reads
// and writes are printed beside every ratio; the traced run reports
// ops/s and the tails as per-layer metrics. Latency is not gated as a
// ratio: the control's own write latency on hot-r99 is bimodal run to
// run.
//
// The simulator's wall time is not gated either: identical simulations
// took 0.42 s or 0.67 s depending on the host's state (CPU time equal
// to wall time, so not steal), a quartile spread of 0.28 over ten
// runs. The traced run reports its speed as sim.ns_per_step.
const (
	boundOps   = 0.25
	boundSetup = 0.25
	boundHeap  = 0.10
)

func endToEndDefs() []metricDef {
	var out []metricDef
	for _, k := range lineup {
		out = append(out,
			metricDef{k + ".ops_vs_rwmutex", "x", "higher", boundOps})
	}
	return append(out,
		metricDef{"setup_s", "s", "lower", boundSetup},
		metricDef{"heap_bytes", "B", "lower", boundHeap})
}

// ratioBases says what each ratio counts and over what; the traced run
// prints it beside the values.
var ratioBases = map[string]string{
	"csnzi.tree_arrive_ratio":    "csnzi.arrive.tree / (csnzi.arrive.root + csnzi.arrive.tree + csnzi.arrive.fail)",
	"csnzi.arrive_fail_ratio":    "csnzi.arrive.fail / (csnzi.arrive.root + csnzi.arrive.tree + csnzi.arrive.fail)",
	"csnzi.cas_retry_per_arrive": "csnzi.cas.retry / (csnzi.arrive.root + csnzi.arrive.tree + csnzi.arrive.fail)",
	"goll.handoff_per_write":     "goll.handoff / write ops in the traced window",
	"foll.read_join_ratio":       "foll.read.join / read ops in the traced window",
	"roll.read_join_ratio":       "roll.read.join / read ops in the traced window",
	"roll.overtake_per_read":     "roll.overtake / read ops in the traced window",
	"roll.hint_hit_ratio":        "roll.hint.hit / read ops in the traced window",
	"bravo.fast_read_ratio":      "bravo.read.fast / (bravo.read.fast + bravo.read.slow)",
	"bravo.revoke_per_write":     "bravo.revoke / write ops in the traced window",
	"bravo.slot_collision_ratio": "bravo.slot.collision / (bravo.read.fast + bravo.read.slow)",
	"bravo.drain_wait_ns":        "bravo.drain.wait sum / bravo.drain.wait count (mean per revocation)",
	"park.parks_per_acquire":     "park.park / acquisitions, facade roll with WaitAdaptive replaying the stream",
	"park.yields_per_acquire":    "park.yield / acquisitions, facade roll with WaitAdaptive replaying the stream",
	"sim.remote_fraction":        "cross-chip accesses / all simulated memory accesses",
}

func perLayerDefs() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, k := range lineup {
		add(k+".read_p50_ns", "ns", "lower")
		add(k+".write_p50_ns", "ns", "lower")
		add(k+".read_p90_ns", "ns", "lower")
		add(k+".write_p90_ns", "ns", "lower")
		add(k+".read_p99_ns", "ns", "lower")
		add(k+".write_p99_ns", "ns", "lower")
		add(k+".acquire_read_ns", "ns", "lower")
		add(k+".acquire_write_ns", "ns", "lower")
		add(k+".release_ns", "ns", "lower")
		add(k+".hold_ns", "ns", "lower")
		add(k+".lock_bytes", "B", "lower")
	}
	for _, k := range lineup {
		add("ollock."+k+".read_ns", "ns", "lower")
		add("ollock."+k+".write_ns", "ns", "lower")
	}
	add("self.ollock.read_ns", "ns", "lower")
	for _, n := range []string{"csnzi", "rind.csnzi", "rind.central", "rind.sharded"} {
		add(n+".read_ns", "ns", "lower")
	}
	add("self.rind.read_ns", "ns", "lower")
	for _, k := range lineup {
		add(k+".csnzi.tree_arrive_ratio", "tree/arrive", "lower")
		add(k+".csnzi.arrive_fail_ratio", "fail/arrive", "lower")
		add(k+".csnzi.cas_retry_per_arrive", "retry/arrive", "lower")
	}
	for _, a := range []string{"goll", "foll", "roll"} {
		add(a+".read_ns", "ns", "lower")
		add(a+".write_ns", "ns", "lower")
		add("self."+a+".read_ns", "ns", "lower")
	}
	add("goll.handoff_per_write", "handoff/write", "lower")
	add("foll.read_join_ratio", "join/read", "higher")
	add("roll.read_join_ratio", "join/read", "higher")
	add("roll.overtake_per_read", "overtake/read", "higher")
	add("roll.hint_hit_ratio", "hit/read", "higher")
	add("bravo.read_ns", "ns", "lower")
	add("bravo.write_ns", "ns", "lower")
	add("self.bravo.read_ns", "ns", "lower")
	add("bravo-roll.bravo.fast_read_ratio", "fast/read", "higher")
	add("bravo-roll.bravo.revoke_per_write", "revoke/write", "lower")
	add("bravo-roll.bravo.slot_collision_ratio", "collision/read", "lower")
	add("bravo-roll.bravo.drain_wait_ns", "ns", "lower")
	add("park.adaptive.write_ns", "ns", "lower")
	add("park.array.write_ns", "ns", "lower")
	add("park.parks_per_acquire", "park/acquire", "lower")
	add("park.yields_per_acquire", "yield/acquire", "lower")
	for _, s := range []string{"stats", "trace", "prof"} {
		add("seam."+s+".read_ns", "ns", "lower")
	}
	for _, k := range lineup {
		add(k+".ops_per_s", "ops/s", "higher")
		add(k+".traced_ops_per_s", "ops/s", "higher")
	}
	add("sim.steps", "steps", "lower")
	add("sim.ns_per_step", "ns", "lower")
	for _, k := range lineup {
		add(k+".sim.cycles", "cycles", "lower")
		add(k+".sim.remote_fraction", "remote/access", "lower")
	}
	add("ref.rwmutex.read_ns", "ns", "lower")
	add("ref.rwmutex.write_ns", "ns", "lower")
	add("ref.rwmutex.ops_per_s", "ops/s", "higher")
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, its correctness counts and the
// human-readable lines printed before the result.
type report struct {
	metrics   map[string]metric
	attempted uint64
	failed    uint64
	lines     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{v, unit}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail counts n failed ops, with a line saying why.
func (r *report) fail(n uint64, format string, args ...any) {
	if n == 0 {
		return
	}
	r.failed += n
	r.printf("FAILED %d: %s", n, fmt.Sprintf(format, args...))
}

// checkDefs reports any declared metric the run did not produce, or
// produced with another unit.
func (r *report) checkDefs(defs []metricDef) error {
	var bad []string
	for _, d := range defs {
		m, ok := r.metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			bad = append(bad, d.Name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("metrics missing or with the wrong unit: %s", strings.Join(bad, ", "))
	}
	return nil
}

func (r *report) result() string {
	if r.attempted == 0 {
		r.attempted = 1
		r.failed++
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// provenance describes the machine, toolchain and inputs of a run.
func provenance(root, workload string, seed uint64, seconds, trace int) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(root),
		"clients":    clients,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the checkout's commit, or "unknown" when the
// checkout is not a git work tree. The search stops at the checkout
// root, so an enclosing repository is never reported.
func gitCommit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile
// of v.
func quartileSpread(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[3*len(s)/4] - s[len(s)/4]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
