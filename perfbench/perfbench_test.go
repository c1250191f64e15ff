package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

// streamBytes is the canonical encoding the determinism test compares.
func streamBytes(streams [][]op) []byte {
	var b []byte
	for _, s := range streams {
		for _, o := range s {
			b = binary.LittleEndian.AppendUint32(b, uint32(o))
		}
	}
	return b
}

func TestStreamsSameSeedSameBytes(t *testing.T) {
	for _, sp := range workloads {
		a := streamBytes(genStreams(sp, 42, clients, 1<<14))
		b := streamBytes(genStreams(sp, 42, clients, 1<<14))
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: seed 42 gave two different streams", sp.name)
		}
		if c := streamBytes(genStreams(sp, 43, clients, 1<<14)); bytes.Equal(a, c) {
			t.Fatalf("%s: seeds 42 and 43 gave the same stream", sp.name)
		}
	}
}

// TestStreamMix checks the realized read fraction against the target
// and that choices are independent: the chance of a write right after
// a write must match the overall write fraction (a bursty generator
// would raise it, an alternating one lower it).
func TestStreamMix(t *testing.T) {
	for _, sp := range workloads {
		var ops, writes, afterWrite, writeAfterWrite int
		for _, s := range genStreams(sp, 7, clients, streamLen) {
			for i, o := range s {
				ops++
				if o.write() {
					writes++
				}
				if i > 0 && s[i-1].write() {
					afterWrite++
					if o.write() {
						writeAfterWrite++
					}
				}
				if o.key() >= totalKeys {
					t.Fatalf("%s: key %d out of range", sp.name, o.key())
				}
			}
		}
		read := 1 - float64(writes)/float64(ops)
		if d := math.Abs(read - sp.readFrac); d > 0.001 {
			t.Errorf("%s: read fraction %.5f, target %.2f (off by %.3f points)", sp.name, read, sp.readFrac, d*100)
		}
		wf := 1 - sp.readFrac
		pww := float64(writeAfterWrite) / float64(afterWrite)
		// Five standard errors of the conditional estimate.
		if tol := 5 * math.Sqrt(wf*(1-wf)/float64(afterWrite)); math.Abs(pww-wf) > tol {
			t.Errorf("%s: P(write | previous write) = %.4f, want %.4f ± %.4f", sp.name, pww, wf, tol)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	sp, _ := workloadByName("hot-r99")
	counts := make([]int, totalKeys)
	for _, s := range genStreams(sp, 1, clients, 1<<18) {
		for _, o := range s {
			counts[o.key()]++
		}
	}
	cdf := zipfCDF(totalKeys, zipfS)
	n := float64(clients << 18)
	for _, k := range []int{0, 1, 9} {
		want := cdf[k]
		if k > 0 {
			want -= cdf[k-1]
		}
		if got := float64(counts[k]) / n; math.Abs(got-want) > 0.05*want {
			t.Errorf("rank %d: frequency %.4f, want %.4f", k, got, want)
		}
	}
}

// TestHistQuantiles checks the recorder against exact quantiles of a
// known distribution: within 1% at p50 and p99.
func TestHistQuantiles(t *testing.T) {
	r := newRNG(3, 0)
	var h hist
	vals := make([]float64, 200000)
	for i := range vals {
		// Exponential with mean 2000 ns, plus a 100 ns floor.
		v := 100 - 2000*math.Log(1-r.float())
		vals[i] = math.Floor(v)
		h.record(int64(v))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.99} {
		exact := vals[int(math.Ceil(q*float64(len(vals))))-1]
		if got := h.quantile(q); math.Abs(got-exact) > 0.01*exact {
			t.Errorf("p%.0f = %.1f, exact %.1f", q*100, got, exact)
		}
	}
	// Theoretical quantiles of the same distribution, for a second
	// reference that does not depend on the sample.
	for _, q := range []float64{0.5, 0.99} {
		want := 100 - 2000*math.Log(1-q)
		if got := h.quantile(q); math.Abs(got-want) > 0.02*want {
			t.Errorf("p%.0f = %.1f, distribution's %.1f", q*100, got, want)
		}
	}
}

func TestHistSmallValuesExact(t *testing.T) {
	var h hist
	for v := int64(0); v < 256; v++ {
		h.record(v)
	}
	if got := h.quantile(0.5); got != 127 {
		t.Errorf("p50 of 0..255 = %v, want 127", got)
	}
	if got := h.quantile(1); got != 255 {
		t.Errorf("max of 0..255 = %v, want 255", got)
	}
}

func TestStoreDetectsTornAndLostWrites(t *testing.T) {
	s := newStore()
	if !s.read(17) || !s.write(17, 0) || !s.read(17) {
		t.Fatal("clean ops reported failure")
	}
	r := s.m[17]
	r.a++ // a torn record
	if s.read(17) {
		t.Error("torn record passed the read check")
	}
	*r = sealed(17, r.ver)
	s.writer = 2 // another writer inside
	if s.read(17) || s.write(17, 0) {
		t.Error("op overlapping a writer passed")
	}
	if got := s.versions(); got != 2 {
		t.Errorf("versions = %d, want 2", got)
	}
}

// TestDriveLineup runs every kind and the control with both clients at
// once on the write-heavy mix, untraced and then recording spans: no
// torn read, exclusion violation or lost update, on the same path the
// measured and traced runs take.
func TestDriveLineup(t *testing.T) {
	sp, _ := workloadByName("hot-r50")
	streams := genStreams(sp, 9, clients, 1<<12)
	for _, k := range append(append([]string{}, lineup...), refKind) {
		in := setUp(k, streams)
		var ts [clients]tally
		in.drive(streams, 0, 1<<13, &ts)
		ts = [clients]tally{}
		for c := range ts {
			ts[c].trace = make([]opTrace, 0, 64)
		}
		in.drive(streams, 0, 1<<12, &ts)
		for c := range ts {
			// 1<<12 ops at one in traceEvery fill the buffer.
			if len(ts[c].trace) != 64 {
				t.Errorf("%s: client %d recorded %d spanned ops, want 64", k, c, len(ts[c].trace))
			}
			for _, tr := range ts[c].trace {
				if tr.call > tr.acquired || tr.acquired > tr.rel || tr.rel > tr.done {
					t.Errorf("%s: span boundaries out of order: %+v", k, tr)
				}
			}
		}
		if in.ops != clients*(warmupOps+1<<13+1<<12) || in.failed != 0 || in.lostUpdates() != 0 {
			t.Errorf("%s: %d ops, %d failed, %d lost updates", k, in.ops, in.failed, in.lostUpdates())
		}
	}
}

func TestSimDeterministicAndExclusive(t *testing.T) {
	ops := genSimOps(5, 16, 6, 0.9)
	for _, k := range lineup {
		a, b := simKind(k, ops), simKind(k, ops)
		if a.cycles != b.cycles || a.steps != b.steps {
			t.Errorf("%s: runs differ: cycles %d/%d steps %d/%d", k, a.cycles, b.cycles, a.steps, b.steps)
		}
		if a.violations != 0 {
			t.Errorf("%s: %d exclusion violations", k, a.violations)
		}
		if a.ops != 16*6 {
			t.Errorf("%s: %d ops run, want %d", k, a.ops, 16*6)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var got []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", got, names)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEndDefs()) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", bj.EndToEnd, endToEndDefs())
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayerDefs()) {
		t.Errorf("per_layer differs:\n json %v\n code %v", bj.PerLayer, perLayerDefs())
	}
}
