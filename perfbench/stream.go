package main

import (
	"math"
	"sort"
)

// op is one pre-generated store operation: the top bit marks a write,
// the low bits name the key.
type op uint32

const writeBit op = 1 << 31

func (o op) write() bool { return o&writeBit != 0 }
func (o op) key() uint32 { return uint32(o &^ writeBit) }

// spec is one workload: its read mix over the one-lock store.
type spec struct {
	name     string
	why      string
	readFrac float64 // probability an op is a read
}

const (
	totalKeys = 65536
	zipfS     = 1.1
	clients   = 2 // closed-loop client goroutines, one per vCPU of the reference box
	// streamLen is each client's pre-generated op count; a client that
	// reaches the end wraps around.
	streamLen = 1 << 20
)

var workloads = []spec{
	{name: "hot-r99", readFrac: 0.99,
		why: "one lock, Zipf keys, 99% reads: the read indicator and the BRAVO fast path do the work"},
	{name: "hot-r50", readFrac: 0.50,
		why: "one lock, 50% writes: queues, hand-off, indicator close/open and BRAVO revocation dominate"},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// rng is splitmix64: the benchmark's own generator, so a seed names
// the same inputs on every Go version.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ (stream+1)*0x9E3779B97F4A7C15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfCDF returns the cumulative distribution of ranks 0..n-1 with
// P(rank k) proportional to (k+1)^-s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// genStreams returns one op stream per client. Every op is an
// independent draw: read with probability sp.readFrac, and a
// Zipf(zipfS)-ranked key.
func genStreams(sp spec, seed uint64, nclients, n int) [][]op {
	cdf := zipfCDF(totalKeys, zipfS)
	out := make([][]op, nclients)
	for c := range out {
		r := newRNG(seed, uint64(c))
		s := make([]op, n)
		for i := range s {
			k := min(sort.SearchFloat64s(cdf, r.float()), totalKeys-1)
			o := op(k)
			if r.float() >= sp.readFrac {
				o |= writeBit
			}
			s[i] = o
		}
		out[c] = s
	}
	return out
}

// genSimOps returns each simulated thread's read/write choices (true =
// write), drawn independently like the host streams.
func genSimOps(seed uint64, threads, n int, readFrac float64) [][]bool {
	out := make([][]bool, threads)
	for t := range out {
		r := newRNG(seed^0x5157, uint64(t))
		w := make([]bool, n)
		for i := range w {
			w[i] = r.float() >= readFrac
		}
		out[t] = w
	}
	return out
}
