package main

// record is one store value. Writers rewrite every field under Lock;
// a reader that sees fields from two different versions fails the
// checksum, which is how a torn read (a reader overlapping a writer)
// shows up.
type record struct {
	ver, a, b, sum uint64
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

func sealed(key uint32, ver uint64) record {
	a := mix(uint64(key)<<32 ^ ver)
	b := ^a * 0x9E3779B97F4A7C15
	return record{ver: ver, a: a, b: b, sum: a ^ b ^ ver ^ uint64(key)}
}

func (r *record) valid(key uint32) bool {
	return *r == sealed(key, r.ver)
}

// store is the kvstore-shaped state one lock kind guards: a map read
// under RLock and written under Lock. Records are preloaded and
// rewritten in place, so a broken lock shows up as a counted failure
// rather than a fatal concurrent map write. writer is the id (+1) of
// the client inside a write, 0 when none; it is plain memory, so only
// the lock orders it.
type store struct {
	m      map[uint32]*record
	writer int64
}

func newStore() *store {
	recs := make([]record, totalKeys)
	m := make(map[uint32]*record, totalKeys)
	for k := range recs {
		recs[k] = sealed(uint32(k), 0)
		m[uint32(k)] = &recs[k]
	}
	return &store{m: m}
}

// read is the read critical section; it reports whether the record was
// intact and no writer was inside.
func (s *store) read(k uint32) bool {
	return s.m[k].valid(k) && s.writer == 0
}

// write is the write critical section for client id; it reports
// whether it ran alone.
func (s *store) write(k uint32, id int) bool {
	me := int64(id) + 1
	ok := s.writer == 0
	s.writer = me
	r := s.m[k]
	ok = r.valid(k) && ok
	*r = sealed(k, r.ver+1)
	ok = s.writer == me && ok
	s.writer = 0
	return ok
}

// versions sums every record's version: with no lost update it equals
// the number of writes applied.
func (s *store) versions() uint64 {
	var n uint64
	for _, r := range s.m {
		n += r.ver
	}
	return n
}
