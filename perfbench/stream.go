package main

import (
	"bytes"
	"strconv"
	"sync/atomic"

	"addrkv/internal/ycsb"
)

// op is one generated command plus what its reply must satisfy.
type op struct {
	set bool
	id  uint64
	// own marks a key this connection owns (the only keys it SETs).
	own bool
	// ver is the version a SET writes, or the exact version an own-key
	// GET must return.
	ver uint32
	// lo is, for a GET of another connection's key, the owner's last
	// acknowledged version when the GET was generated: the reply must
	// hold a version in [lo, owner's latest issued version].
	lo uint32
}

// keyState holds, per key id, the latest version its owner has issued
// (generated) and the latest the server has acknowledged. Version 0 is
// the preloaded value. Only the owning connection writes a key's
// entries; the others read them to bound what a GET may return.
type keyState struct {
	issued []atomic.Uint32
	acked  []atomic.Uint32
}

func newKeyState(keys int) *keyState {
	return &keyState{issued: make([]atomic.Uint32, keys), acked: make([]atomic.Uint32, keys)}
}

// connSeed derives connection conn's generator seed from the run seed
// (splitmix64 finalizer), so streams differ per connection and per seed.
func connSeed(seed uint64, conn int) uint64 {
	z := seed + uint64(conn+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// stream is one connection's deterministic command stream. A key id is
// owned by connection id % conns; a generated SET of a key the
// connection does not own is redrawn until it lands on an owned key, so
// each connection's SETs keep the mix's key distribution over its own
// keys.
type stream struct {
	conn, conns int
	gen         *ycsb.MixGenerator
	ks          *keyState

	// sweepNext is the next key id the warm-up sweep reads.
	sweepNext uint64

	buf []byte
	ops []op
	key [ycsb.KeyLen]byte
}

func newStream(w workload, seed uint64, conn, conns int, ks *keyState) *stream {
	return &stream{
		conn:      conn,
		conns:     conns,
		gen:       ycsb.NewMixGenerator(w.mix, numKeys, connSeed(seed, conn)),
		ks:        ks,
		sweepNext: uint64(conn),
	}
}

func (s *stream) owns(id uint64) bool { return id%uint64(s.conns) == uint64(s.conn) }

// next draws the next operation of the mix.
func (s *stream) next() op {
	g := s.gen.Next()
	if g.Type != ycsb.Set {
		return s.get(g.KeyID)
	}
	for !s.owns(g.KeyID) || g.Type != ycsb.Set {
		g = s.gen.Next()
	}
	ver := s.ks.issued[g.KeyID].Load() + 1
	s.ks.issued[g.KeyID].Store(ver)
	return op{set: true, id: g.KeyID, own: true, ver: ver}
}

func (s *stream) get(id uint64) op {
	if s.owns(id) {
		return op{id: id, own: true, ver: s.ks.issued[id].Load()}
	}
	return op{id: id, lo: s.ks.acked[id].Load()}
}

// fill builds the next batch of n mix operations.
func (s *stream) fill(n int) {
	s.reset()
	for i := 0; i < n; i++ {
		s.add(s.next())
	}
}

// fillSweep builds the next batch of up to n warm-up GETs walking this
// connection's share of the key space (ids conn, conn+conns, ...); it
// reports false once the walk is done.
func (s *stream) fillSweep(n int) bool {
	s.reset()
	for i := 0; i < n && s.sweepNext < numKeys; i++ {
		s.add(s.get(s.sweepNext))
		s.sweepNext += uint64(s.conns)
	}
	return len(s.ops) > 0
}

func (s *stream) reset() {
	s.buf = s.buf[:0]
	s.ops = s.ops[:0]
}

// add appends o's RESP command to the batch.
func (s *stream) add(o op) {
	key := ycsb.KeyNameInto(s.key[:], o.id)
	if o.set {
		s.buf = append(s.buf, "*3\r\n$3\r\nSET\r\n"...)
	} else {
		s.buf = append(s.buf, "*2\r\n$3\r\nGET\r\n"...)
	}
	s.buf = appendBulk(s.buf, key)
	if o.set {
		s.buf = appendBulk(s.buf, ycsb.Value(o.id, o.ver, valueSize))
	}
	s.ops = append(s.ops, o)
}

func appendBulk(b, v []byte) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(v)), 10)
	b = append(b, '\r', '\n')
	b = append(b, v...)
	return append(b, '\r', '\n')
}

// checkGet reports whether val, the reply to GET o, is a value the
// workload could have stored under o.id at that moment.
func (ks *keyState) checkGet(o op, val []byte, found bool) bool {
	if !found || len(val) != valueSize {
		return false // every key is preloaded and never deleted
	}
	if o.own {
		return bytes.Equal(val, ycsb.Value(o.id, o.ver, valueSize))
	}
	hi := ks.issued[o.id].Load()
	for v := o.lo; v <= hi; v++ {
		if bytes.Equal(val, ycsb.Value(o.id, v, valueSize)) {
			return true
		}
	}
	return false
}

// ackSet records that the server acknowledged SET o.
func (ks *keyState) ackSet(o op) { ks.acked[o.id].Store(o.ver) }
