package kv

import (
	"addrkv/internal/arch"
	"addrkv/internal/cpu"
	"addrkv/internal/index"
)

// redisLayer models the non-indexing work of a Redis GET/SET: reading
// the pipelined command from the input buffer, protocol parsing and
// argument validation, object bookkeeping, and writing the reply.
// These are the "other components of Redis" that the paper's Figure 1
// (right) shows taking just under half the time, and which dilute the
// raw indexing speedups down to ~1.4x at the application level.
//
// The model is calibrated, not emulated: fixed compute costs (measured
// from redis-server command processing with network time excluded,
// matching the paper's Unix-socket + pipelining setup) plus real
// memory traffic on simulated input/output ring buffers, which enjoy
// the high locality real Redis I/O buffers have.
type redisLayer struct {
	m *cpu.Machine

	inBuf  arch.Addr
	outBuf arch.Addr
	inOff  int
	outOff int
}

const (
	redisBufSize = 16 << 10

	// parseCost covers RESP parsing, command table dispatch, arity and
	// type checks, and expire bookkeeping.
	parseCost arch.Cycles = 210
	// replyCost covers reply object construction and buffer
	// management.
	replyCost arch.Cycles = 90
	// copyCostPerLine is the compute cost of memcpy per 64 bytes
	// moved to the output buffer.
	copyCostPerLine arch.Cycles = 4
)

func newRedisLayer(m *cpu.Machine) *redisLayer {
	return &redisLayer{
		m:      m,
		inBuf:  m.AS.Alloc(redisBufSize),
		outBuf: m.AS.Alloc(redisBufSize),
	}
}

// command charges the cost of receiving and parsing one command whose
// payload (key + inline arguments) is n bytes beyond the key.
func (r *redisLayer) command(key []byte, extra int) {
	size := 32 + len(key) + extra // RESP framing + verb + key + args
	r.touchRing(r.inBuf, &r.inOff, size, false)
	r.m.Compute(parseCost, arch.CatOther)
}

// reply charges the cost of emitting an n-byte reply (status lines,
// errors, nil).
func (r *redisLayer) reply(n int) {
	r.touchRing(r.outBuf, &r.outOff, 16+n, true)
	r.m.Compute(replyCost, arch.CatOther)
}

// replyValue charges the cost of copying the record's value into the
// output buffer. The value read itself is charged by the engine
// (CatData); here we charge the destination stores and the memcpy
// compute.
func (r *redisLayer) replyValue(m *cpu.Machine, recVA arch.Addr) {
	_, vl := index.ReadRecordHeader(m, recVA, arch.CatOther)
	r.touchRing(r.outBuf, &r.outOff, 16+vl, true)
	r.m.Compute(replyCost+copyCostPerLine*arch.Cycles(1+vl/64), arch.CatOther)
}

// touchRing charges size bytes of I/O-buffer traffic on the
// redisBufSize ring at base, advancing *off. A run that would cross the
// ring's end restarts at offset 0; a run longer than the whole ring
// laps it as often as it needs, so no touch leaves the mapped ring
// whatever the argument or value size.
func (r *redisLayer) touchRing(base arch.Addr, off *int, size int, write bool) {
	if *off+size > redisBufSize {
		*off = 0
	}
	for ; size > redisBufSize; size -= redisBufSize {
		r.m.Touch(base, redisBufSize, write, arch.KindOther, arch.CatOther)
	}
	r.m.Touch(base+arch.Addr(*off), size, write, arch.KindOther, arch.CatOther)
	*off += size
}
