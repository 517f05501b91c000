package kv

import (
	"bytes"
	"testing"

	"addrkv/internal/ycsb"
)

// TestGetIntoMatchesGet: GetInto must be Get with a caller buffer —
// same values, same hits/misses, and bit-for-bit the same modeled
// cycles and machine counters on two identically configured engines
// running the same stream.
func TestGetIntoMatchesGet(t *testing.T) {
	cfg := Config{Keys: 4000, Index: KindChainHash, Mode: ModeSTLT, Seed: 3, RedisLayer: true}
	ea, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea.Load(4000, 64)
	eb.Load(4000, 64)

	g := ycsb.NewGenerator(ycsb.Config{Keys: 4000, ValueSize: 64, Dist: ycsb.Zipf, Seed: 11})
	var buf []byte
	for i := 0; i < 8000; i++ {
		op := g.Next()
		key := ycsb.KeyName(op.KeyID)
		va, oka := ea.Get(key)
		var vb []byte
		var okb bool
		vb, okb = eb.GetInto(key, buf[:0])
		buf = vb[:0]
		if oka != okb || !bytes.Equal(va, vb) {
			t.Fatalf("op %d key %s: Get (%q,%v) vs GetInto (%q,%v)", i, key, va, oka, vb, okb)
		}
	}
	// Absent key takes the miss path identically.
	if _, ok := ea.Get([]byte("nosuchkey")); ok {
		t.Fatal("unexpected hit")
	}
	if _, ok := eb.GetInto([]byte("nosuchkey"), nil); ok {
		t.Fatal("unexpected hit")
	}
	sa, sb := ea.Stats(), eb.Stats()
	if sa != sb {
		t.Fatalf("stats diverged:\nGet:     %+v\nGetInto: %+v", sa, sb)
	}
}

// TestGetIntoZeroAlloc pins the engine-side allocation budget: with a
// warm value buffer, GetInto, Set (same-size update), Exists and
// Delete+Set cycles are allocation-free, and so is the first GetInto
// of a key after Load — the STLT refill, whose SPTW walk reuses its
// step buffer. (Get allocates exactly its value — that is why GetInto
// exists.)
func TestGetIntoZeroAlloc(t *testing.T) {
	e, err := New(Config{Keys: 4000, Index: KindChainHash, Mode: ModeSTLT, RedisLayer: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Load(4000, 64)
	key := []byte(ycsb.KeyName(123))
	val := ycsb.Value(123, 1, 64)
	buf := make([]byte, 0, 128)
	for i := 0; i < 100; i++ { // warm the fast path
		buf, _ = e.GetInto(key, buf[:0])
	}
	for name, f := range map[string]func(){
		"GetInto": func() { buf, _ = e.GetInto(key, buf[:0]) },
		"Set":     func() { e.Set(key, val) },
		"Exists":  func() { e.Exists(key) },
	} {
		if n := testing.AllocsPerRun(2000, f); n != 0 {
			t.Errorf("%s: %.1f allocs/op, budget 0", name, n)
		}
	}

	// Every AllocsPerRun call below reads a key with no STLT row yet:
	// the fast path misses, the index walk finds the record, and
	// insertSTLT refills the table through the SPTW.
	const first, refills = 1000, 2000
	buf, _ = e.GetInto(ycsb.KeyName(first), buf[:0]) // size the walk buffer
	keys := make([][]byte, refills+1)                // AllocsPerRun adds one warm-up call
	for i := range keys {
		keys[i] = ycsb.KeyName(first + 1 + uint64(i))
	}
	before := e.STLT.Stats.Inserts
	i := 0
	if n := testing.AllocsPerRun(refills, func() {
		buf, _ = e.GetInto(keys[i], buf[:0])
		i++
	}); n != 0 {
		t.Errorf("GetInto STLT refill: %.1f allocs/op, budget 0", n)
	}
	if got := e.STLT.Stats.Inserts - before; got < refills {
		t.Errorf("only %d STLT refills over %d first reads; the leg did not exercise the refill path", got, refills)
	}
}
