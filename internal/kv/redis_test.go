package kv

import (
	"bytes"
	"fmt"
	"testing"
)

// TestRedisLayerLargeValues: a value far larger than the simulated
// I/O rings (redisBufSize) must round-trip instead of running the
// ring touches off their mapped region, into free address space (no
// preload) or past the records mapped around the rings (preload).
func TestRedisLayerLargeValues(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeSTLT} {
		for _, tc := range []struct {
			size    int
			preload bool
		}{{1 << 20, false}, {32 << 20, true}} {
			name := fmt.Sprintf("%s/%dMiB/preload=%v", mode, tc.size>>20, tc.preload)
			t.Run(name, func(t *testing.T) {
				e, err := New(Config{Keys: 20000, Mode: mode, RedisLayer: true, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				if tc.preload {
					e.Load(20000, 64)
				}
				val := bytes.Repeat([]byte{'v'}, tc.size)
				val[0], val[tc.size-1] = 'a', 'z'
				e.Set([]byte("big"), val)
				got, ok := e.Get([]byte("big"))
				if !ok || !bytes.Equal(got, val) {
					t.Fatalf("GET big: ok=%v len=%d, want %d bytes", ok, len(got), tc.size)
				}
			})
		}
	}
}
