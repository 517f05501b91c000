package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strconv"
	"testing"
	"time"

	"addrkv/internal/ycsb"
)

// streamBytes renders the first n ops of connection conn's stream.
func streamBytes(t *testing.T, w workload, seed uint64, conn, n int) []byte {
	t.Helper()
	st := newStream(w, seed, conn, numConns, newKeyState(numKeys))
	var out []byte
	for done := 0; done < n; done += w.depth {
		st.fill(w.depth)
		out = append(out, st.buf...)
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		for conn := 0; conn < numConns; conn++ {
			a := streamBytes(t, w, 7, conn, 5000)
			b := streamBytes(t, w, 7, conn, 5000)
			if !bytes.Equal(a, b) {
				t.Errorf("%s conn %d: same seed gave different command streams", w.name, conn)
			}
			if bytes.Equal(a, streamBytes(t, w, 8, conn, 5000)) {
				t.Errorf("%s conn %d: seeds 7 and 8 gave the same command stream", w.name, conn)
			}
		}
		if bytes.Equal(streamBytes(t, w, 7, 0, 5000), streamBytes(t, w, 7, 1, 5000)) {
			t.Errorf("%s: both connections got the same stream", w.name)
		}
	}
}

func TestSetsStayOnOwnedKeys(t *testing.T) {
	w, _ := workloadByName("durable-update")
	for conn := 0; conn < numConns; conn++ {
		st := newStream(w, 3, conn, numConns, newKeyState(numKeys))
		sets := 0
		for i := 0; i < 200; i++ {
			st.fill(w.depth)
			for _, o := range st.ops {
				if o.set {
					sets++
					if !st.owns(o.id) {
						t.Fatalf("conn %d SETs key %d it does not own", conn, o.id)
					}
				}
			}
		}
		if sets == 0 {
			t.Fatalf("conn %d generated no SETs", conn)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, bp int }{{20, 5000}, {100, 9000}, {1000, 9900}, {10000, 9990}, {100000, 9999}} {
		if !supported(c.n, c.bp) {
			t.Errorf("%d samples should support %s (10 beyond it)", c.n, bpName(c.bp))
		}
		if supported(c.n-1, c.bp) {
			t.Errorf("%d samples should not support %s (9 beyond it)", c.n-1, bpName(c.bp))
		}
		if got := highestSupported(c.n); got != c.bp {
			t.Errorf("highestSupported(%d) = %s, want %s", c.n, bpName(got), bpName(c.bp))
		}
	}
	if got := highestSupported(19); got != 0 {
		t.Errorf("highestSupported(19) = %d, want 0 (not even the median)", got)
	}
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if percentile(s, p50) != 50 || percentile(s, p99) != 99 {
		t.Errorf("p50/p99 of 1..100 = %d/%d, want 50/99", percentile(s, p50), percentile(s, p99))
	}
	if _, err := summarize("x", s[:99]); err == nil {
		t.Error("summarize accepted 99 samples for p99")
	}
}

func TestWindowKeepsLeastStolenSlots(t *testing.T) {
	lat := func(n int, v int64) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	mk := func(ops uint64, v int64) slot { return slot{ops: ops, get: lat(1000, v), set: lat(1000, v)} }
	// Slots 1 and 3 were disturbed: fewer ops, slower replies.
	slots := []slot{mk(4000, 100e3), mk(1000, 900e3), mk(5000, 120e3), mk(500, 800e3)}
	w, err := summarizeWindow([][]slot{slots}, []uint64{1, 30, 0, 40})
	if err != nil {
		t.Fatal(err)
	}
	if w.kept != 2 || w.opsPerSec != 4500/slotDur.Seconds() || w.getP50 != 110 {
		t.Errorf("kept %d slots, ops/s %v, GET p50 %v; want 2, %v, 110", w.kept, w.opsPerSec, w.getP50, 4500/slotDur.Seconds())
	}
	if w.get.n != 4000 || w.get.p99 != 900 {
		t.Errorf("whole-window GET n=%d p99=%v, want 4000 and 900 (disturbed slots included)", w.get.n, w.get.p99)
	}
	// A slot too thin for a median counts as the most disturbed.
	thin := slot{ops: 19, get: lat(19, 5e6), set: lat(1000, 5e6)}
	w, err = summarizeWindow([][]slot{{thin, mk(4000, 100e3), mk(4000, 300e3)}}, []uint64{0, 5, 9})
	if err != nil || w.getP50 != 200 {
		t.Errorf("with one thin slot: GET p50 %v, %v; want 200 from the two full slots", w.getP50, err)
	}
	if _, err := summarizeWindow([][]slot{{thin, thin, mk(4000, 1)}}, []uint64{0, 0, 0}); err == nil {
		t.Error("a window with two of three slots too thin for a median was accepted")
	}
}

// TestFailureAccounting drives a client against a scripted server: a
// right value, a wrong value, an error reply, a SET error, a right SET,
// then a closed connection leaving replies missing. Every bad or
// missing reply must count as failed.
func TestFailureAccounting(t *testing.T) {
	ks := newKeyState(numKeys)
	st := &stream{conn: 0, conns: 2, ks: ks}
	st.reset()
	st.add(op{id: 2, own: true})                    // right preload value
	st.add(op{id: 4, own: true})                    // wrong value
	st.add(op{id: 6, own: true})                    // error reply
	st.add(op{set: true, id: 8, own: true, ver: 1}) // SET refused
	st.add(op{set: true, id: 10, own: true, ver: 1})
	st.add(op{id: 12, own: true}) // missing
	st.add(op{id: 14, own: true}) // missing
	cli, srv := net.Pipe()
	defer cli.Close()
	bulk := func(v []byte) string { return "$" + strconv.Itoa(len(v)) + "\r\n" + string(v) + "\r\n" }
	go func() {
		_, _ = io.ReadFull(srv, make([]byte, len(st.buf)))
		_, _ = srv.Write([]byte(bulk(ycsb.Value(2, 0, valueSize)) + bulk(ycsb.Value(4, 1, valueSize)) +
			"-ERR boom\r\n" + "-ERR readonly\r\n" + "+OK\r\n"))
		srv.Close()
	}()
	c := &client{conn: cli, r: bufio.NewReader(cli), st: st}
	if err := c.roundTrip(false); err == nil {
		t.Fatal("missing replies did not surface as an error")
	}
	if c.ops != 7 || c.failed != 5 {
		t.Fatalf("ops=%d failed=%d, want 7 and 5", c.ops, c.failed)
	}
	if got := errorRate(c.failed, c.ops); got != 5.0/7 {
		t.Fatalf("errorRate = %v", got)
	}
	if ks.acked[10].Load() != 1 || ks.acked[8].Load() != 0 {
		t.Fatal("only the acknowledged SET may advance the acked version")
	}
}

func TestCheckGet(t *testing.T) {
	ks := newKeyState(numKeys)
	ks.issued[5].Store(3)
	ks.acked[5].Store(2)
	v := func(ver uint32) []byte { return ycsb.Value(5, ver, valueSize) }
	if !ks.checkGet(op{id: 5, own: true, ver: 3}, v(3), true) || ks.checkGet(op{id: 5, own: true, ver: 3}, v(2), true) {
		t.Error("own-key GET must match exactly the last written version")
	}
	foreign := op{id: 5, lo: 2}
	if !ks.checkGet(foreign, v(2), true) || !ks.checkGet(foreign, v(3), true) {
		t.Error("foreign GET must accept versions from acked to issued")
	}
	if ks.checkGet(foreign, v(1), true) || ks.checkGet(foreign, v(4), true) {
		t.Error("foreign GET accepted a version outside [acked, issued]")
	}
	if ks.checkGet(foreign, nil, false) {
		t.Error("a missing key passed")
	}
}

func TestParseInfo(t *testing.T) {
	m := parseInfo("# addrkv\r\nserver_ops:42\r\ncycles_per_op:652.4\r\nmode:x:y\r\n\r\n")
	if n, err := m.num("server_ops"); err != nil || n != 42 {
		t.Errorf("server_ops = %v, %v", n, err)
	}
	if n, err := m.num("cycles_per_op"); err != nil || n != 652.4 {
		t.Errorf("cycles_per_op = %v, %v", n, err)
	}
	if m["mode"] != "x:y" {
		t.Errorf("value with a colon = %q", m["mode"])
	}
	if _, err := m.num("missing"); err == nil {
		t.Error("a missing key read as a number")
	}
	if _, err := m.num("mode"); err == nil {
		t.Error("a non-number parsed")
	}
}

func TestProcParsing(t *testing.T) {
	stat := "4242 (kv serve) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 70 0 0 20 0 9 0 123 456 789"
	if d, err := procCPU(stat); err != nil || d != 3200*time.Millisecond {
		t.Errorf("procCPU = %v, %v; want 3.2s", d, err)
	}
	if _, err := procCPU("4242 (kv) S 1 2"); err == nil {
		t.Error("short stat line parsed")
	}
	status := "Name:\tkvserve\nVmPeak:\t  200 kB\nVmHWM:\t  112128 kB\nVmRSS:\t 100 kB\n"
	if kb, err := procStatusKB(status, "VmHWM"); err != nil || kb != 112128 {
		t.Errorf("VmHWM = %v, %v", kb, err)
	}
	if _, err := procStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing status key parsed")
	}
	if n, err := stealTicks("cpu  97523 0 22467 283224 3007 0 1092 10262 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"); err != nil || n != 10262 {
		t.Errorf("stealTicks = %v, %v; want 10262", n, err)
	}
	if _, err := stealTicks("cpu0 1 2 3 4 5 6 7 8 0 0\n"); err == nil {
		t.Error("a per-CPU line was read as the aggregate")
	}
	cpus, err := parseCPUList("0-2,5\n")
	if err != nil || len(cpus) != 4 || cpus[3] != 5 || cpuList(cpus) != "0,1,2,5" {
		t.Errorf("parseCPUList = %v, %v", cpus, err)
	}
	if _, err := parseCPUList("3-1"); err == nil {
		t.Error("descending range parsed")
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{15, 30}, {10, 20}, {40, 60}, {0, 5}}
	if got := covered(10, 50, ivs); got != 30 {
		t.Errorf("covered = %d, want 30 (10..30 and 40..50)", got)
	}
}
