// Command perfbench is the repository's benchmark. It drives a freshly
// spawned kvserve over a Unix socket as a closed loop — numConns
// connections, each sending its next pipelined batch only once every
// reply to the previous one is back and checked — and prints the
// end-to-end metrics of one workload. With -trace 1 it instead prints
// per-layer metrics: server-side counters from a kvserve run plus an
// in-process replay of the same workload through the packages kvserve
// is built from, timed with spans recorded by this program.
//
//	bash perfbench/run.sh --workload hot-read-pipelined --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit status is non-zero when any reply fails verification.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"addrkv/internal/hostmeta"
	"addrkv/internal/ycsb"
)

// The store every workload runs against: 200k preloaded records of a
// 24-byte key and a 64-byte value (about 25 MB of records, far past the
// simulated 2 MB L3 and ~6 MB of L2-TLB reach), hashed over 2 shards.
const (
	numKeys   = 200_000
	valueSize = 64
	numShards = 2
	// numConns matches the CPUs of the host the benchmark was tuned on.
	numConns = 2
	// sweepDepth is the pipeline depth of the warm-up sweep.
	sweepDepth = 64
	// warmOps is the ops each connection runs of its workload after the
	// sweep and before timing starts.
	warmOps = 40_000
	// setups is how many times a run spawns kvserve to time set-up;
	// the last server spawned serves the run.
	setups = 5
	// fsyncPolicy is the AOF policy of the durable workload. With
	// "always" every SET waits on fsync, and on the shared development
	// host fsync stalls of 10-30 ms swung ops/s 6x between runs, so no
	// time metric could hold a bound; everysec keeps the log, its group
	// commit per drain burst and a background fsync in the measured path.
	fsyncPolicy = "everysec"
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name  string
	mix   ycsb.Mix
	depth int  // pipeline depth per connection
	aof   bool // -aof -aof-fsync fsyncPolicy
}

// workloads; BENCHMARK.json records why each was chosen.
var workloads = []workload{
	{name: "hot-read-pipelined", mix: mustMix("B"), depth: 16},
	{name: "durable-update", mix: mustMix("A"), depth: 16, aof: true},
	{name: "cold-read-rtt", mix: ycsb.Mix{Name: "cold", Read: 0.9, Update: 0.1, Dist: ycsb.Uniform}, depth: 1},
}

func mustMix(name string) ycsb.Mix {
	m, err := ycsb.MixByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type config struct {
	w       workload
	seed    uint64
	seconds int
	trace   bool
	kvserve string // kvserve binary
	work    string // directory for the socket, logs, AOF and spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "timed window length in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		bin     = flag.String("kvserve", "", "kvserve binary")
		work    = flag.String("work", ".bench_build", "directory for the socket, logs, AOF and spans")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || *bin == "" || (*traced != 0 && *traced != 1)) {
		err = errors.New("need -seconds >= 1, -kvserve and -trace 0|1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *traced == 1, kvserve: *bin, work: *work}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, m.Value)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	host, _ := json.Marshal(hostmeta.Collect())
	fmt.Printf("host: %s\n", host)
	clientCPUs, serverCPUs, why := pinPlan()
	if why == "" {
		if err := pinSelf(clientCPUs); err != nil {
			clientCPUs, serverCPUs, why = nil, nil, err.Error()
		}
	}
	var ks keepers
	if why == "" {
		runtime.GOMAXPROCS(len(clientCPUs))
		fmt.Printf("pinning: client cpus %s, kvserve cpus %s\n", cpuList(clientCPUs), cpuList(serverCPUs))
		var err error
		if ks, err = startKeepers(append(append([]int(nil), clientCPUs...), serverCPUs...)); err != nil {
			fmt.Printf("idle keepers: off (%v)\n", err)
		} else {
			defer ks.stop()
			fmt.Printf("idle keepers: %d (SCHED_IDLE busy loops keep the pinned CPUs from halting)\n", len(ks))
		}
	} else {
		fmt.Printf("pinning: off (%s)\n", why)
	}
	fmt.Printf("workload: %s seed %d, %d conns x depth %d, %d keys, %d B values, %d shards, aof %v (fsync %s, fs %s)\n",
		cfg.w.name, cfg.seed, numConns, cfg.w.depth, numKeys, valueSize, numShards,
		cfg.w.aof, fsyncPolicy, fsType(cfg.work))

	// A signal must not leave kvserve or the keepers behind.
	var live atomic.Pointer[server]
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			if s := live.Load(); s != nil {
				s.stop()
			}
			ks.stop()
			os.Exit(1)
		}
	}()

	n := setups
	if cfg.trace {
		n = 1
	}
	e, err := endToEnd(cfg, serverCPUs, n, &live)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	if !cfg.trace {
		res.Metrics = e.metrics()
		res.Correct = e.correct()
		return res, nil
	}
	layers := e.layerMetrics()
	if len(serverCPUs) > 0 {
		// The replay stands in for kvserve, so it gets kvserve's CPUs.
		if err := pinSelf(serverCPUs); err != nil {
			return nil, err
		}
		runtime.GOMAXPROCS(len(serverCPUs))
	}
	rp, err := replay(cfg, e.windowOps)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(layers)+len(rp.metrics))
	for k, v := range rp.metrics {
		layers[k] = v
	}
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s: %g %s\n", k, layers[k].Value, layers[k].Unit)
	}
	res.Metrics = layers
	res.Attempted += rp.attempted
	res.Failed += rp.failed
	res.Correct = e.correct() && rp.failed == 0
	return res, nil
}

// e2e holds what one end-to-end run measured.
type e2e struct {
	setup                []float64 // s
	warmHitBefore        float64   // fast-path hit rate during the sweep
	warmHitAfter         float64   // ... during the workload warm-up
	warmOpsTotal         uint64
	windowOps, windowErr uint64
	attempted, failed    uint64
	elapsed              time.Duration
	win                  window
	before, after        infoMap
	serverCPU, clientCPU time.Duration
	rssKB                uint64
	serverOps            float64
}

func endToEnd(cfg config, serverCPUs []int, nSetups int, live *atomic.Pointer[server]) (*e2e, error) {
	e := &e2e{}
	sock := filepath.Join(cfg.work, "kvserve.sock")
	aofDir := filepath.Join(cfg.work, "aof")
	logPath := filepath.Join(cfg.work, "kvserve.log")
	var srv *server
	for i := 0; i < nSetups; i++ {
		if err := os.RemoveAll(aofDir); err != nil {
			return nil, err
		}
		s, d, err := spawnServer(cfg.kvserve, sock, aofDir, logPath, cfg.w, serverCPUs)
		if err != nil {
			return nil, err
		}
		live.Store(s)
		e.setup = append(e.setup, d.Seconds())
		if i < nSetups-1 {
			s.stop()
			continue
		}
		srv = s
	}
	defer func() {
		live.Store(nil)
		srv.stop()
		os.RemoveAll(aofDir)
	}()

	ks := newKeyState(numKeys)
	clients := make([]*client, numConns)
	for i := range clients {
		c, err := dialClient(sock, newStream(cfg.w, cfg.seed, i, numConns, ks))
		if err != nil {
			return nil, err
		}
		defer c.close()
		clients[i] = c
	}

	// Warm-up: a sweep reads every key once, filling the STLT lazily,
	// then the workload itself runs untimed; RESETSTATS after each so
	// the hit rate of each phase is its own.
	if err := parallel(clients, func(c *client) error { return c.sweep(sweepDepth) }); err != nil {
		return nil, err
	}
	hit := func() (float64, error) {
		m, err := srv.info()
		if err != nil {
			return 0, err
		}
		if err := srv.resetStats(); err != nil {
			return 0, err
		}
		return m.num("fast_path_hit_rate")
	}
	var err error
	if e.warmHitBefore, err = hit(); err != nil {
		return nil, err
	}
	if err := parallel(clients, func(c *client) error { return c.runOps(warmOps, cfg.w.depth) }); err != nil {
		return nil, err
	}
	if e.warmHitAfter, err = hit(); err != nil {
		return nil, err
	}
	for _, c := range clients {
		e.warmOpsTotal += c.ops
		e.attempted += c.ops
		e.failed += c.failed
		c.resetTallies()
	}
	fmt.Printf("warmup: sweep of %d GETs at depth %d, fast_path_hit_rate %.4f; then %d workload ops, fast_path_hit_rate %.4f\n",
		numKeys, sweepDepth, e.warmHitBefore, e.warmOpsTotal-numKeys, e.warmHitAfter)

	// Timed window.
	if e.before, err = srv.info(); err != nil {
		return nil, err
	}
	cpu0, err := serverCPU(srv)
	if err != nil {
		return nil, err
	}
	ru0 := selfCPU()
	var stop atomic.Bool
	nSlots := int(time.Duration(cfg.seconds) * time.Second / slotDur)
	steal := []uint64{hostSteal()}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		done <- parallel(clients, func(c *client) error { return c.runWindow(start, &stop, cfg.w.depth) })
	}()
	for k := 1; k <= nSlots; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * slotDur)))
		steal = append(steal, hostSteal())
	}
	stop.Store(true)
	err = <-done
	e.elapsed = time.Since(start)
	e.clientCPU = selfCPU() - ru0
	if err != nil {
		return nil, err
	}
	cpu1, err := serverCPU(srv)
	if err != nil {
		return nil, err
	}
	e.serverCPU = cpu1 - cpu0
	if e.after, err = srv.info(); err != nil {
		return nil, err
	}
	status, err := readProc(srv.pid(), "status")
	if err != nil {
		return nil, err
	}
	if e.rssKB, err = procStatusKB(status, "VmHWM"); err != nil {
		return nil, err
	}
	var slots [][]slot
	for _, c := range clients {
		e.windowOps += c.ops
		e.windowErr += c.failed
		slots = append(slots, c.slots)
		if c.firstErr != "" {
			fmt.Fprintf(os.Stderr, "perfbench: first failed reply: %s\n", c.firstErr)
		}
	}
	e.attempted += e.windowOps
	e.failed += e.windowErr
	stealPerSlot := make([]uint64, nSlots)
	for k := range stealPerSlot {
		stealPerSlot[k] = steal[k+1] - steal[k]
	}
	// The window stops after nSlots, so later slots are partial.
	if e.win, err = summarizeWindow(slots, stealPerSlot); err != nil {
		return nil, err
	}
	if e.serverOps, err = e.after.num("server_ops"); err != nil {
		return nil, err
	}
	e.print()
	return e, nil
}

// correct reports whether every reply verified and the server counted
// exactly the ops the clients sent in the window.
func (e *e2e) correct() bool { return e.failed == 0 && e.serverOps == float64(e.windowOps) }

func (e *e2e) cyclesPerOp() float64 {
	cycles, err1 := e.after.num("cycles")
	ops, err2 := e.after.num("ops")
	if err1 != nil || err2 != nil || ops == 0 {
		return math.NaN()
	}
	return cycles / ops
}

func (e *e2e) print() {
	fmt.Printf("setup_s: %.4f s (median of %d spawns: %.4f)\n", medianF(append([]float64(nil), e.setup...)), len(e.setup), e.setup)
	w := &e.win
	fmt.Printf("ops_per_s: %.1f ops/s (median of the %d least-stolen of %d %v slots; whole window %d verified ops in %.3f s)\n",
		w.opsPerSec, w.kept, w.slots, slotDur, e.windowOps, e.elapsed.Seconds())
	for _, l := range []struct {
		name  string
		p50   float64
		minN  int
		whole latSummary
	}{{"get", w.getP50, w.minGetN, w.get}, {"set", w.setP50, w.minSetN, w.set}} {
		fmt.Printf("%s_p50_us: %.2f us (median over the same slots, n>=%d per slot; whole window %.2f us)\n",
			l.name, l.p50, l.minN, l.whole.p50)
		fmt.Printf("%s_p99_us: %.2f us (whole window, n=%d; highest supported %s = %.2f us)\n",
			l.name, l.whole.p99, l.whole.n, bpName(l.whole.top), l.whole.topValueUS)
	}
	fmt.Printf("error_rate: %g fraction (%d failed of %d attempted in the window; %d failed of %d overall)\n",
		errorRate(e.windowErr, e.windowOps), e.windowErr, e.windowOps, e.failed, e.attempted)
	fmt.Printf("cycles_per_op: %.4f cycles (modeled, INFO cycles/ops over the window; fast_path_hit_rate %s)\n",
		e.cyclesPerOp(), e.after["fast_path_hit_rate"])
	fmt.Printf("server_rss_mb: %.2f MiB (kvserve VmHWM)\n", float64(e.rssKB)/1024)
	fmt.Printf("server_ops: %.0f (client sent %d)\n", e.serverOps, e.windowOps)
}

func (e *e2e) metrics() map[string]metric {
	return map[string]metric{
		"ops_per_s":     {e.win.opsPerSec, "ops/s"},
		"get_p50_us":    {e.win.getP50, "us"},
		"set_p50_us":    {e.win.setP50, "us"},
		"cycles_per_op": {e.cyclesPerOp(), "cycles"},
		"setup_s":       {medianF(append([]float64(nil), e.setup...)), "s"},
		"server_rss_mb": {float64(e.rssKB) / 1024, "MiB"},
	}
}

// delta returns an INFO counter's growth over the window.
func (e *e2e) delta(key string) float64 {
	a, err1 := e.before.num(key)
	b, err2 := e.after.num(key)
	if err1 != nil || err2 != nil {
		return math.NaN()
	}
	return b - a
}

// layerMetrics are the per-layer numbers only a real kvserve gives.
func (e *e2e) layerMetrics() map[string]metric {
	ops := float64(e.windowOps)
	srvP50, err1 := e.after.num("latency_p50_us")
	srvP99, err2 := e.after.num("latency_p99_us")
	if err1 != nil || err2 != nil {
		srvP50, srvP99 = math.NaN(), math.NaN()
	}
	return map[string]metric{
		"resp.cmds_per_read":            {e.delta("pipelined_commands") / e.delta("pipeline_batches"), "cmds"},
		"kvserve.cpu_us_per_op":         {float64(e.serverCPU.Microseconds()) / ops, "us"},
		"kvserve.server_p50_us":         {srvP50, "us"},
		"kvserve.server_p99_us":         {srvP99, "us"},
		"kvserve.outside_p50_us":        {e.win.getP50 - srvP50, "us"},
		"kvserve.early_flushes_per_kop": {1000 * e.delta("early_flushes") / ops, "count"},
		"bench.client_cpu_us_per_op":    {float64(e.clientCPU.Microseconds()) / ops, "us"},
	}
}

func serverCPU(s *server) (time.Duration, error) {
	stat, err := readProc(s.pid(), "stat")
	if err != nil {
		return 0, err
	}
	return procCPU(stat)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// parallel runs f on every connection concurrently and joins the errors.
func parallel[T any](cs []T, f func(T) error) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
