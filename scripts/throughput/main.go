// Command throughput orchestrates the kvserve/kvbench matrix and
// merges the per-run kvbench artifacts into one BENCH_throughput.json.
// It execs prebuilt kvserve and kvbench binaries over a Unix socket,
// sweeping three axes:
//
//   - cores:  the server's GOMAXPROCS (set via env), so one artifact
//     captures how both dispatch modes scale with available parallelism
//   - shards: the engine shard count (worker dispatch owns one
//     goroutine per shard)
//   - depth:  the client pipeline depth
//
// and it pins a headline comparison at the top configuration: worker
// vs mutex dispatch, interleaved round-robin so both legs share the
// machine's noise regime.
//
// Usage (from the repo root):
//
//	go build -o /tmp/kvserve ./cmd/kvserve
//	go build -o /tmp/kvbench ./cmd/kvbench
//	go run ./scripts/throughput -kvserve /tmp/kvserve -kvbench /tmp/kvbench \
//	    -json results/BENCH_throughput.json -check 1.5
//
// The headline speedup is contention-bound: the worker runtime wins by
// replacing a mutex contended by every connection goroutine with one
// owning goroutine per shard, so the gap scales with hardware threads.
// On a single-CPU host both modes are serialized behind the simulated
// engine (the dominant real CPU cost) and measure ~1.0x — so -check is
// enforced only when the host has more than one CPU, and the artifact
// embeds the host fingerprint (internal/hostmeta) so a 1-CPU container
// capture is never misread as a multi-core regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"addrkv/internal/hostmeta"
	"addrkv/internal/telemetry"
)

// depthPoint mirrors the fields this tool consumes from kvbench's
// depthResult JSON, percentiles included — the merged artifact carries
// p50/p99/p999 for every matrix cell, not just ops/sec.
type depthPoint struct {
	Depth       int                 `json:"depth"`
	Conns       int                 `json:"conns"`
	Ops         uint64              `json:"ops"`
	Errors      uint64              `json:"errors"`
	OpsPerSec   float64             `json:"ops_per_sec"`
	RoundtripUS telemetry.Quantiles `json:"roundtrip_us"`
	LatencyUS   telemetry.Quantiles `json:"latency_us"`
}

type benchArtifact struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params"`
	Sweep  []depthPoint   `json:"sweep"`
}

// runSpec is one kvserve configuration to benchmark: a cell of the
// cores x shards matrix (depth sweeps inside the cell).
type runSpec struct {
	Dispatch string `json:"dispatch"`
	Cores    int    `json:"cores"` // server GOMAXPROCS
	Shards   int    `json:"shards"`
	sweep    string
}

type runResult struct {
	runSpec
	Sweep []depthPoint `json:"sweep"`
}

// headline is an interleaved A/B at one configuration: per-leg ops/sec
// per round plus the best of each (best-of damps scheduler jitter on
// small hosts; alternating rounds cancel warmth drift).
type headline struct {
	Shards int `json:"shards"`
	Depth  int `json:"depth"`
	Cores  int `json:"cores"`
	// A = the baseline leg, B = the candidate leg.
	ARounds    []float64 `json:"a_rounds"`
	BRounds    []float64 `json:"b_rounds"`
	AOpsPerSec float64   `json:"a_ops_per_sec"`
	BOpsPerSec float64   `json:"b_ops_per_sec"`
	Speedup    float64   `json:"speedup"` // B / A
}

type matrixArtifact struct {
	Name   string         `json:"name"`
	Kind   string         `json:"kind"`
	Host   hostmeta.Meta  `json:"host"`
	Params map[string]any `json:"params"`
	Runs   []runResult    `json:"runs"`
	// WorkerHeadline: A = mutex dispatch, B = worker dispatch (top
	// core count).
	WorkerHeadline headline `json:"worker_headline"`
}

func main() {
	var (
		kvserve  = flag.String("kvserve", "", "path to a built kvserve binary (required)")
		kvbench  = flag.String("kvbench", "", "path to a built kvbench binary (required)")
		out      = flag.String("json", "results/BENCH_throughput.json", "merged artifact path")
		ops      = flag.Int("ops", 60_000, "operations per depth point")
		conns    = flag.Int("conns", 16, "concurrent benchmark connections")
		keys     = flag.Int("keys", 10_000, "key-space size (server preloads it)")
		vsize    = flag.Int("vsize", 64, "value size")
		rounds   = flag.Int("rounds", 3, "interleaved rounds per headline comparison")
		coresArg = flag.String("cores", "", "comma-separated server GOMAXPROCS values (default: 1 and NumCPU, deduped)")
		check    = flag.Float64("check", 0, "fail unless worker/mutex speedup at the headline point is >= this; only enforced on hosts with >1 CPU (0 = report only)")
	)
	flag.Parse()
	if *kvserve == "" || *kvbench == "" {
		fmt.Fprintln(os.Stderr, "throughput: -kvserve and -kvbench are required")
		os.Exit(2)
	}
	cores, err := parseCores(*coresArg)
	if err != nil {
		fatal(err)
	}
	topCores := cores[len(cores)-1]

	tmp, err := os.MkdirTemp("", "throughput-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	bench := func(spec runSpec) []depthPoint {
		sweep, err := benchOne(tmp, *kvserve, *kvbench, spec, *ops, *conns, *keys, *vsize)
		if err != nil {
			fatal(fmt.Errorf("%s/cores=%d/shards=%d: %w",
				spec.Dispatch, spec.Cores, spec.Shards, err))
		}
		return sweep
	}

	// The matrix: cores x shards, each cell a depth sweep on the worker
	// runtime (the seeded bench trajectory).
	var runs []runResult
	for _, c := range cores {
		for _, shards := range []int{1, 4} {
			spec := runSpec{Dispatch: "worker", Cores: c, Shards: shards, sweep: "1,4,16"}
			fmt.Printf("== worker dispatch, %d core(s), %d shard(s), depths %s ==\n",
				c, shards, spec.sweep)
			runs = append(runs, runResult{runSpec: spec, Sweep: bench(spec)})
		}
	}

	// The headline at the top core count, interleaved so both legs
	// sample the same noise regime.
	interleave := func(name string, a, b runSpec) (headline, []runResult) {
		hl := headline{Shards: a.Shards, Depth: 16, Cores: a.Cores}
		var bestA, bestB []depthPoint
		for r := 0; r < *rounds; r++ {
			legs := [2]runSpec{a, b}
			if r%2 == 1 {
				legs[0], legs[1] = b, a
			}
			for _, spec := range legs {
				fmt.Printf("== %s headline round %d/%d: %s dispatch ==\n",
					name, r+1, *rounds, spec.Dispatch)
				sweep := bench(spec)
				rate := sweep[len(sweep)-1].OpsPerSec
				if spec == a {
					hl.ARounds = append(hl.ARounds, rate)
					if rate > hl.AOpsPerSec {
						hl.AOpsPerSec, bestA = rate, sweep
					}
				} else {
					hl.BRounds = append(hl.BRounds, rate)
					if rate > hl.BOpsPerSec {
						hl.BOpsPerSec, bestB = rate, sweep
					}
				}
			}
		}
		if hl.AOpsPerSec > 0 {
			hl.Speedup = hl.BOpsPerSec / hl.AOpsPerSec
		}
		return hl, []runResult{{runSpec: a, Sweep: bestA}, {runSpec: b, Sweep: bestB}}
	}

	depth16 := fmt.Sprint(16)
	workerHL, workerRuns := interleave("worker-vs-mutex",
		runSpec{Dispatch: "mutex", Cores: topCores, Shards: 8, sweep: depth16},
		runSpec{Dispatch: "worker", Cores: topCores, Shards: 8, sweep: depth16})
	runs = append(runs, workerRuns...)

	art := matrixArtifact{
		Name: "throughput",
		Kind: "kvbench-matrix",
		Host: hostmeta.Collect(),
		Params: map[string]any{
			"ops": *ops, "conns": *conns, "keys": *keys, "vsize": *vsize,
			"transport": "unix", "get_ratio": 0.9, "seed": 42,
			"rounds": *rounds, "cores": cores, "cpus": runtime.NumCPU(),
		},
		Runs:           runs,
		WorkerHeadline: workerHL,
	}
	if err := writeJSON(*out, art); err != nil {
		fatal(err)
	}
	fmt.Printf("worker headline (cores=%d shards=%d depth=%d): mutex %.0f ops/sec, worker %.0f ops/sec, speedup %.2fx\n",
		workerHL.Cores, workerHL.Shards, workerHL.Depth, workerHL.AOpsPerSec, workerHL.BOpsPerSec, workerHL.Speedup)
	fmt.Printf("wrote %s\n", *out)
	if *check > 0 {
		if runtime.NumCPU() <= 1 {
			fmt.Printf("single-CPU host: %.2fx worker-speedup floor not enforced (both modes serialize behind the engine; the artifact's host stamp records this)\n", *check)
		} else if workerHL.Speedup < *check {
			fmt.Fprintf(os.Stderr, "throughput: worker speedup %.2fx below the %.2fx floor\n", workerHL.Speedup, *check)
			os.Exit(1)
		}
	}
}

// parseCores parses -cores; the default sweeps 1 and every hardware
// thread (deduped, ascending), so the artifact shows the scaling trend
// whenever the host can express one.
func parseCores(s string) ([]int, error) {
	if s == "" {
		if n := runtime.NumCPU(); n > 1 {
			return []int{1, n}, nil
		}
		return []int{1}, nil
	}
	var cores []int
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad -cores value %q", part)
		}
		cores = append(cores, c)
	}
	return cores, nil
}

// benchOne boots kvserve for one spec (GOMAXPROCS via env), drives
// kvbench against it, and returns the parsed sweep.
func benchOne(tmp, kvserve, kvbench string, spec runSpec, ops, conns, keys, vsize int) ([]depthPoint, error) {
	sock := filepath.Join(tmp, fmt.Sprintf("kv-%s-%d-%d.sock", spec.Dispatch, spec.Cores, spec.Shards))
	args := []string{
		"-sock", sock,
		"-shards", fmt.Sprint(spec.Shards),
		"-dispatch", spec.Dispatch,
		"-preload", "-keys", fmt.Sprint(keys), "-vsize", fmt.Sprint(vsize),
	}
	srv := exec.Command(kvserve, args...)
	srv.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(spec.Cores))
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("start kvserve: %w", err)
	}
	defer func() {
		srv.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { srv.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			srv.Process.Kill()
			<-done
		}
	}()
	if err := waitSocket(sock, 15*time.Second); err != nil {
		return nil, err
	}

	art := filepath.Join(tmp, fmt.Sprintf("sweep-%s-%d-%d.json", spec.Dispatch, spec.Cores, spec.Shards))
	bench := exec.Command(kvbench,
		"-sock", sock,
		"-sweep", spec.sweep,
		"-ops", fmt.Sprint(ops),
		"-conns", fmt.Sprint(conns),
		"-keys", fmt.Sprint(keys),
		"-vsize", fmt.Sprint(vsize),
		"-json", art,
	)
	bench.Stdout = os.Stdout
	bench.Stderr = os.Stderr
	if err := bench.Run(); err != nil {
		return nil, fmt.Errorf("kvbench: %w", err)
	}
	raw, err := os.ReadFile(art)
	if err != nil {
		return nil, err
	}
	var parsed benchArtifact
	if err := json.Unmarshal(raw, &parsed); err != nil {
		return nil, fmt.Errorf("parse %s: %w", art, err)
	}
	for _, p := range parsed.Sweep {
		if p.Errors > 0 {
			return nil, fmt.Errorf("depth %d reported %d errors", p.Depth, p.Errors)
		}
	}
	return parsed.Sweep, nil
}

func waitSocket(path string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if conn, err := net.Dial("unix", path); err == nil {
			conn.Close()
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("kvserve socket %s not ready after %s", path, limit)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "throughput:", err)
	os.Exit(1)
}
