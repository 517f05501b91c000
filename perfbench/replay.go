package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"addrkv"
	"addrkv/internal/resp"
	"addrkv/internal/shard"
	"addrkv/internal/wal"
	"addrkv/internal/ycsb"
)

// The traced run replays the workload in-process through the public
// entry points kvserve composes — resp.Reader/resp.Writer around a
// shard.Cluster running its workers, with per-shard logs from
// wal.OpenShard attached for the durable workload — with the same
// connection count, pipeline depth and warm-up as the end-to-end run.
// Spans are recorded by this file around each call; inside a call
// nothing is timed, so a layer whose internal split is invisible from
// outside (queue wait versus engine work inside Enqueue→Wait) is
// reported as its outer span plus the layer's own counters.

// kvserveSweepLimit mirrors kvserve's default -sweep-limit, which its
// worker runtime is started with.
const kvserveSweepLimit = 20

// replayRounds is how many spans-off/spans-on chunk pairs the replay
// alternates; maxTracedOps caps the ops whose spans are kept.
const (
	replayRounds = 4
	maxTracedOps = 160_000
	maxExecOps   = 100_000
)

type spanKind uint8

const (
	spBatch  spanKind = iota // one pipelined batch, parent of the rest
	spParse                  // resp.Reader.ReadPipelineReuse
	spRoute                  // shard.Cluster.ShardFor
	spSubmit                 // shard.Cluster.Enqueue until shard.Req.Wait returns
	spEncode                 // resp.Writer reply call
	spExec                   // kv.Engine Get/Set
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"batch", "resp.parse", "shard.route", "shard.submit", "resp.encode", "kv.exec"}

// span is one timed call. Times are ns since the recorder's epoch.
type span struct {
	kind       spanKind
	parent     int32 // index of the parent span in the same recorder, -1 for none
	op         int64 // op id shared by an op's spans, -1 for batch-level spans
	start, end int64
}

// recorder keeps one connection's spans in memory.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) begin(k spanKind, parent int32, op int64) int32 {
	r.spans = append(r.spans, span{kind: k, parent: parent, op: op, start: int64(time.Since(r.epoch))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) { r.spans[i].end = int64(time.Since(r.epoch)) }

// batchSource is the bytes of one batch as the reader's socket.
type batchSource struct{ b []byte }

func (s *batchSource) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

// replayConn is one simulated connection: its stream's batches are
// parsed, routed, submitted and answered like kvserve's worker path.
type replayConn struct {
	id   int
	st   *stream
	c    *shard.Cluster
	src  batchSource
	rd   *resp.Reader
	wr   *resp.Writer
	reqs []*shard.Req
	subs []int32
	rec  recorder
	seq  int64

	ops, failed, sets uint64
	firstErr          string
}

func (rc *replayConn) fail(msg string) {
	rc.failed++
	if rc.firstErr == "" {
		rc.firstErr = msg
	}
}

func (rc *replayConn) opID() int64 {
	rc.seq++
	return int64(rc.id)<<40 | rc.seq
}

// serve runs the stream's current batch through the server path: each
// burst ReadPipelineReuse returns is enqueued, then awaited and
// answered in order before the next read, exactly as kvserve's serve
// loop does (the arena behind the burst is reused by the next read).
func (rc *replayConn) serve(traced bool) error {
	ops := rc.st.ops
	rc.src.b = rc.st.buf
	for len(rc.reqs) < len(ops) {
		rc.reqs = append(rc.reqs, shard.NewReq())
		rc.subs = append(rc.subs, -1)
	}
	r := &rc.rec
	bs := int32(-1)
	if traced {
		bs = r.begin(spBatch, -1, -1)
	}
	for n := 0; n < len(ops); {
		ps := int32(-1)
		if traced {
			ps = r.begin(spParse, bs, -1)
		}
		cmds, err := rc.rd.ReadPipelineReuse(0)
		if traced {
			r.end(ps)
		}
		if err != nil {
			return fmt.Errorf("replay parse: %w", err)
		}
		for i, args := range cmds {
			o, req := ops[n+i], rc.reqs[n+i]
			id := rc.opID()
			// Routed in both modes so spans are the only difference.
			rs := int32(-1)
			if traced {
				rs = r.begin(spRoute, bs, id)
			}
			rc.c.ShardFor(args[1])
			if traced {
				r.end(rs)
			}
			req.Kind, req.Key, req.Value = shard.OpGet, args[1], nil
			if o.set {
				req.Kind, req.Value = shard.OpSet, args[2]
			}
			req.Out = shard.OpOutcome{Shard: -1}
			if traced {
				rc.subs[n+i] = r.begin(spSubmit, bs, id)
			}
			rc.c.Enqueue(req)
		}
		for i := range cmds {
			o, req := ops[n+i], rc.reqs[n+i]
			req.Wait()
			es := int32(-1)
			if traced {
				r.end(rc.subs[n+i])
				es = r.begin(spEncode, bs, r.spans[rc.subs[n+i]].op)
			}
			if o.set {
				err = rc.wr.WriteSimple("OK")
			} else if req.OK {
				err = rc.wr.WriteBulk(req.Val)
			} else {
				err = rc.wr.WriteBulk(nil)
			}
			if traced {
				r.end(es)
			}
			if err != nil {
				return err
			}
			rc.check(o, req.Val, req.OK)
		}
		n += len(cmds)
	}
	err := rc.wr.Flush()
	if traced {
		r.end(bs)
	}
	return err
}

// check verifies one completed op like the socket client does.
func (rc *replayConn) check(o op, val []byte, ok bool) {
	rc.ops++
	switch {
	case o.set:
		rc.sets++
		rc.st.ks.ackSet(o)
	case !rc.st.ks.checkGet(o, val, ok):
		rc.fail(fmt.Sprintf("replay GET %d: wrong value (found=%v)", o.id, ok))
	}
}

// execDirect runs the current batch straight through each key's
// engine (workers stopped), one kv.exec span per call.
func (rc *replayConn) execDirect() {
	r := &rc.rec
	bs := r.begin(spBatch, -1, -1)
	var key [ycsb.KeyLen]byte
	for _, o := range rc.st.ops {
		k := ycsb.KeyNameInto(key[:], o.id)
		e := rc.c.Engine(rc.c.ShardFor(k))
		id := rc.opID()
		if o.set {
			v := ycsb.Value(o.id, o.ver, valueSize)
			s := r.begin(spExec, bs, id)
			e.Set(k, v)
			r.end(s)
			rc.check(o, nil, true)
			continue
		}
		s := r.begin(spExec, bs, id)
		val, ok := e.Get(k)
		r.end(s)
		rc.check(o, val, ok)
	}
	r.end(bs)
}

// fsyncLog collects fsync durations from the logs' observers.
type fsyncLog struct {
	mu sync.Mutex
	ns []int64
}

func (f *fsyncLog) observe(ns int64) {
	f.mu.Lock()
	f.ns = append(f.ns, ns)
	f.mu.Unlock()
}

func (f *fsyncLog) take() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.ns
	f.ns = nil
	return out
}

type replayResult struct {
	metrics           map[string]metric
	attempted, failed uint64
}

// replay runs the traced in-process replay. e2eOps, the ops the
// end-to-end window completed, sizes its chunks so the replay does a
// comparable amount of work.
func replay(cfg config, e2eOps uint64) (*replayResult, error) {
	w := cfg.w
	sys, err := addrkv.New(addrkv.Options{
		Keys: numKeys, Shards: numShards, Index: addrkv.IndexChainHash,
		Mode: addrkv.ModeSTLT, RedisLayer: true,
	})
	if err != nil {
		return nil, err
	}
	c := sys.Cluster()
	var fs fsyncLog
	var logs []*wal.Log
	if w.aof {
		// Logs come up before the preload, as in kvserve, so the load
		// is logged too.
		dir := filepath.Join(cfg.work, "replay-aof")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		policy, err := wal.ParsePolicy(fsyncPolicy)
		if err != nil {
			return nil, err
		}
		for i := 0; i < numShards; i++ {
			l, _, err := wal.OpenShard(dir, i, policy)
			if err != nil {
				for _, l := range logs {
					l.Close()
				}
				return nil, err
			}
			l.SetFsyncObserver(fs.observe)
			logs = append(logs, l)
		}
		if err := c.AttachWAL(logs); err != nil {
			return nil, err
		}
		defer c.CloseWAL()
	}
	sys.Load(numKeys, valueSize)
	c.SetSweepLimit(kvserveSweepLimit)
	if err := c.StartWorkers(0); err != nil {
		return nil, err
	}
	defer c.StopWorkers()

	ks := newKeyState(numKeys)
	epoch := time.Now()
	conns := make([]*replayConn, numConns)
	for i := range conns {
		rc := &replayConn{id: i, st: newStream(w, cfg.seed, i, numConns, ks), c: c, rec: recorder{epoch: epoch}}
		rc.rd = resp.NewReader(&rc.src)
		rc.wr = resp.NewWriter(io.Discard)
		conns[i] = rc
	}
	runOps := func(n uint64, traced bool) func(*replayConn) error {
		return func(rc *replayConn) error {
			for start := rc.ops; rc.ops-start < n; {
				rc.st.fill(w.depth)
				if err := rc.serve(traced); err != nil {
					return err
				}
			}
			return nil
		}
	}

	// Warm-up, as in the end-to-end run.
	if err := parallel(conns, func(rc *replayConn) error {
		for rc.st.fillSweep(sweepDepth) {
			if err := rc.serve(false); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := parallel(conns, runOps(warmOps, false)); err != nil {
		return nil, err
	}

	// Measured rounds: equal-sized chunks with spans off and on, the
	// order alternating per round; the overhead is the median ratio.
	chunk := min(e2eOps/(4*replayRounds*numConns), maxTracedOps/(replayRounds*numConns))
	chunk = max(chunk, uint64(10*w.depth))
	execOps := min(chunk, maxExecOps/numConns)
	for _, rc := range conns {
		// Room for every span up front: growing the slice inside a
		// span would time the copy.
		rc.rec.spans = make([]span, 0, 5*replayRounds*chunk+2*execOps+64)
	}
	sys.MarkMeasurement()
	ws0 := c.RuntimeStats()
	wal0 := walStats(logs)
	fs.take()
	var roundsOps, roundSets uint64
	for _, rc := range conns {
		roundsOps -= rc.ops
		roundSets -= rc.sets
	}
	var ratios []float64
	for round := 0; round < replayRounds; round++ {
		var dur [2]time.Duration
		for j := 0; j < 2; j++ {
			traced := (round+j)%2 == 1
			start := time.Now()
			if err := parallel(conns, runOps(chunk, traced)); err != nil {
				return nil, err
			}
			if traced {
				dur[1] = time.Since(start)
			} else {
				dur[0] = time.Since(start)
			}
		}
		ratios = append(ratios, dur[1].Seconds()/dur[0].Seconds())
	}
	for _, rc := range conns {
		roundsOps += rc.ops
		roundSets += rc.sets
	}
	rep := sys.Report()
	ws1 := c.RuntimeStats()
	wal1 := walStats(logs)
	fsyncs := fs.take()

	// Engine pass: the same streams straight into kv.Engine Get/Set.
	c.StopWorkers()
	for _, rc := range conns {
		for start := rc.ops; rc.ops-start < execOps; {
			rc.st.fill(w.depth)
			rc.execDirect()
		}
	}

	res := &replayResult{metrics: map[string]metric{}}
	for _, rc := range conns {
		res.attempted += rc.ops
		res.failed += rc.failed
		if rc.firstErr != "" {
			fmt.Fprintf(os.Stderr, "perfbench: first failed replay op: %s\n", rc.firstErr)
		}
	}
	m := res.metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	agg := aggregateSpans(conns)
	agg.print()
	put("resp.parse_ns_per_cmd", agg.self[spParse]/float64(agg.count[spRoute]), "ns")
	put("resp.encode_ns_per_reply", agg.self[spEncode]/float64(agg.count[spEncode]), "ns")
	put("shard.route_ns", agg.self[spRoute]/float64(agg.count[spRoute]), "ns")
	sort.Slice(agg.submit, func(i, j int) bool { return agg.submit[i] < agg.submit[j] })
	put("shard.submit_ns_p50", float64(percentile(agg.submit, p50)), "ns")
	put("shard.submit_ns_p99", float64(percentile(agg.submit, p99)), "ns")
	put("kv.exec_ns_per_op", agg.self[spExec]/float64(agg.count[spExec]), "ns")

	var drains, drained, spins uint64
	for i := range ws1 {
		drains += ws1[i].Drains - ws0[i].Drains
		drained += ws1[i].DrainedOps - ws0[i].DrainedOps
		spins += ws1[i].FullSpins - ws0[i].FullSpins
	}
	put("shard.drain_mean", float64(drained)/float64(drains), "ops")
	put("shard.full_spins_per_kop", 1000*float64(spins)/float64(roundsOps), "count")
	put("shard.cycle_skew", float64(rep.MaxShardCycles)*float64(rep.Shards)/float64(rep.Cycles), "ratio")
	for _, cat := range []string{"hash", "traverse", "translate", "data", "stlt", "other"} {
		put("kv.share."+cat, rep.CategoryShare[cat], "fraction")
	}
	put("core.fast_path_hit_rate", rep.FastPathHitRate, "fraction")
	put("core.table_miss_rate", rep.TableMissRate, "fraction")
	put("cpu.tlb_misses_per_op", rep.TLBMissesPerOp, "count")
	put("cpu.page_walks_per_op", rep.PageWalksPerOp, "count")
	put("cache.llc_misses_per_op", rep.CacheMissesPerOp, "count")

	var appendsPerCommit, fsyncsPerKop, fsP50, fsP99, bytesPerUser float64
	if w.aof {
		appendsPerCommit = float64(wal1.Appends-wal0.Appends) / float64(wal1.Commits-wal0.Commits)
		fsyncsPerKop = 1000 * float64(wal1.Fsyncs-wal0.Fsyncs) / float64(roundsOps)
		if len(fsyncs) > 0 {
			sort.Slice(fsyncs, func(i, j int) bool { return fsyncs[i] < fsyncs[j] })
			fsP50 = float64(percentile(fsyncs, p50)) / 1e3
			fsP99 = float64(percentile(fsyncs, p99)) / 1e3
		}
		bytesPerUser = float64(wal1.SizeBytes-wal0.SizeBytes) / float64(roundSets*(ycsb.KeyLen+valueSize))
	}
	put("wal.appends_per_commit", appendsPerCommit, "count")
	put("wal.fsyncs_per_kop", fsyncsPerKop, "count")
	put("wal.fsync_us_p50", fsP50, "us")
	put("wal.fsync_us_p99", fsP99, "us")
	put("wal.bytes_per_user_byte", bytesPerUser, "ratio")
	put("trace.overhead_frac", medianF(ratios)-1, "fraction")

	fmt.Printf("replay: %d rounds x %d ops/conn per chunk (spans off and on), then %d ops/conn straight into kv.Engine; modeled cycles/op %.4f; %d fsyncs\n",
		replayRounds, chunk, execOps, rep.CyclesPerOp, len(fsyncs))
	path := filepath.Join(cfg.work, "spans-"+w.name+".tsv")
	if err := writeSpans(path, conns); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s\n", path)
	return res, nil
}

func walStats(logs []*wal.Log) wal.Stats {
	var agg wal.Stats
	for _, l := range logs {
		st := l.Stats()
		agg.SizeBytes += st.SizeBytes
		agg.Appends += st.Appends
		agg.Commits += st.Commits
		agg.Fsyncs += st.Fsyncs
	}
	return agg
}

// spanAgg is the per-kind self time of every recorded span. A span's
// self time is its duration minus the part its children cover.
type spanAgg struct {
	count  [numSpanKinds]uint64
	self   [numSpanKinds]float64 // ns
	submit []int64               // shard.submit durations
}

func aggregateSpans(conns []*replayConn) *spanAgg {
	a := &spanAgg{}
	for _, rc := range conns {
		kids := map[int32][][2]int64{}
		for _, s := range rc.rec.spans {
			if s.parent >= 0 {
				kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
			}
		}
		for i, s := range rc.rec.spans {
			a.count[s.kind]++
			a.self[s.kind] += float64(s.end - s.start - covered(s.start, s.end, kids[int32(i)]))
			if s.kind == spSubmit {
				a.submit = append(a.submit, s.end-s.start)
			}
		}
	}
	return a
}

// covered returns how much of [start, end) the intervals cover.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

func (a *spanAgg) print() {
	fmt.Println("span self time by layer (traced replay):")
	for k := spanKind(0); k < numSpanKinds; k++ {
		if a.count[k] == 0 {
			continue
		}
		fmt.Printf("  %-13s %9d spans  %12.0f ns self  %9.1f ns/span\n",
			spanNames[k], a.count[k], a.self[k], a.self[k]/float64(a.count[k]))
	}
}

// writeSpans writes every recorded span as one TSV line.
func writeSpans(path string, conns []*replayConn) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(bw, "conn\tspan\tparent\top\tname\tstart_ns\tend_ns")
	for _, rc := range conns {
		for i, s := range rc.rec.spans {
			fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", rc.id, i, s.parent, s.op, spanNames[s.kind], s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
