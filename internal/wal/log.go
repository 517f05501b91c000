package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects when Commit fsyncs — the Redis appendfsync trade-off.
type Policy int

// Fsync policies. FsyncAlways makes every Commit durable before it
// returns (an acknowledged op can never be lost); FsyncEverySec marks
// the segment dirty and a background syncer fsyncs at most once per
// second (bounded loss window, near-zero hot-path cost); FsyncNo
// leaves flushing to the OS entirely.
const (
	FsyncNo Policy = iota
	FsyncEverySec
	FsyncAlways
)

func (p Policy) String() string {
	switch p {
	case FsyncNo:
		return "no"
	case FsyncEverySec:
		return "everysec"
	case FsyncAlways:
		return "always"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses the -aof-fsync flag values.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "no":
		return FsyncNo, nil
	case "everysec":
		return FsyncEverySec, nil
	case "always":
		return FsyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, everysec, or no)", s)
}

// segPath and snapPath name one shard's generation-g files. Rewrites
// bump the generation and swap whole files in atomically (rename), so
// there is never a moment where a crash can observe a half-truncated
// log — recovery just picks the highest complete generation.
func segPath(dir string, shard int, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.aof.%d", shard, gen))
}

func snapPath(dir string, shard int, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.snap.%d", shard, gen))
}

// PendBound caps the pending buffer. An Append that would push the
// pending bytes past it first writes what the buffer holds, so a bulk
// path (preload, an oversized pipelined burst, a migration import)
// never holds more than about PendBound in memory while ordinary
// group-commit bursts, a few frames each, never reach it. Commit
// remains the durability barrier: bytes written early are not
// fsynced, and not acknowledged, until the next Commit.
const PendBound = 1 << 20

// Log is one shard's append-only log. Exactly one writer (the shard's
// owning worker or a mutex-path caller holding the shard lock) appends;
// the internal mutex only coordinates appends with the background
// everysec syncer and with rewrites.
//
// The write path is two-phase to match the worker runtime's burst
// shape: Append encodes frames into a pending buffer (no syscalls, no
// allocations in steady state), and Commit writes the whole buffer
// with one write(2) and at most one fsync — group commit over a drain
// burst. A burst larger than PendBound is written in several pieces,
// with the same bytes in the same order.
type Log struct {
	dir    string
	shard  int
	policy Policy

	mu   sync.Mutex
	f    *os.File
	gen  uint64
	pend []byte
	size int64 // committed bytes in the current segment
	err  error // sticky I/O error; appends/commits stop after the first

	// unsynced tracks whether bytes written since the last fsync exist,
	// so an always-policy Commit on a write-free burst skips the
	// barrier instead of fsyncing an already-durable file.
	unsynced bool

	pendMax  int // high-water mark of len(pend)
	appends  uint64
	commits  uint64
	spills   uint64
	fsyncs   uint64
	fsyncNS  uint64
	rewrites uint64
	lastSave int64 // unix ns of the last completed rewrite (0 = never)

	// onFsync, when set (before traffic), observes each fsync's wall
	// duration — the telemetry histogram hook.
	onFsync func(ns int64)

	dirty  atomic.Bool
	stop   chan struct{}
	closed chan struct{}
}

// SetFsyncObserver installs a callback invoked (under the log mutex)
// with each fsync's wall-clock nanoseconds. Install before traffic.
func (l *Log) SetFsyncObserver(fn func(ns int64)) { l.onFsync = fn }

// Shard returns the shard index this log belongs to.
func (l *Log) Shard() int { return l.shard }

// Policy returns the fsync policy.
func (l *Log) Policy() Policy { return l.policy }

// SegmentPath returns the current generation's log file path
// (diagnostics and tests).
func (l *Log) SegmentPath() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return segPath(l.dir, l.shard, l.gen)
}

// Append encodes one record into the pending buffer. It performs no
// allocation once the buffer has grown to the burst's working size,
// and touches the file only when the record would push the buffer
// past PendBound; Commit publishes it. Returns the frame's encoded
// size (0 after an I/O error).
func (l *Log) Append(kind Kind, key, value []byte) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0
	}
	n := FrameSize(len(key), len(value))
	if len(l.pend) > 0 && len(l.pend)+n > PendBound {
		l.spills++
		l.unsynced = true
		if l.writePendLocked() != nil {
			return 0
		}
	}
	l.pend = AppendFrame(l.pend, kind, key, value)
	l.pendMax = max(l.pendMax, len(l.pend))
	l.appends++
	return n
}

// writePendLocked writes the pending buffer to the segment with one
// write(2) and empties it. A buffer an oversized record grew past
// twice the bound is released rather than kept for the log's life.
// An error is sticky in l.err.
func (l *Log) writePendLocked() error {
	n, err := l.f.Write(l.pend)
	l.size += int64(n)
	l.pend = l.pend[:0]
	if cap(l.pend) > 2*PendBound {
		l.pend = nil
	}
	if err != nil {
		l.err = fmt.Errorf("wal shard %d: append: %w", l.shard, err)
	}
	return l.err
}

// Commit writes the pending buffer to the segment with one write(2)
// and applies the fsync policy: always → fsync now (group commit —
// one barrier for every record appended since the last Commit);
// everysec → mark dirty for the background syncer; no → nothing.
// The returned error is sticky: after an I/O error the log stops
// accepting writes and every later Commit reports it.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked()
}

func (l *Log) commitLocked() error {
	if l.err != nil {
		return l.err
	}
	if len(l.pend) > 0 {
		l.commits++
		l.unsynced = true
		if err := l.writePendLocked(); err != nil {
			return err
		}
	}
	switch l.policy {
	case FsyncAlways:
		// Group commit: one barrier covers every record written since
		// the last fsync — including records another path (a mutex-mode
		// op between worker bursts) committed without waiting.
		if l.unsynced {
			return l.fsyncLocked()
		}
	case FsyncEverySec:
		if l.unsynced {
			l.dirty.Store(true)
		}
	}
	return nil
}

func (l *Log) fsyncLocked() error {
	t0 := time.Now()
	err := l.f.Sync()
	ns := time.Since(t0).Nanoseconds()
	l.fsyncs++
	l.fsyncNS += uint64(ns)
	l.unsynced = false
	if l.onFsync != nil {
		l.onFsync(ns)
	}
	if err != nil {
		l.err = fmt.Errorf("wal shard %d: fsync: %w", l.shard, err)
		return l.err
	}
	return nil
}

// Sync force-commits pending records and fsyncs regardless of policy
// (shutdown, snapshot barriers).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if len(l.pend) > 0 {
		l.commits++
		if err := l.writePendLocked(); err != nil {
			return err
		}
	}
	return l.fsyncLocked()
}

// Err returns the sticky I/O error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close stops the background syncer, commits and fsyncs pending
// records, and closes the segment.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.closed
		l.stop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	syncErr := error(nil)
	if l.err == nil {
		if len(l.pend) > 0 {
			l.commits++
			l.writePendLocked() //nolint:errcheck // sticky in l.err
		}
		if l.err == nil {
			syncErr = l.fsyncLocked()
		}
	}
	closeErr := l.f.Close()
	l.f = nil
	if l.err != nil {
		return l.err
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// runSyncer is the everysec background fsync loop.
func (l *Log) runSyncer() {
	defer close(l.closed)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			if l.dirty.Swap(false) {
				l.mu.Lock()
				if l.err == nil && l.f != nil {
					l.fsyncLocked() //nolint:errcheck // sticky in l.err
				}
				l.mu.Unlock()
			}
		}
	}
}

// Stats is a point-in-time snapshot of one log's counters.
type Stats struct {
	// Gen is the current file generation (bumped by every rewrite).
	Gen uint64
	// SizeBytes counts bytes written to the current segment;
	// PendBytes counts encoded-but-unwritten bytes and PendMaxBytes
	// is its high-water mark over the log's life (at most PendBound
	// plus one frame).
	SizeBytes    int64
	PendBytes    int
	PendMaxBytes int
	// Appends/Commits/Fsyncs count records, write(2) batches, and
	// fsync(2) barriers — Appends/Commits is the group-commit factor.
	// Spills counts the early writes Append made to keep the pending
	// buffer under PendBound; they are not commits.
	Appends uint64
	Commits uint64
	Spills  uint64
	Fsyncs  uint64
	// FsyncNS is total wall time spent in fsync.
	FsyncNS uint64
	// Rewrites counts compacting snapshots; LastSaveUnixNS stamps the
	// last one (0 = never in this process's lifetime).
	Rewrites       uint64
	LastSaveUnixNS int64
}

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Gen:            l.gen,
		SizeBytes:      l.size,
		PendBytes:      len(l.pend),
		PendMaxBytes:   l.pendMax,
		Appends:        l.appends,
		Commits:        l.commits,
		Spills:         l.spills,
		Fsyncs:         l.fsyncs,
		FsyncNS:        l.fsyncNS,
		Rewrites:       l.rewrites,
		LastSaveUnixNS: l.lastSave,
	}
}
