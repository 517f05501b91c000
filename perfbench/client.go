package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"
)

// slotDur is the sub-window the timed window is cut into; throughput
// and latency percentiles are taken per slot and reported as the
// median over full slots, so a passing disturbance on the shared host
// moves one slot, not the result.
const slotDur = 500 * time.Millisecond

// slot is what completed within one sub-window.
type slot struct {
	ops      uint64
	get, set []int64 // latency in ns from the batch's flush to the reply's read
}

// client drives one RESP connection as a closed loop: it writes a whole
// pipelined batch, then reads and checks every reply before it builds
// the next batch.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	st   *stream
	val  []byte

	// Tallies of the current phase (see resetTallies).
	ops, failed uint64
	firstErr    string
	// slots holds the timed window's completions by sub-window of
	// winStart; nil outside the timed window.
	winStart time.Time
	slots    []slot
}

func dialClient(sock string, st *stream) (*client, error) {
	c, err := net.Dial("unix", sock)
	if err != nil {
		return nil, err
	}
	return &client{conn: c, r: bufio.NewReaderSize(c, 64<<10), st: st}, nil
}

func (c *client) close() { c.conn.Close() }

func (c *client) resetTallies() { c.ops, c.failed = 0, 0 }

func (c *client) fail(msg string) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = msg
	}
}

// roundTrip sends the stream's current batch and checks its replies.
// When record is set it files each verified op's latency under its
// slot. A transport error (missing replies) counts the unanswered ops
// as failed and is returned, since the connection is then unusable.
func (c *client) roundTrip(record bool) error {
	ops := c.st.ops
	t0 := time.Now()
	if _, err := c.conn.Write(c.st.buf); err != nil {
		c.ops += uint64(len(ops))
		c.failed += uint64(len(ops))
		return fmt.Errorf("write batch: %w", err)
	}
	for i, o := range ops {
		val, found, simple, err := c.readReply()
		if err != nil {
			c.ops += uint64(len(ops) - i)
			c.failed += uint64(len(ops) - i)
			return fmt.Errorf("read reply: %w", err)
		}
		now := time.Now()
		c.ops++
		var sl *slot
		if record {
			k := int(now.Sub(c.winStart) / slotDur)
			for len(c.slots) <= k {
				c.slots = append(c.slots, slot{})
			}
			sl = &c.slots[k]
			sl.ops++
		}
		lat := now.Sub(t0).Nanoseconds()
		switch {
		case o.set && simple == "OK":
			c.st.ks.ackSet(o)
			if sl != nil {
				sl.set = append(sl.set, lat)
			}
		case o.set:
			c.fail(fmt.Sprintf("SET %d: reply %q", o.id, simple))
		case simple != "":
			c.fail(fmt.Sprintf("GET %d: reply %q", o.id, simple))
		case c.st.ks.checkGet(o, val, found):
			if sl != nil {
				sl.get = append(sl.get, lat)
			}
		default:
			c.fail(fmt.Sprintf("GET %d: wrong value (found=%v, %d bytes)", o.id, found, len(val)))
		}
	}
	return nil
}

// readReply reads one reply: a bulk string (val, found), or a simple
// string, error or integer rendered into simple ("-ERR ..." keeps its
// sign so it never equals "OK").
func (c *client) readReply() (val []byte, found bool, simple string, err error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, false, "", err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return nil, false, "", errors.New("malformed reply line")
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case '+':
		if string(body) == "OK" {
			return nil, false, "OK", nil
		}
		return nil, false, "+" + string(body), nil
	case '-', ':':
		return nil, false, string(line[:len(line)-2]), nil
	case '$':
		n, err := strconv.Atoi(string(body))
		if err != nil {
			return nil, false, "", fmt.Errorf("bad bulk length %q", body)
		}
		if n < 0 {
			return nil, false, "", nil
		}
		if cap(c.val) < n+2 {
			c.val = make([]byte, n+2)
		}
		c.val = c.val[:n+2]
		if _, err := io.ReadFull(c.r, c.val); err != nil {
			return nil, false, "", err
		}
		return c.val[:n], true, "", nil
	}
	return nil, false, "", fmt.Errorf("unexpected reply type %q", line[0])
}

// sweep reads every key of the connection's share once, depth at a
// time, so the server's lazily filled STLT holds each key.
func (c *client) sweep(depth int) error {
	for c.st.fillSweep(depth) {
		if err := c.roundTrip(false); err != nil {
			return err
		}
	}
	return nil
}

// runOps runs mix batches until at least n ops have completed.
func (c *client) runOps(n uint64, depth int) error {
	for start := c.ops; c.ops-start < n; {
		c.st.fill(depth)
		if err := c.roundTrip(false); err != nil {
			return err
		}
	}
	return nil
}

// runWindow runs recorded mix batches from start until stop is set.
func (c *client) runWindow(start time.Time, stop *atomic.Bool, depth int) error {
	c.winStart = start
	for !stop.Load() {
		c.st.fill(depth)
		if err := c.roundTrip(true); err != nil {
			return err
		}
	}
	return nil
}
