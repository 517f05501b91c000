package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one spawned kvserve process plus an admin connection for
// INFO and RESETSTATS (kept apart from the load connections so their
// reply streams hold only workload replies).
type server struct {
	cmd   *exec.Cmd
	admin net.Conn
	ar    *bufio.Reader
	log   *os.File
	// exited is closed once the process has been reaped.
	exited chan struct{}
}

// spawnServer starts kvserve for w (pinned to cpus when non-empty) and
// returns once the preloaded server answers PING, with the time that
// took.
func spawnServer(bin, sock, aofDir, logPath string, w workload, cpus []int) (*server, time.Duration, error) {
	args := []string{"-mode", "stlt", "-shards", strconv.Itoa(numShards), "-preload",
		"-keys", strconv.Itoa(numKeys), "-vsize", strconv.Itoa(valueSize), "-sock", sock}
	if w.aof {
		args = append(args, "-aof", "-aof-dir", aofDir, "-aof-fsync", fsyncPolicy)
	}
	name := bin
	if len(cpus) > 0 {
		args = append([]string{"-c", cpuList(cpus), bin}, args...)
		name = "taskset"
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	_ = os.Remove(sock)
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, fmt.Errorf("start kvserve: %w", err)
	}
	s := &server{cmd: cmd, log: lf, exited: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(s.exited) }()
	for {
		c, err := net.Dial("unix", sock)
		if err == nil {
			s.admin, s.ar = c, bufio.NewReader(c)
			if reply, err := s.call("PING"); err != nil || reply != "PONG" {
				s.stop()
				return nil, 0, fmt.Errorf("kvserve PING: %q %v", reply, err)
			}
			return s, time.Since(start), nil
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, 0, fmt.Errorf("kvserve exited during start-up (log %s)", logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, 0, errors.New("kvserve did not answer PING within 60s")
		}
	}
}

// call sends an admin command and returns its simple-string or bulk
// reply.
func (s *server) call(args ...string) (string, error) {
	var b []byte
	b = append(b, '*')
	b = strconv.AppendInt(b, int64(len(args)), 10)
	b = append(b, '\r', '\n')
	for _, a := range args {
		b = appendBulk(b, []byte(a))
	}
	_ = s.admin.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := s.admin.Write(b); err != nil {
		return "", err
	}
	line, err := s.ar.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimSuffix(line, "\r\n")
	switch {
	case strings.HasPrefix(line, "+"):
		return line[1:], nil
	case strings.HasPrefix(line, "$"):
		n, err := strconv.Atoi(line[1:])
		if err != nil || n < 0 {
			return "", fmt.Errorf("bad bulk header %q", line)
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(s.ar, buf); err != nil {
			return "", err
		}
		return string(buf[:n]), nil
	}
	return "", fmt.Errorf("%s: reply %q", args[0], line)
}

// info fetches and parses INFO.
func (s *server) info() (infoMap, error) {
	raw, err := s.call("INFO")
	if err != nil {
		return nil, err
	}
	return parseInfo(raw), nil
}

func (s *server) resetStats() error {
	r, err := s.call("RESETSTATS")
	if err == nil && r != "OK" {
		err = fmt.Errorf("RESETSTATS: %q", r)
	}
	return err
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop shuts kvserve down (SIGTERM, then SIGKILL after 10s) and waits
// for it to exit.
func (s *server) stop() {
	if s.admin != nil {
		s.admin.Close()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

// infoMap is a parsed INFO payload ("key:value" lines).
type infoMap map[string]string

func parseInfo(raw string) infoMap {
	m := infoMap{}
	for _, line := range strings.Split(raw, "\r\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if k, v, ok := strings.Cut(line, ":"); ok {
			m[k] = v
		}
	}
	return m
}

// num returns key's value as a number; a missing or malformed key is
// an error so a renamed INFO field cannot silently read as zero.
func (m infoMap) num(key string) (float64, error) {
	v, ok := m[key]
	if !ok {
		return 0, fmt.Errorf("INFO has no %q", key)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("INFO %s=%q: %w", key, v, err)
	}
	return f, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100
// on every Linux architecture Go supports).
const clockTicks = 100

// procCPU returns a process's user+system CPU time from the text of
// /proc/<pid>/stat.
func procCPU(stat string) (time.Duration, error) {
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis start at field 3 (state).
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("stat: no command name")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("stat: too few fields")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64) // field 14 utime
	st, err2 := strconv.ParseUint(f[12], 10, 64) // field 15 stime
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procStatusKB returns a "Key:   N kB" field of /proc/<pid>/status.
func procStatusKB(status, key string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == key {
			return strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("status: no %s", key)
}

// hostSteal returns the CPU time, in clock ticks, the hypervisor has
// withheld from this machine's CPUs so far, or 0 when it cannot be
// read.
func hostSteal() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	n, _ := stealTicks(string(b))
	return n
}

// stealTicks returns the steal column of the aggregate "cpu" line of
// /proc/stat text.
func stealTicks(stat string) (uint64, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("stat: no aggregate cpu line with a steal column")
	}
	return strconv.ParseUint(f[8], 10, 64)
}

func readProc(pid int, file string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	return string(b), err
}

// parseCPUList parses a kernel CPU list such as "0-3,8,10-11".
func parseCPUList(s string) ([]int, error) {
	var cpus []int
	for _, part := range strings.Split(strings.TrimSpace(s), ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("cpu list %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil || b < a {
				return nil, fmt.Errorf("cpu list %q: bad range %q", s, part)
			}
		}
		for c := a; c <= b; c++ {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

func cpuList(cpus []int) string {
	s := make([]string, len(cpus))
	for i, c := range cpus {
		s[i] = strconv.Itoa(c)
	}
	return strings.Join(s, ",")
}

// pinPlan splits the CPUs this process may use into disjoint client
// and server sets, the server taking the larger half. With fewer than
// two CPUs, or without taskset, nothing is pinned.
func pinPlan() (client, server []int, why string) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil, nil, err.Error()
	}
	var list string
	for _, line := range strings.Split(string(status), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == "Cpus_allowed_list" {
			list = v
		}
	}
	cpus, err := parseCPUList(list)
	if err != nil {
		return nil, nil, err.Error()
	}
	if len(cpus) < 2 {
		return nil, nil, "fewer than 2 CPUs"
	}
	if _, err := exec.LookPath("taskset"); err != nil {
		return nil, nil, "taskset not found"
	}
	n := len(cpus) / 2
	return cpus[:n], cpus[n:], ""
}

// keepers are lowest-priority (SCHED_IDLE) busy loops, one per CPU the
// benchmark uses. They run only when nothing else wants the CPU, so the
// virtual CPU never halts: on a shared hypervisor a halted virtual CPU
// waits to be scheduled again on every wake-up, and that wait — seen as
// steal time — otherwise dominates the socket round trips measured.
type keepers []*exec.Cmd

func startKeepers(cpus []int) (keepers, error) {
	if _, err := exec.LookPath("chrt"); err != nil {
		return nil, err
	}
	var ks keepers
	for _, c := range cpus {
		cmd := exec.Command("taskset", "-c", strconv.Itoa(c), "chrt", "--idle", "0", "sh", "-c", "while :; do :; done")
		if err := cmd.Start(); err != nil {
			ks.stop()
			return nil, fmt.Errorf("start idle keeper: %w", err)
		}
		ks = append(ks, cmd)
	}
	return ks, nil
}

func (ks keepers) stop() {
	for _, cmd := range ks {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
}

// pinSelf moves every thread of this process onto cpus; threads started
// later inherit the mask.
func pinSelf(cpus []int) error {
	out, err := exec.Command("taskset", "-a", "-p", "-c", cpuList(cpus), strconv.Itoa(os.Getpid())).CombinedOutput()
	if err != nil {
		return fmt.Errorf("taskset: %v: %s", err, out)
	}
	return nil
}

// fsType names the filesystem holding dir (the durable workload's
// fsync cost depends on it: tmpfs makes fsync free).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
