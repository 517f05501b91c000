package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Percentiles are given in basis points (parts per 10000) so the
// sample-count rule is exact integer arithmetic.
const (
	p50 = 5000
	p99 = 9900
)

// ladder is the percentiles considered when reporting the highest one
// a sample supports.
var ladder = []int{5000, 9000, 9900, 9990, 9999}

// rank is the 1-based nearest-rank position of percentile bp among n
// sorted samples.
func rank(n, bp int) int {
	r := (n*bp + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// supported reports whether n samples leave at least 10 beyond
// percentile bp, the least that makes the percentile mean something.
func supported(n, bp int) bool { return n > 0 && n-rank(n, bp) >= 10 }

// highestSupported returns the highest ladder percentile n samples
// support, or 0 when even the median is unsupported.
func highestSupported(n int) int {
	best := 0
	for _, bp := range ladder {
		if supported(n, bp) {
			best = bp
		}
	}
	return best
}

// percentile returns the nearest-rank percentile bp of sorted.
func percentile(sorted []int64, bp int) int64 { return sorted[rank(len(sorted), bp)-1] }

func bpName(bp int) string { return fmt.Sprintf("p%g", float64(bp)/100) }

// latSummary is one operation type's latency distribution.
type latSummary struct {
	n          int
	p50, p99   float64 // µs
	top        int     // highest supported percentile (bp)
	topValueUS float64
}

// summarize sorts samples (ns) in place and reports the median, p99 and
// the highest supported percentile in µs. p99 must be supported: a
// metric read from fewer samples is an error, not a number.
func summarize(what string, samples []int64) (latSummary, error) {
	n := len(samples)
	if !supported(n, p99) {
		return latSummary{}, fmt.Errorf("%s: %d samples do not support p99", what, n)
	}
	sortInt64(samples)
	top := highestSupported(n)
	return latSummary{
		n:          n,
		p50:        float64(percentile(samples, p50)) / 1e3,
		p99:        float64(percentile(samples, p99)) / 1e3,
		top:        top,
		topValueUS: float64(percentile(samples, top)) / 1e3,
	}, nil
}

// errorRate is failed replies (error, missing or wrong) over ops
// attempted.
func errorRate(failed, attempted uint64) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// medianF returns the median of xs (which it sorts).
func medianF(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// window is the timed window: throughput and medians per slot, kept
// over the slots the hypervisor disturbed least, and each operation
// type's whole-window distribution for the tail.
type window struct {
	slots, kept      int
	opsPerSec        float64 // median over kept slots
	getP50, setP50   float64 // µs, medians over kept slots of each slot's median
	minGetN, minSetN int     // fewest samples in a kept slot
	get, set         latSummary
}

// slotStats is one slot's throughput and medians.
type slotStats struct {
	rate           float64
	getP50, setP50 float64 // µs
	getN, setN     int
	steal          uint64
	thin           bool // too few samples for a median
}

// summarizeWindow merges the clients' slots and reports medians over
// the half of them in which the hypervisor stole the least CPU time
// (steal, clock ticks per full slot): steal only ever slows the
// benchmark, and on a shared host it comes in bursts that would
// otherwise decide the result. The tail is read from the whole window,
// disturbances included.
func summarizeWindow(perClient [][]slot, steal []uint64) (window, error) {
	n := len(steal)
	w := window{slots: n, kept: (n + 1) / 2}
	if n == 0 {
		return w, errors.New("timed window holds no full slot")
	}
	var allGet, allSet []int64
	stats := make([]slotStats, n)
	for k := range stats {
		var s slot
		for _, cs := range perClient {
			if k < len(cs) {
				s.ops += cs[k].ops
				s.get = append(s.get, cs[k].get...)
				s.set = append(s.set, cs[k].set...)
			}
		}
		sortInt64(s.get)
		sortInt64(s.set)
		st := slotStats{rate: float64(s.ops) / slotDur.Seconds(), getN: len(s.get), setN: len(s.set), steal: steal[k]}
		// A slot too thin for a median (the host froze the run) ranks
		// with the most disturbed.
		st.thin = !supported(st.getN, p50) || !supported(st.setN, p50)
		if !st.thin {
			st.getP50 = float64(percentile(s.get, p50)) / 1e3
			st.setP50 = float64(percentile(s.set, p50)) / 1e3
		}
		stats[k] = st
		allGet, allSet = append(allGet, s.get...), append(allSet, s.set...)
		fmt.Printf("slot %d: steal %d ticks, %.0f ops/s, GET p50 %.2f us, SET p50 %.2f us\n",
			k, st.steal, st.rate, st.getP50, st.setP50)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := stats[order[i]], stats[order[j]]
		if a.thin != b.thin {
			return b.thin
		}
		return a.steal < b.steal
	})
	var rates, gets, sets []float64
	w.minGetN, w.minSetN = math.MaxInt, math.MaxInt
	for _, k := range order[:w.kept] {
		s := stats[k]
		if s.thin {
			return w, fmt.Errorf("fewer than %d of %d slots hold enough samples for a median", w.kept, n)
		}
		rates, gets, sets = append(rates, s.rate), append(gets, s.getP50), append(sets, s.setP50)
		w.minGetN, w.minSetN = min(w.minGetN, s.getN), min(w.minSetN, s.setN)
	}
	w.opsPerSec, w.getP50, w.setP50 = medianF(rates), medianF(gets), medianF(sets)
	var err error
	if w.get, err = summarize("GET latency", allGet); err != nil {
		return w, err
	}
	w.set, err = summarize("SET latency", allSet)
	return w, err
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }
