// Package core implements the paper's primary contribution: the system
// translation lookaside table (STLT) and its two instructions, loadVA
// and insertSTLT, executed by the system translation unit (STU), plus
// the OS support (system calls, lazy page-table coherence via the IPB,
// context switching) and the runtime performance monitor.
//
// The STLT is a set-associative table in simulated *kernel* memory,
// physically contiguous, whose base physical address and size live in
// the CR_S register of the STU. Each 16-byte row is
//
//	| counter (4 bits) | sub-integer (12 bits) | VA (48 bits) | PTE (64 bits) |
//
// exactly as in Figure 5 of the paper.
package core

import (
	"fmt"
	"math/bits"

	"addrkv/internal/arch"
	"addrkv/internal/cpu"
	"addrkv/internal/trace"
	"addrkv/internal/vm"
)

// RowSize is the size of one STLT row in bytes.
const RowSize = 16

// SubIntegerBits is the width of the partial tag stored per row.
const SubIntegerBits = 12

// subIntMask extracts the sub-integer from a hash integer.
const subIntMask = (1 << SubIntegerBits) - 1

// CounterBits is the width of the per-row frequency counter.
const CounterBits = 4

const counterMax = (1 << CounterBits) - 1

// Row is a decoded STLT row.
type Row struct {
	Counter uint8
	SubInt  uint16
	VA      arch.Addr
	PTE     vm.PTE
}

// Valid reports whether the row holds a translation (VA != 0 means
// valid; a zero VA is the null pointer the paper uses to signal an
// empty row).
func (r Row) Valid() bool { return r.VA != 0 }

// CRS is the STU's control register pair: the physical base address of
// the (page-aligned, physically contiguous) STLT and its size.
type CRS struct {
	BasePA arch.Addr
	Rows   int
}

// Stats counts STLT fast-path events.
type Stats struct {
	Lookups     uint64 // loadVA executions
	Hits        uint64 // loadVA returned a non-zero VA
	IPBRejects  uint64 // potential hits suppressed by the IPB
	MultiMatch  uint64 // sets where >1 row matched the sub-integer
	Inserts     uint64 // insertSTLT executions that wrote a row
	InsertDrops uint64 // insertSTLT dropped by the SPTW (page fault)
	Replaced    uint64 // inserts that evicted a valid row
	Scrubs      uint64 // full-table scrubs (IPB overflow)
	FalseHits   uint64 // hits whose VA the software validation rejected
	Invalidates uint64 // rows cleared by the delete-side Invalidate hook
}

// STLT is the system translation lookaside table plus the STU state
// needed to execute loadVA and insertSTLT against a simulated machine.
type STLT struct {
	m  *cpu.Machine
	os *OS

	crs     CRS
	baseVA  arch.Addr // kernel virtual base (for OS-side scrubbing)
	ways    int
	sets    int
	setBits int

	// Enabled gates the fast path; the runtime monitor (monitor.go)
	// flips it. When disabled, LoadVA reports a miss without
	// touching the table and InsertSTLT is a no-op.
	Enabled bool

	// Variant selects the ablation configuration of Figure 19:
	// the full design, the VA-only hardware design (no PTE caching,
	// no STB fill), or the software-only table (conventional loads
	// and stores, no new instructions).
	Variant Variant

	rng uint64 // xorshift state for the probabilistic counter

	// walkBuf is the SPTW's reused step buffer: like the hardware
	// walker, a refill allocates nothing.
	walkBuf []vm.WalkStep

	Stats Stats
}

// Ways returns the set associativity.
func (t *STLT) Ways() int { return t.ways }

// Sets returns the number of sets.
func (t *STLT) Sets() int { return t.sets }

// Rows returns the total row count.
func (t *STLT) Rows() int { return t.sets * t.ways }

// SizeBytes returns the table's memory footprint.
func (t *STLT) SizeBytes() int { return t.Rows() * RowSize }

// rowPA returns the physical address of row w of set s.
func (t *STLT) rowPA(s, w int) arch.Addr {
	return t.crs.BasePA + arch.Addr((s*t.ways+w)*RowSize)
}

// setIndex extracts the set number from a hash integer. The
// sub-integer occupies the low SubIntegerBits bits and the set index
// the bits directly above it (Figure 6), so the two never overlap and
// resizing only widens/narrows the index field.
func (t *STLT) setIndex(integer uint64) int {
	return int((integer >> SubIntegerBits) & uint64(t.sets-1))
}

// subInt extracts the partial tag from a hash integer.
func subInt(integer uint64) uint16 { return uint16(integer & subIntMask) }

// readRow fetches a row functionally from simulated physical memory.
func (t *STLT) readRow(s, w int) Row {
	pa := t.rowPA(s, w)
	pm := t.m.AS.Phys
	meta := uint16(pm.ReadU64(pa) & 0xffff)
	var vab [8]byte
	pm.ReadAt(pa+2, vab[:6])
	va := arch.Addr(uint64(vab[0]) | uint64(vab[1])<<8 | uint64(vab[2])<<16 |
		uint64(vab[3])<<24 | uint64(vab[4])<<32 | uint64(vab[5])<<40)
	pte := vm.PTE(pm.ReadU64(pa + 8))
	return Row{
		Counter: uint8(meta >> SubIntegerBits),
		SubInt:  meta & subIntMask,
		VA:      va,
		PTE:     pte,
	}
}

// writeRow stores a row functionally into simulated physical memory.
func (t *STLT) writeRow(s, w int, r Row) {
	pa := t.rowPA(s, w)
	pm := t.m.AS.Phys
	meta := uint16(r.Counter)<<SubIntegerBits | r.SubInt&subIntMask
	var b [8]byte
	b[0], b[1] = byte(meta), byte(meta>>8)
	v := uint64(r.VA)
	b[2], b[3], b[4] = byte(v), byte(v>>8), byte(v>>16)
	b[5], b[6], b[7] = byte(v>>24), byte(v>>32), byte(v>>40)
	pm.WriteAt(pa, b[:])
	pm.WriteU64(pa+8, uint64(r.PTE))
}

// chargeSetScan charges the cache traffic and scan logic of reading a
// whole set. Sets of <=4 ways fit one cache line; wider sets span
// multiple lines and cost proportionally more (Section III-E).
func (t *STLT) chargeSetScan(s int, cat arch.CostCategory) {
	c := t.m.Caches.AccessRange(t.rowPA(s, 0), t.ways*RowSize, false, arch.KindSTLT)
	// Comparator scan: ~1 extra cycle per 4 ways (one line's worth of
	// rows compares in parallel; wider sets serialize).
	c += arch.Cycles(t.ways / 4)
	t.chargeCycles(c, cat)
}

func (t *STLT) chargeCycles(c arch.Cycles, cat arch.CostCategory) {
	// The machine exposes Compute for pure cycles; memory cycles from
	// Caches.AccessRange above are charged here so they land in the
	// STLT category rather than the caller's.
	t.m.Compute(c, cat)
}

// nextRand is a xorshift64 PRNG standing in for the STU's hardware
// random source ("the hardware generates the random number ahead of
// time; thus it is almost free").
func (t *STLT) nextRand() uint64 {
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	return x
}

// bumpCounter applies the probabilistic increment of Section III-E: a
// counter at value x increments with probability 2^-x, so a 4-bit
// counter saturates after ~2^17 updates on average.
func (t *STLT) bumpCounter(r *Row) bool {
	if r.Counter >= counterMax {
		return false
	}
	if t.nextRand()&((1<<r.Counter)-1) != 0 {
		return false
	}
	r.Counter++
	return true
}

// LoadVA executes the loadVA instruction (Figure 8a): index the set,
// scan for a sub-integer match, filter through the IPB, bump the hit
// counter, push the VA->PTE pair into the STB, and return the record
// VA (0 on miss). The caller (the key-value store's fast path) must
// validate that the record at the returned VA actually holds the key.
func (t *STLT) LoadVA(integer uint64) arch.Addr {
	if !t.Enabled {
		return 0
	}
	t.Stats.Lookups++
	if t.m.Fast {
		return t.loadVAFunctional(integer)
	}
	s := t.setIndex(integer)
	if t.m.Trace != nil {
		t.m.Trace.Event(trace.EvLoadVA, uint64(t.m.Cycles()), int64(s), int64(t.ways), 0)
	}
	if t.Variant == VariantSoftware {
		// Software table: branchy scan over the set through the
		// ordinary virtual load path (pays its own translations).
		t.m.Compute(swScanCost(t.ways), arch.CatSTLT)
		t.m.Touch(t.setVA(s), t.ways*RowSize, false, arch.KindSTLT, arch.CatSTLT)
	} else {
		t.m.Compute(t.m.Params.LoadVALatency, arch.CatSTLT)
		t.chargeSetScan(s, arch.CatSTLT)
	}

	sub := subInt(integer)
	match := -1
	for w := 0; w < t.ways; w++ {
		r := t.readRow(s, w)
		if r.Valid() && r.SubInt == sub {
			if match >= 0 {
				t.Stats.MultiMatch++
				// "one matching row is randomly selected"
				if t.nextRand()&1 == 0 {
					match = w
				}
			} else {
				match = w
			}
		}
	}
	if t.m.Trace != nil {
		t.m.Trace.Event(trace.EvSTLTProbe, uint64(t.m.Cycles()), int64(s), int64(match), int64(sub))
	}
	if match < 0 {
		return 0
	}
	r := t.readRow(s, match)

	// IPB filter: recently invalidated pages must miss. The software
	// variant has no IPB; it relies on software validation alone.
	if t.Variant != VariantSoftware {
		ipbIdx := t.m.IPB.ContainsIdx(r.VA.Page())
		if t.m.Trace != nil {
			rejected := int64(0)
			if ipbIdx >= 0 {
				rejected = 1
			}
			t.m.Trace.Event(trace.EvIPBCheck, uint64(t.m.Cycles()), rejected, int64(ipbIdx), 0)
		}
		if ipbIdx >= 0 {
			t.Stats.IPBRejects++
			return 0
		}
	}

	// Counter update: a 4-bit store back into the row's line (already
	// in L1 after the scan — charge the write hit).
	if t.bumpCounter(&r) {
		t.writeRow(s, match, r)
	}
	c := t.m.Caches.Access(t.rowPA(s, match), true, arch.KindSTLT)
	t.chargeCycles(c, arch.CatSTLT)

	// Forward the row to the MMU: the VA->PTE pair enters the STB so
	// the dependent record access skips the page walk. Only the full
	// design caches the PTE (Figure 19's STLT vs STLT-VA gap).
	if t.Variant == VariantFull {
		t.m.STB.Insert(r.VA.Page(), r.PTE)
	}

	t.Stats.Hits++
	return r.VA
}

// setVA returns the kernel virtual address of set s (software-variant
// accesses).
func (t *STLT) setVA(s int) arch.Addr {
	return t.baseVA + arch.Addr(s*t.ways*RowSize)
}

// loadVAFunctional is the Fast-mode variant: same table state changes,
// no timing.
func (t *STLT) loadVAFunctional(integer uint64) arch.Addr {
	s := t.setIndex(integer)
	sub := subInt(integer)
	for w := 0; w < t.ways; w++ {
		r := t.readRow(s, w)
		if r.Valid() && r.SubInt == sub {
			if t.bumpCounter(&r) {
				t.writeRow(s, w, r)
			}
			t.Stats.Hits++
			return r.VA
		}
	}
	return 0
}

// ReportFalseHit records that software validation rejected the VA a
// LoadVA hit returned (partial-tag alias or stale record). The paper's
// footnote 2: "Software further validates if the returned VA is the
// correct one."
func (t *STLT) ReportFalseHit() { t.Stats.FalseHits++ }

// Invalidate clears every row of integer's set whose sub-integer
// matches — the delete-side coherence hook (Section III-F: the
// deallocation path updates the STLT so freed records cannot be
// returned). Validation alone cannot be trusted here: the allocator
// reuses the freed record's first word for a tagged free-list link,
// whose low byte can alias a legal key length, so a stale row may
// validate against its own freed record. Clearing a colliding
// neighbor's row is harmless — the next access re-inserts it.
func (t *STLT) Invalidate(integer uint64) {
	if !t.Enabled {
		return
	}
	s := t.setIndex(integer)
	sub := subInt(integer)
	if !t.m.Fast {
		if t.Variant == VariantSoftware {
			t.m.Compute(swScanCost(t.ways), arch.CatSTLT)
			t.m.Touch(t.setVA(s), t.ways*RowSize, false, arch.KindSTLT, arch.CatSTLT)
		} else {
			t.chargeSetScan(s, arch.CatSTLT)
		}
	}
	for w := 0; w < t.ways; w++ {
		r := t.readRow(s, w)
		if r.Valid() && r.SubInt == sub {
			t.writeRow(s, w, Row{})
			t.Stats.Invalidates++
		}
	}
}

// InsertSTLT executes the insertSTLT instruction (Figure 9): the SPTW
// resolves the PTE for va (dropping the insert on a page fault), then
// the insertion buffer writes a 16-byte row, replacing the
// least-frequently-used row of the set.
func (t *STLT) InsertSTLT(integer uint64, va arch.Addr) {
	if !t.Enabled {
		return
	}
	if t.m.Fast {
		t.insertFunctional(integer, va)
		return
	}

	var pte vm.PTE
	switch t.Variant {
	case VariantFull:
		t.m.Compute(t.m.Params.InsertSTLTLatency, arch.CatSTLT)
		// SPTW: reuse the page table walker, but a fault returns
		// PTE=0 instead of raising an exception.
		pte = t.sptw(va)
		if !pte.Present() {
			t.Stats.InsertDrops++
			return
		}
	case VariantVAOnly:
		// VA-only rows skip the SPTW; record the PTE functionally so
		// scrubbing stays coherent, without charging a walk.
		t.m.Compute(t.m.Params.InsertSTLTLatency, arch.CatSTLT)
		pte, _ = t.m.AS.PT.Lookup(va)
		if !pte.Present() {
			t.Stats.InsertDrops++
			return
		}
	case VariantSoftware:
		t.m.Compute(swScanCost(t.ways), arch.CatSTLT)
		pte, _ = t.m.AS.PT.Lookup(va)
		if !pte.Present() {
			t.Stats.InsertDrops++
			return
		}
	}

	s := t.setIndex(integer)
	if t.Variant == VariantSoftware {
		t.m.Touch(t.setVA(s), t.ways*RowSize, false, arch.KindSTLT, arch.CatSTLT)
	} else {
		t.chargeSetScan(s, arch.CatSTLT)
	}
	w := t.victimWay(s, subInt(integer))
	if t.readRow(s, w).Valid() {
		t.Stats.Replaced++
	}
	t.writeRow(s, w, Row{Counter: 0, SubInt: subInt(integer), VA: va, PTE: pte})
	if t.Variant == VariantSoftware {
		t.m.Touch(t.setVA(s)+arch.Addr(w*RowSize), RowSize, true, arch.KindSTLT, arch.CatSTLT)
	} else {
		c := t.m.Caches.Access(t.rowPA(s, w), true, arch.KindSTLT)
		t.chargeCycles(c, arch.CatSTLT)
	}
	if t.m.Trace != nil {
		t.m.Trace.Event(trace.EvSTLTInsert, uint64(t.m.Cycles()), int64(s), int64(w), 0)
	}
	t.Stats.Inserts++
}

func (t *STLT) insertFunctional(integer uint64, va arch.Addr) {
	pte, ok := t.m.AS.PT.Lookup(va)
	if !ok {
		t.Stats.InsertDrops++
		return
	}
	s := t.setIndex(integer)
	w := t.victimWay(s, subInt(integer))
	if t.readRow(s, w).Valid() {
		t.Stats.Replaced++
	}
	t.writeRow(s, w, Row{Counter: 0, SubInt: subInt(integer), VA: va, PTE: pte})
	t.Stats.Inserts++
}

// sptw is the simplified page table walker: the normal walker with
// exceptions disabled. PTE reads go through the data caches.
func (t *STLT) sptw(va arch.Addr) vm.PTE {
	var pte vm.PTE
	pte, t.walkBuf = t.m.AS.PT.Walk(va, t.walkBuf[:0])
	var c arch.Cycles
	for _, st := range t.walkBuf {
		c += t.m.Caches.Access(st.PTEAddr, false, arch.KindPageTable)
	}
	t.chargeCycles(c, arch.CatSTLT)
	return pte
}

// victimWay picks the row insertSTLT writes: a sub-integer match is
// updated in place; otherwise the first invalid row; otherwise the
// least-frequently-accessed row by counter (Section III-E).
func (t *STLT) victimWay(s int, sub uint16) int {
	firstInvalid := -1
	victim := 0
	victimCounter := uint8(counterMax + 1)
	for w := 0; w < t.ways; w++ {
		r := t.readRow(s, w)
		if !r.Valid() {
			if firstInvalid < 0 {
				firstInvalid = w
			}
			continue
		}
		if r.SubInt == sub {
			return w
		}
		if r.Counter < victimCounter {
			victim, victimCounter = w, r.Counter
		}
	}
	if firstInvalid >= 0 {
		return firstInvalid
	}
	return victim
}

// scrub walks the whole table and clears rows whose page translation
// is gone or changed — the expensive slow path taken when the IPB
// overflows ("If IPB is full, the kernel function clears it ... and
// updates STLT via searching the page table for invalidated PTEs").
func (t *STLT) scrub() {
	t.Stats.Scrubs++
	if t.m.Trace != nil {
		t.m.Trace.Event(trace.EvSTLTScrub, uint64(t.m.Cycles()), int64(t.sets), int64(t.ways), 0)
	}
	for s := 0; s < t.sets; s++ {
		for w := 0; w < t.ways; w++ {
			r := t.readRow(s, w)
			if !r.Valid() {
				continue
			}
			pte, ok := t.m.AS.PT.Lookup(r.VA)
			if !ok || pte != r.PTE {
				t.writeRow(s, w, Row{})
			}
		}
	}
	// Kernel-side cost model: one cache line visit per set; this is
	// rare, so a coarse charge is fine.
	if !t.m.Fast {
		t.m.Compute(arch.Cycles(t.sets), arch.CatOther)
	}
}

// Clear zeroes every row (used by STLTresize: "STLTresize ... clears
// the content of STLT as the hash function the application uses is
// unknown to OS").
func (t *STLT) Clear() {
	for s := 0; s < t.sets; s++ {
		for w := 0; w < t.ways; w++ {
			t.writeRow(s, w, Row{})
		}
	}
}

// Occupancy returns the fraction of valid rows (diagnostics, Figure 6
// discussion of the balls-and-bins utilization problem).
func (t *STLT) Occupancy() float64 {
	valid := 0
	for s := 0; s < t.sets; s++ {
		for w := 0; w < t.ways; w++ {
			if t.readRow(s, w).Valid() {
				valid++
			}
		}
	}
	return float64(valid) / float64(t.Rows())
}

// MissRate returns misses/lookups over the Stats window.
func (s Stats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return 1 - float64(s.Hits-s.FalseHits)/float64(s.Lookups)
}

// validateGeometry checks an STLT shape request.
func validateGeometry(rows, ways int) error {
	if ways <= 0 || rows <= 0 {
		return fmt.Errorf("core: STLT rows (%d) and ways (%d) must be positive", rows, ways)
	}
	if rows%ways != 0 {
		return fmt.Errorf("core: STLT rows (%d) not divisible by ways (%d)", rows, ways)
	}
	sets := rows / ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("core: STLT set count %d is not a power of two", sets)
	}
	return nil
}

func log2(n int) int { return bits.Len(uint(n)) - 1 }
