package compile

// Cache-blocked and level-parallel execution of compiled programs.
//
// A large circuit's register file outgrows L2 (s38417's Full file is
// ~1.5 MB at 512 lanes; a 100k-gate netlist's is several MB), and the
// linear Exec pass then streams the whole file through the cache once
// per cycle. Block restructures a program into segments whose working
// set fits a configurable budget: each segment's instructions are
// remapped onto a dense scratch register file that stays cache-resident,
// with explicit row copies at the segment boundaries — loads for the
// segment's upward-exposed reads, stores for the defined rows that are
// live after it (a backward liveness pass over the segment sequence; for
// the observation-exact Full program every defined row is live, since
// the session reads all of them). Each remapped instruction computes the
// same per-lane word function on the same values, and the serial
// segment order is the program order, so blocked execution is
// bit-identical to Program.Exec.
//
// Independently, Block can partition a program into per-level waves for
// multi-core execution inside one replication: the compiler emits
// level-contiguous code, instructions of one level are write/read-
// disjoint (operands come from strictly lower levels; the Step
// allocator recycles slots only across level boundaries), so the
// segments of a wave may run on any goroutine in any order. ExecParallel
// assigns segments to workers round-robin and barriers between waves;
// the result is the same memory image regardless of schedule, so
// parallel execution is bit-identical too.
//
// The same wave independence lets every segment's code be sorted by
// opcode within its level runs (see batched.go): blocked execution
// dispatches once per same-opcode run through unrolled row kernels
// instead of once per instruction, which is where most of its speedup
// over the linear pass comes from on machines whose last-level cache
// already holds the register file.

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultBudgetBytes is the default cache budget of a blocked program's
// scratch file: half a typical desktop L2, leaving room for the streamed
// boundary rows and input/output traffic.
const DefaultBudgetBytes = 512 << 10

// parallelGrain is the minimum instructions per parallel segment; levels
// thinner than Workers*parallelGrain get fewer segments so barrier and
// scheduling costs never dominate tiny levels.
const parallelGrain = 32

// BlockOptions configures Block.
type BlockOptions struct {
	// BudgetBytes bounds one segment's scratch working set in bytes at
	// width W. <=0 selects DefaultBudgetBytes.
	BudgetBytes int
	// W is the row width in words the blocked program will execute at
	// (lanes/64, minimum 1); the slot budget is BudgetBytes/(8*W).
	W int
	// Workers > 1 selects level-parallel partitioning (direct segments in
	// per-level waves for ExecParallel) instead of cache blocking. The
	// partition runs at most GOMAXPROCS of them (see Blocked.Workers).
	Workers int
	// MaxSegInsts caps instructions per segment (0 = unlimited). A test
	// hook: budget=1-instruction and budget=∞ segmentation both come from
	// here.
	MaxSegInsts int
	// ObserveAll marks every defined row as live after the program (the
	// Full program: sessions read all node rows for toggle observation
	// and lane extraction). When false only the D rows survive.
	ObserveAll bool
}

// rowCopy is one boundary spill: global file row g <-> scratch row l.
type rowCopy struct {
	g, l int32
}

// segment is a contiguous instruction range. A direct segment addresses
// the global register file as-is; a remapped segment runs its private
// code over the scratch file between its load and store copies.
type segment struct {
	code   []inst
	args   []int32
	loads  []rowCopy
	stores []rowCopy
	nslots int
	direct bool
}

// wave is a group of mutually independent segments: the serial blocked
// form has one segment per wave, the level-parallel form one wave per
// logic level.
type wave struct {
	segs []segment
}

// Blocked is a segmented form of a Program. Exec (serial, cache-blocked)
// and ExecParallel (level waves across goroutines) are bit-identical to
// Program.Exec on the same register file.
type Blocked struct {
	// Workers is the goroutine count ExecParallel runs: 1 for the serial
	// cache-blocked form; for a level partition the requested count
	// capped at GOMAXPROCS and at the widest wave's segment count.
	Workers int
	// ScratchSlots is the scratch register-file height Exec needs
	// (callers allocate ScratchSlots*w words; 0 for direct partitions).
	ScratchSlots int
	waves        []wave
}

// BlockedStats summarizes a blocked program for reports and tests.
type BlockedStats struct {
	Waves        int // wave count (levels, or segments when serial)
	Segments     int // total segments
	DirectSegs   int // segments executing on the global file
	ScratchSlots int // scratch rows the serial blocked form needs
	LoadRows     int // total boundary load copies per Exec
	StoreRows    int // total boundary store copies per Exec
	Workers      int
}

// Stats returns the blocked program's summary.
func (b *Blocked) Stats() BlockedStats {
	st := BlockedStats{Waves: len(b.waves), ScratchSlots: b.ScratchSlots, Workers: b.Workers}
	for i := range b.waves {
		for j := range b.waves[i].segs {
			sg := &b.waves[i].segs[j]
			st.Segments++
			if sg.direct {
				st.DirectSegs++
			}
			st.LoadRows += len(sg.loads)
			st.StoreRows += len(sg.stores)
		}
	}
	return st
}

// Block partitions a compiled program. With Workers > 1 it builds the
// level-parallel form; otherwise the serial cache-blocked form under the
// byte budget. The blocked program shares the original's register-file
// layout (In/Q/D/const rows and InitConsts are unchanged).
func Block(p *Program, opt BlockOptions) *Blocked {
	if opt.Workers > 1 {
		return blockLevels(p, opt.Workers)
	}
	return blockBudget(p, opt)
}

// blockLevels builds one wave per logic level, each split into up to
// workers direct segments of near-equal instruction count. The
// partition's Workers is capped at GOMAXPROCS and at the widest wave's
// segment count: ExecParallel starts Workers goroutines per pass, and
// one with no segment to run would only spin on the barrier. A cap of
// one leaves a serial program of direct segments.
func blockLevels(p *Program, workers int) *Blocked {
	workers = min(workers, runtime.GOMAXPROCS(0))
	b := &Blocked{Workers: 1}
	for lo := 0; lo < len(p.code); {
		hi := lo + 1
		for hi < len(p.code) && p.levels[hi] == p.levels[lo] {
			hi++
		}
		run := hi - lo
		nsegs := workers
		if run < workers*parallelGrain {
			nsegs = run / parallelGrain
			if nsegs < 1 {
				nsegs = 1
			}
		}
		wv := wave{segs: make([]segment, 0, nsegs)}
		base, rem := run/nsegs, run%nsegs
		at := lo
		for i := 0; i < nsegs; i++ {
			sz := base
			if i < rem {
				sz++
			}
			code := make([]inst, sz)
			copy(code, p.code[at:at+sz])
			sortRunsByOpcode(code, p.levels[at:at+sz])
			wv.segs = append(wv.segs, segment{
				code:   code,
				args:   p.Args,
				direct: true,
			})
			at += sz
		}
		b.waves = append(b.waves, wv)
		b.Workers = max(b.Workers, nsegs)
		lo = hi
	}
	return b
}

// refsOf appends the distinct rows instruction in touches (operands and
// destination) to buf.
func refsOf(in *inst, args []int32, buf []int32) []int32 {
	buf = buf[:0]
	add := func(s int32) {
		for _, t := range buf {
			if t == s {
				return
			}
		}
		buf = append(buf, s)
	}
	in.forOperands(args, add)
	add(in.dst)
	return buf
}

// bitset is a fixed-capacity set of register rows.
type bitset []uint64

func newBitset(n int) bitset      { return make(bitset, (n+63)/64) }
func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}

// forEach calls f over the set rows in ascending order.
func (b bitset) forEach(f func(int32)) {
	for wi, w := range b {
		for w != 0 {
			f(int32(wi<<6) | int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// blockBudget builds the serial cache-blocked form: greedy segmentation
// under the distinct-row budget, backward liveness for the boundary
// spills, and a dense scratch remap per segment.
func blockBudget(p *Program, opt BlockOptions) *Blocked {
	w := opt.W
	if w < 1 {
		w = 1
	}
	budgetBytes := opt.BudgetBytes
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	budgetSlots := budgetBytes / (8 * w)
	// The budget must admit any single instruction.
	var refBuf []int32
	maxRefs := 1
	for i := range p.code {
		refBuf = refsOf(&p.code[i], p.Args, refBuf)
		if len(refBuf) > maxRefs {
			maxRefs = len(refBuf)
		}
	}
	if budgetSlots < maxRefs {
		budgetSlots = maxRefs
	}
	maxSeg := opt.MaxSegInsts

	// Greedy partition: extend the segment while its distinct-row count
	// stays within budget (and under the instruction cap).
	stamp := make([]int32, p.Slots)
	for i := range stamp {
		stamp[i] = -1
	}
	segID := int32(0)
	distinct := 0
	type irange struct{ lo, hi int }
	var cutList []irange
	start := 0
	for i := range p.code {
		refBuf = refsOf(&p.code[i], p.Args, refBuf)
		fresh := 0
		for _, s := range refBuf {
			if stamp[s] != segID {
				fresh++
			}
		}
		if i > start && (distinct+fresh > budgetSlots || (maxSeg > 0 && i-start >= maxSeg)) {
			cutList = append(cutList, irange{start, i})
			start = i
			segID++
			distinct = 0
			fresh = len(refBuf)
		}
		for _, s := range refBuf {
			if stamp[s] != segID {
				stamp[s] = segID
				distinct++
			}
		}
	}
	if start < len(p.code) {
		cutList = append(cutList, irange{start, len(p.code)})
	}

	b := &Blocked{Workers: 1}
	if len(cutList) == 0 {
		return b
	}
	if len(cutList) == 1 {
		// Whole program in one segment: run it directly, no spills. The
		// private wave-sorted copy still pays — the batched dispatch is
		// why small-file circuits keep a blocked form at all.
		code := make([]inst, len(p.code))
		copy(code, p.code)
		sortRunsByOpcode(code, p.levels)
		b.waves = []wave{{segs: []segment{{code: code, args: p.Args, direct: true}}}}
		return b
	}

	// Backward liveness over the segment sequence. live holds the rows
	// read by later segments (or by the session after Exec) before any
	// redefinition; a segment stores exactly its defined rows that are
	// live at its boundary.
	// After the last segment the session reads the D rows (and, for the
	// Full program, every defined row — handled by the ObserveAll store
	// rule below, so seeding with D suffices either way).
	live := newBitset(p.Slots)
	for _, d := range p.D {
		live.set(d)
	}
	defs := newBitset(p.Slots)
	upUses := newBitset(p.Slots)
	storeSets := make([]bitset, len(cutList))
	loadSets := make([]bitset, len(cutList))
	for k := len(cutList) - 1; k >= 0; k-- {
		defs.clear()
		upUses.clear()
		for i := cutList[k].lo; i < cutList[k].hi; i++ {
			in := &p.code[i]
			in.forOperands(p.Args, func(s int32) {
				if !defs.has(s) {
					upUses.set(s)
				}
			})
			defs.set(in.dst)
		}
		stores := newBitset(p.Slots)
		for wi := range stores {
			if opt.ObserveAll {
				stores[wi] = defs[wi]
			} else {
				stores[wi] = defs[wi] & live[wi]
			}
		}
		storeSets[k] = stores
		loads := newBitset(p.Slots)
		copy(loads, upUses)
		loadSets[k] = loads
		for wi := range live {
			live[wi] = (live[wi] &^ defs[wi]) | upUses[wi]
		}
	}

	// Remap each segment onto a dense scratch file: rows get local
	// indices in first-touch order; loads fill the upward-exposed reads,
	// stores write back the live defs.
	lmap := make([]int32, p.Slots)
	for i := range lmap {
		lmap[i] = -1
	}
	var touched []int32
	maxSlots := 0
	for k, cr := range cutList {
		next := int32(0)
		touched = touched[:0]
		assign := func(s int32) int32 {
			if lmap[s] < 0 {
				lmap[s] = next
				next++
				touched = append(touched, s)
			}
			return lmap[s]
		}
		sg := segment{code: make([]inst, 0, cr.hi-cr.lo)}
		for i := cr.lo; i < cr.hi; i++ {
			in := p.code[i] // copy
			if in.n > 0 {
				off := int32(len(sg.args))
				for _, s := range p.Args[in.off : in.off+in.n] {
					sg.args = append(sg.args, assign(s))
				}
				in.off = off
			} else {
				switch in.op {
				case opCopy, opNot:
					in.a = assign(in.a)
				default:
					in.a = assign(in.a)
					in.b = assign(in.b)
				}
			}
			in.dst = assign(in.dst)
			sg.code = append(sg.code, in)
		}
		sortRunsByOpcode(sg.code, p.levels[cr.lo:cr.hi])
		loadSets[k].forEach(func(g int32) {
			sg.loads = append(sg.loads, rowCopy{g: g, l: lmap[g]})
		})
		storeSets[k].forEach(func(g int32) {
			sg.stores = append(sg.stores, rowCopy{g: g, l: lmap[g]})
		})
		sg.nslots = int(next)
		if sg.nslots > maxSlots {
			maxSlots = sg.nslots
		}
		for _, s := range touched {
			lmap[s] = -1
		}
		b.waves = append(b.waves, wave{segs: []segment{sg}})
	}
	b.ScratchSlots = maxSlots
	return b
}

// execSeg runs segment code at width w; at full width (w=8) the
// opcode-sorted code goes through the batched run dispatcher.
func execSeg(code []inst, args []int32, vals []uint64, w int) {
	if w == 8 {
		execRuns8(code, args, vals)
		return
	}
	execCode(code, args, vals, w)
}

// exec runs one segment. scratch is the dense scratch file of a
// remapped segment (ignored by direct segments).
func (sg *segment) exec(vals, scratch []uint64, w int) {
	if sg.direct {
		execSeg(sg.code, sg.args, vals, w)
		return
	}
	for _, m := range sg.loads {
		copy(scratch[int(m.l)*w:(int(m.l)+1)*w], vals[int(m.g)*w:(int(m.g)+1)*w])
	}
	execSeg(sg.code, sg.args, scratch, w)
	for _, m := range sg.stores {
		copy(vals[int(m.g)*w:(int(m.g)+1)*w], scratch[int(m.l)*w:(int(m.l)+1)*w])
	}
}

// Exec runs the blocked program serially over a register file of w-word
// rows. scratch must hold ScratchSlots*w words (nil is fine when
// ScratchSlots is 0). Bit-identical to the source Program.Exec.
func (b *Blocked) Exec(vals, scratch []uint64, w int) {
	for i := range b.waves {
		segs := b.waves[i].segs
		for j := range segs {
			segs[j].exec(vals, scratch, w)
		}
	}
}

// barrier is a reusable sense-reversing spin barrier. Waiters yield the
// processor while spinning, so the executor stays live (if slow) even
// with fewer cores than workers.
type barrier struct {
	n     int32
	count atomic.Int32
	sense atomic.Uint32
}

func (b *barrier) await(local *uint32) {
	*local ^= 1
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.sense.Store(*local)
		return
	}
	for b.sense.Load() != *local {
		runtime.Gosched()
	}
}

// ExecParallel runs a level-partitioned blocked program across
// b.Workers goroutines: wave w's segments are assigned round-robin
// (segment i to worker i mod Workers — deterministic), with a barrier
// between waves. Segments of one wave write disjoint rows and read only
// rows settled in earlier waves, so the resulting register file is
// identical to serial execution regardless of scheduling.
func (b *Blocked) ExecParallel(vals []uint64, w int) {
	n := b.Workers
	if n <= 1 || len(b.waves) == 0 {
		b.Exec(vals, nil, w)
		return
	}
	bar := &barrier{n: int32(n)}
	var wg sync.WaitGroup
	for p := 1; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			b.runWorker(vals, w, p, bar)
		}(p)
	}
	b.runWorker(vals, w, 0, bar)
	wg.Wait()
}

func (b *Blocked) runWorker(vals []uint64, w, p int, bar *barrier) {
	sense := uint32(0)
	for i := range b.waves {
		segs := b.waves[i].segs
		for j := p; j < len(segs); j += b.Workers {
			segs[j].exec(vals, nil, w)
		}
		bar.await(&sense)
	}
}
