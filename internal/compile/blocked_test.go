package compile

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench89"
	"repro/internal/netlist"
)

// randomFile builds a Slots*w register file with random source rows and
// the constant rows initialized, as a session would before Exec.
func randomFile(p *Program, w int, rng *rand.Rand) []uint64 {
	vals := make([]uint64, p.Slots*w)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	p.InitConsts(vals, w)
	return vals
}

// liveRows returns the rows whose post-Exec values the blocked forms
// guarantee: every row for the observation-exact Full program, only the
// D rows for Step (dead temporaries may stay in scratch).
func liveRows(p *Program, observeAll bool) []int32 {
	if observeAll {
		rows := make([]int32, p.Slots)
		for i := range rows {
			rows[i] = int32(i)
		}
		return rows
	}
	return p.D
}

// checkBlockedExact asserts that a blocked partition reproduces
// Program.Exec bit-for-bit on the guaranteed-live rows, starting from
// identical random register files.
func checkBlockedExact(t *testing.T, p *Program, b *Blocked, w int, observeAll bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 4; trial++ {
		ref := randomFile(p, w, rng)
		got := make([]uint64, len(ref))
		copy(got, ref)
		p.Exec(ref, w)
		scratch := make([]uint64, b.ScratchSlots*w)
		if b.Workers > 1 {
			b.ExecParallel(got, w)
		} else {
			b.Exec(got, scratch, w)
		}
		for _, row := range liveRows(p, observeAll) {
			for k := 0; k < w; k++ {
				if got[int(row)*w+k] != ref[int(row)*w+k] {
					t.Fatalf("trial %d: row %d word %d: blocked %#x, reference %#x",
						trial, row, k, got[int(row)*w+k], ref[int(row)*w+k])
				}
			}
		}
	}
}

// TestBlockedExecExact sweeps budgets from pathological (one slot's
// worth of bytes) through tiny, moderate and effectively unbounded, at
// 1- and 8-word widths, over both programs of several circuits. Every
// partition must reproduce the linear pass exactly.
func TestBlockedExecExact(t *testing.T) {
	budgets := []int{8, 512, 4 << 10, 64 << 10, 1 << 30}
	for _, name := range []string{"s298", "s1423", "s5378"} {
		u := Compile(bench89.MustGet(name))
		for _, w := range []int{1, 8} {
			for _, budget := range budgets {
				for _, pc := range []struct {
					tag        string
					p          *Program
					observeAll bool
				}{{"full", u.Full, true}, {"step", u.Step, false}} {
					b := Block(pc.p, BlockOptions{BudgetBytes: budget, W: w, ObserveAll: pc.observeAll})
					t.Run(fmt.Sprintf("%s/%s/w%d/budget%d", name, pc.tag, w, budget), func(t *testing.T) {
						checkBlockedExact(t, pc.p, b, w, pc.observeAll, int64(budget)+int64(w))
					})
				}
			}
		}
	}
}

// TestBlockedSegInstsCap forces one instruction per segment — the
// maximum possible spill traffic — and checks both the exactness and
// that the cap is honored.
func TestBlockedSegInstsCap(t *testing.T) {
	u := Compile(bench89.MustGet("s1423"))
	for _, pc := range []struct {
		tag        string
		p          *Program
		observeAll bool
	}{{"full", u.Full, true}, {"step", u.Step, false}} {
		b := Block(pc.p, BlockOptions{BudgetBytes: 4 << 10, W: 1, MaxSegInsts: 1, ObserveAll: pc.observeAll})
		st := b.Stats()
		if st.Segments != pc.p.NumInsts() {
			t.Fatalf("%s: %d segments for %d instructions with MaxSegInsts=1", pc.tag, st.Segments, pc.p.NumInsts())
		}
		checkBlockedExact(t, pc.p, b, 1, pc.observeAll, 77)
	}
}

// TestBlockedHugeBudgetIsDirect checks the degenerate upper end: a
// budget larger than the whole register file must collapse to a single
// direct segment with no scratch file and no boundary copies.
func TestBlockedHugeBudgetIsDirect(t *testing.T) {
	u := Compile(bench89.MustGet("s298"))
	b := Block(u.Full, BlockOptions{BudgetBytes: 1 << 30, W: 1, ObserveAll: true})
	st := b.Stats()
	if st.Segments != 1 || st.DirectSegs != 1 {
		t.Fatalf("got %d segments (%d direct), want one direct segment", st.Segments, st.DirectSegs)
	}
	if st.ScratchSlots != 0 || st.LoadRows != 0 || st.StoreRows != 0 {
		t.Fatalf("direct partition still spills: scratch %d, loads %d, stores %d",
			st.ScratchSlots, st.LoadRows, st.StoreRows)
	}
}

// TestBlockedParallelExact runs the level-parallel partition at several
// worker counts against the linear pass. GOMAXPROCS is raised to the
// largest count so the partitions keep every worker their widest wave
// can use, whatever the host's core count.
func TestBlockedParallelExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, name := range []string{"s298", "s1423", "s5378"} {
		u := Compile(bench89.MustGet(name))
		for _, workers := range []int{2, 3, 8} {
			for _, pc := range []struct {
				tag        string
				p          *Program
				observeAll bool
			}{{"full", u.Full, true}, {"step", u.Step, false}} {
				b := Block(pc.p, BlockOptions{Workers: workers})
				if want := min(workers, maxWaveSegs(b)); b.Workers != want {
					t.Fatalf("partition kept %d workers, want %d", b.Workers, want)
				}
				t.Run(fmt.Sprintf("%s/%s/workers%d", name, pc.tag, workers), func(t *testing.T) {
					checkBlockedExact(t, pc.p, b, 1, pc.observeAll, int64(workers))
				})
			}
		}
	}
}

// maxWaveSegs is the widest wave's segment count of a partition.
func maxWaveSegs(b *Blocked) int {
	n := 1
	for _, wv := range b.waves {
		n = max(n, len(wv.segs))
	}
	return n
}

// TestBlockedWorkersCapped pins the worker cap: a level partition never
// runs more goroutines than GOMAXPROCS or its widest wave has segments,
// so a huge request on a tiny circuit cannot start idle barrier
// spinners on every pass.
func TestBlockedWorkersCapped(t *testing.T) {
	u := Compile(bench89.S27())
	for _, p := range []*Program{u.Full, u.Step} {
		b := Block(p, BlockOptions{Workers: 100000})
		if b.Workers > runtime.GOMAXPROCS(0) || b.Workers != maxWaveSegs(b) {
			t.Fatalf("s27 partition runs %d workers (GOMAXPROCS %d, widest wave %d segments)",
				b.Workers, runtime.GOMAXPROCS(0), maxWaveSegs(b))
		}
		checkBlockedExact(t, p, b, 1, p == u.Full, 3)
	}
}

// TestBlockedParallelRandomCircuits extends the parallel exactness
// check to generated netlists, whose level structure is much more
// irregular than the ISCAS'89 set.
func TestBlockedParallelRandomCircuits(t *testing.T) {
	for seed := uint32(0); seed < 6; seed++ {
		c, err := bench89.Generate(bench89.RandomSignature(seed))
		if err != nil {
			t.Fatal(err)
		}
		u := Compile(c)
		b := Block(u.Full, BlockOptions{Workers: 4})
		checkBlockedExact(t, u.Full, b, 2, true, int64(seed))
		bs := Block(u.Step, BlockOptions{Workers: 4})
		checkBlockedExact(t, u.Step, bs, 2, false, int64(seed)+100)
	}
}

// TestLevelsNondecreasing pins the compiler's level-contiguous emission
// contract that both blocked forms build on: the per-instruction level
// sequence never decreases, and every instruction has a level entry.
func TestLevelsNondecreasing(t *testing.T) {
	check := func(name string, p *Program) {
		if len(p.levels) != p.NumInsts() {
			t.Fatalf("%s: %d level entries for %d instructions", name, len(p.levels), p.NumInsts())
		}
		for i := 1; i < len(p.levels); i++ {
			if p.levels[i] < p.levels[i-1] {
				t.Fatalf("%s: level drops %d -> %d at instruction %d", name, p.levels[i-1], p.levels[i], i)
			}
		}
	}
	for _, name := range bench89.Names() {
		u := Compile(bench89.MustGet(name))
		check(name+"/full", u.Full)
		check(name+"/step", u.Step)
	}
}

// TestLevelsOperandsStrictlyLower pins the independence property that
// makes same-level segments safe to run concurrently: within one level
// no instruction reads a row that another instruction of that level
// writes.
func TestLevelsOperandsStrictlyLower(t *testing.T) {
	check := func(name string, p *Program) {
		writer := make(map[int32]int32) // row -> level that wrote it
		for i := range p.code {
			in := &p.code[i]
			lvl := p.levels[i]
			in.forOperands(p.Args, func(s int32) {
				if wl, ok := writer[s]; ok && wl == lvl {
					t.Fatalf("%s: instruction %d (level %d) reads row %d written in the same level", name, i, lvl, s)
				}
			})
			writer[in.dst] = lvl
		}
	}
	for _, name := range []string{"s298", "s1423", "s5378", "s9234"} {
		u := Compile(bench89.MustGet(name))
		check(name+"/full", u.Full)
		check(name+"/step", u.Step)
	}
}

// TestBlockedEmptyProgram exercises the zero-instruction edge (a
// circuit with no gates compiles to an empty Step program body on some
// shapes); Block must not panic and Exec must be a no-op.
func TestBlockedEmptyProgram(t *testing.T) {
	c, err := netlist.ParseBenchString("tiny", "INPUT(a)\nOUTPUT(a)\n")
	if err != nil {
		t.Fatal(err)
	}
	u := Compile(c)
	for _, p := range []*Program{u.Full, u.Step} {
		b := Block(p, BlockOptions{BudgetBytes: 64, W: 1})
		vals := make([]uint64, p.Slots)
		scratch := make([]uint64, b.ScratchSlots)
		b.Exec(vals, scratch, 1)
		bp := Block(p, BlockOptions{Workers: 2})
		bp.ExecParallel(vals, 1)
	}
}
