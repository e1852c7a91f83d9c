package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// waveEngine is the word-level general-delay observer: it computes, for
// 64 lanes per machine word, exactly what the canonical EventDriven
// computes for each lane alone — the cycle's power bits, its per-node
// transition counts and its settled values. Instead of queueing events
// it propagates whole waveforms through the circuit once, in levelized
// order (CSR.Order):
//
//   - A source (input or latch) has one change point, at t = 0, in the
//     lanes where its value changes.
//   - A gate merges its fanins' change times and evaluates its word F at
//     each of them, keeping the candidate points where some active
//     lane's F changes (the instants at which the scalar engine's
//     evaluation is not a no-op).
//   - At τ_i+d the gate commits F_i in the lanes whose F does not change
//     again in (τ_i, τ_i+d] — the inertial rule, with an evaluation at a
//     change's due time cancelling it. The cancelling set is a sliding OR
//     of the later candidates' change masks, kept as a two-stack queue
//     so each candidate is ORed in O(1) amortized. The gate emits an
//     output point whenever any lane's value flips.
//
// Power is then summed node by node in index order, each point's toggle
// word routing w_i to its lanes once per transition (toggleDiff's
// scatter loop), and counts are popcounts — the canonical EventDriven's
// summation order, lane by lane. A gate costs one evaluation per
// distinct fanin change time of its 64 lanes, and nothing at all when
// none of its fanins moved.
//
// The engine is scratch only, sized for one circuit at first use and
// reused for every word after that.
type waveEngine struct {
	csr *netlist.CSR

	// For the word being observed: init[i] is node i's value word before
	// the cycle, and pts[first[i]:first[i]+npts[i]] its change points in
	// time order, each holding the value word from then on. Every list
	// ends in a sentinel point at the end of time; a node without
	// changes points at the shared one in pts[0].
	init  []uint64
	first []int32
	npts  []int32
	pts   []wavePoint

	// Gate scratch: candidate points, the two-stack queue's suffix ORs,
	// fanin cursors, fanin value words and their positions (0, 1, ...,
	// for evalPacked); acc sums one word's lane powers.
	cand []wavePoint
	chg  []uint64
	sfx  []uint64
	cur  []int32
	fv   []uint64
	pos  []int32
	acc  [64]float64
}

// wavePoint is one change point of a node's waveform: from time t on the
// node holds value word v.
type wavePoint struct {
	t delay.Picoseconds
	v uint64
}

// endOfTime is the sentinel that ends every waveform's point list.
var endOfTime = wavePoint{t: math.MaxInt64}

// newWaveEngine sizes a word-level observer for a frozen circuit.
func newWaveEngine(c *netlist.Circuit) *waveEngine {
	r := c.CSR()
	n := r.NumNodes()
	maxFanin := 1
	for i := 0; i < n; i++ {
		maxFanin = max(maxFanin, int(r.FaninIdx[i+1]-r.FaninIdx[i]))
	}
	// A word of glitchy 64-lane activity holds a few points per node;
	// the point and candidate buffers start there and only grow on a
	// busier word.
	we := &waveEngine{
		csr:   r,
		init:  make([]uint64, n),
		first: make([]int32, n),
		npts:  make([]int32, n),
		pts:   make([]wavePoint, 0, 6*n),
		cand:  make([]wavePoint, 0, 64),
		chg:   make([]uint64, 0, 64),
		sfx:   make([]uint64, 64),
		cur:   make([]int32, maxFanin),
		fv:    make([]uint64, maxFanin),
		pos:   make([]int32, maxFanin),
	}
	for k := range we.pos {
		we.pos[k] = int32(k)
	}
	return we
}

// observe runs one general-delay cycle for every lane of a row-major
// packed state: vals holds the settled rows of the previous (pattern,
// state) pair, pins and q the new input and latch rows, all w words per
// row with lane k in bit k%64 of word k/64 (lanes <= 64*w). powers[k]
// receives lane k's weighted transition sum for k < lanes, and counts
// (when non-nil) each node's transitions summed over the lanes —
// bit-identical to lanes observed one at a time by an EventDriven built
// over delays. After the call the engine holds the last word's
// waveforms.
func (we *waveEngine) observe(delays []delay.Picoseconds, vals, pins, q []uint64, w, lanes int, weights, powers []float64, counts []uint64) {
	if len(delays) != we.csr.NumNodes() {
		panic(fmt.Sprintf("sim: word-level observation delay table length %d, want %d", len(delays), we.csr.NumNodes()))
	}
	if len(weights) != we.csr.NumNodes() {
		panic(fmt.Sprintf("sim: word-level observation weights length %d, want %d", len(weights), we.csr.NumNodes()))
	}
	for j := 0; j<<6 < lanes; j++ {
		mask := ^uint64(0)
		if r := lanes - j<<6; r < 64 {
			mask = 1<<uint(r) - 1
		}
		we.word(delays, vals, pins, q, w, j, mask)
		we.sum(weights, powers[j<<6:min(lanes, j<<6+64)], counts)
	}
}

// word builds every node's waveform for word j of the rows.
func (we *waveEngine) word(delays []delay.Picoseconds, vals, pins, q []uint64, w, j int, mask uint64) {
	r := we.csr
	we.pts = append(we.pts[:0], endOfTime)
	for i := range we.init {
		we.init[i] = vals[i*w+j]
		we.first[i], we.npts[i] = 0, 0
	}
	source := func(id int32, v uint64) {
		old := we.init[id]
		if d := (old ^ v) & mask; d != 0 {
			we.first[id], we.npts[id] = int32(len(we.pts)), 1
			we.pts = append(we.pts, wavePoint{0, old ^ d}, endOfTime)
		}
	}
	for i, id := range r.Inputs {
		source(id, pins[i*w+j])
	}
	for i, id := range r.Latches {
		source(id, q[i*w+j])
	}
	for _, g := range r.Order {
		fi := r.FaninList[r.FaninIdx[g]:r.FaninIdx[g+1]]
		quiet := true
		for _, f := range fi {
			if we.npts[f] != 0 {
				quiet = false
				break
			}
		}
		if !quiet {
			we.gate(g, r.Kind[g], fi, delays[g], mask)
		}
	}
}

// gate derives gate g's output waveform from its fanins' waveforms.
func (we *waveEngine) gate(g int32, kind logic.Kind, fi []int32, d delay.Picoseconds, mask uint64) {
	// Candidate points: the merged fanin change times at which some
	// active lane's F changes.
	cur, fv := we.cur[:len(fi)], we.fv[:len(fi)]
	for k, f := range fi {
		cur[k] = we.first[f]
		fv[k] = we.init[f]
	}
	cand, chg := we.cand[:0], we.chg[:0]
	prev := we.init[g]
	pts := we.pts
	for {
		t := pts[cur[0]].t
		for _, c := range cur[1:] {
			t = min(t, pts[c].t)
		}
		if t == endOfTime.t {
			break
		}
		for k, c := range cur {
			if pts[c].t == t {
				fv[k] = pts[c].v
				cur[k] = c + 1
			}
		}
		v := evalPacked(fv, kind, we.pos[:len(fi)])
		if c := (v ^ prev) & mask; c != 0 {
			cand = append(cand, wavePoint{t, v})
			chg = append(chg, c)
			prev = v
		}
	}
	we.cand, we.chg = cand, chg
	if len(cand) == 0 {
		return
	}

	// Inertial commit: candidate i commits at t_i+d in the lanes whose F
	// does not change again in (t_i, t_i+d], i.e. outside the OR of
	// chg[i+1:hi). The window slides forward at both ends; [i+1, mid)
	// is the queue's front stack (sfx holds its suffix ORs) and
	// [mid, hi) its back stack (back holds their OR).
	if len(we.sfx) < len(cand) {
		we.sfx = make([]uint64, 2*len(cand))
	}
	sfx := we.sfx
	out := we.init[g]
	we.first[g] = int32(len(we.pts))
	hi, mid, back := 0, 0, uint64(0)
	for i, p := range cand {
		due := p.t + d
		hi = max(hi, i+1)
		for ; hi < len(cand) && cand[hi].t <= due; hi++ {
			if hi >= mid {
				back |= chg[hi]
			}
		}
		var kill uint64
		if i+1 >= mid {
			acc := uint64(0)
			for k := hi - 1; k > i; k-- {
				acc |= chg[k]
				sfx[k] = acc
			}
			mid, back = hi, 0
			kill = acc
		} else {
			kill = sfx[i+1] | back
		}
		if v := out ^ (out^p.v)&mask&^kill; v != out {
			we.pts = append(we.pts, wavePoint{due, v})
			out = v
		}
	}
	if we.npts[g] = int32(len(we.pts)) - we.first[g]; we.npts[g] == 0 {
		we.first[g] = 0
	} else {
		we.pts = append(we.pts, endOfTime)
	}
}

// sum adds the word's transitions to its lanes' powers (pw, at most 64
// lanes) in node-index order, w_i once per transition, and to counts.
// Each lane accumulates from zero in a fixed 64-entry span (no bounds
// check in the scatter loop) and is copied out after the last node.
func (we *waveEngine) sum(weights, pw []float64, counts []uint64) {
	acc := &we.acc
	*acc = [64]float64{}
	for i, n := range we.npts {
		if n == 0 {
			continue
		}
		wt, prev := weights[i], we.init[i]
		for _, p := range we.pts[we.first[i] : we.first[i]+n] {
			d := p.v ^ prev
			prev = p.v
			if counts != nil {
				counts[i] += uint64(bits.OnesCount64(d))
			}
			for ; d != 0; d &= d - 1 {
				acc[bits.TrailingZeros64(d)&63] += wt
			}
		}
	}
	copy(pw, acc[:])
}

// CycleStack records general-delay sampled cycles — each a (settled
// values, new input pattern, new latch state) triple — as the lanes of
// a packed state, then observes them all in one word-level pass. A
// replication's sampled cycles do not depend on their observation, so a
// sequence of them can be recorded as it is stepped
// (CompiledSession.StepSampledRecord) and observed afterwards, 64 cycles per
// machine word instead of one scalar EventDriven.Cycle each; every
// recorded cycle's power is bit-identical to what EventDriven.Cycle
// returns for it.
type CycleStack struct {
	lanes int // capacity in cycles
	w     int // words per row
	n     int // cycles recorded
	vals  []uint64
	pins  []uint64
	q     []uint64
	wave  *waveEngine
}

// NewCycleStack builds a stack holding up to capacity cycles of a frozen
// circuit; its rows are sized once here.
func NewCycleStack(c *netlist.Circuit, capacity int) *CycleStack {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: NewCycleStack capacity %d", capacity))
	}
	w := (capacity + 63) / 64
	return &CycleStack{
		lanes: capacity,
		w:     w,
		vals:  make([]uint64, c.NumNodes()*w),
		pins:  make([]uint64, len(c.Inputs)*w),
		q:     make([]uint64, len(c.Latches)*w),
		wave:  newWaveEngine(c),
	}
}

// Len returns the number of recorded cycles.
func (s *CycleStack) Len() int { return s.n }

// Cap returns the stack's capacity in cycles.
func (s *CycleStack) Cap() int { return s.lanes }

// record appends the cycles of the first lanes lanes of a row-major
// packed state (rows w words wide, as waveEngine.observe takes them),
// lane by lane. It panics when they do not fit.
func (s *CycleStack) record(vals, pins, q []uint64, w, lanes int) {
	if s.n+lanes > s.lanes {
		panic(fmt.Sprintf("sim: CycleStack holds %d of %d cycles, cannot record %d more", s.n, s.lanes, lanes))
	}
	put := func(dst, src []uint64, k int) {
		sb, db := uint(k&63), uint(s.n&63)
		src, dst = src[k>>6:], dst[s.n>>6:]
		for i, j := 0, 0; j < len(dst); i, j = i+w, j+s.w {
			dst[j] = dst[j]&^(1<<db) | (src[i]>>sb&1)<<db
		}
	}
	for k := 0; k < lanes; k++ {
		put(s.vals, vals, k)
		put(s.pins, pins, k)
		put(s.q, q, k)
		s.n++
	}
}

// Observe writes the power of every recorded cycle, in recording order,
// into powers[:Len()] as an EventDriven built over dt would observe it,
// adds their per-node transition counts to counts when it is non-nil,
// and empties the stack.
func (s *CycleStack) Observe(dt *delay.Table, weights, powers []float64, counts []uint64) {
	s.wave.observe(dt.Delays, s.vals, s.pins, s.q, s.w, s.n, weights, powers, counts)
	s.n = 0
}
