package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// EventDriven is a gate-level event-driven timing simulator with inertial
// delays. Given a circuit settled for the previous cycle's inputs and
// state, Cycle applies the new input pattern and new latch outputs
// simultaneously at t=0 and propagates events until quiescence, counting
// every output transition — functional transitions and glitches alike.
// This is the "general-delay circuit simulator" of the paper's two-phase
// sampling scheme.
//
// Inertial semantics: a gate re-evaluation schedules its new output value
// after the gate delay; a re-evaluation that returns the gate to its
// current value cancels any pending change (pulse filtering). At most one
// change per node is pending at any time.
//
// Events commit in (time, logic level, scheduling order). The level
// tiebreak makes zero-delay (and equal-delay) event processing behave
// like a levelized sweep, so delta-cycle artifacts cannot masquerade as
// glitches: an upstream same-time change always lands before a
// downstream gate commits, letting inertial cancellation absorb it. The
// order fixes the float summation order of the cycle's power and the
// sequence an observer sees.
//
// The pending events live in a timing wheel (a calendar queue). Slot
// width is the gcd of the table's nonzero delays — so under the
// fanout-loaded model, whose delays are multiples of 20 ps, each slot
// holds a single time — widened when the max/gcd ratio exceeds
// maxWheelSpan, in which case a slot may hold several times. The wheel
// has the smallest power of two of slots above maxDelay/width + 1, so an
// event is never scheduled a full turn ahead. A slot is a FIFO list of
// its events in scheduling order, threaded through one shared event
// pool. Draining a slot moves its earliest time's events, in order, onto
// per-level FIFO lists (a bucket queue over logic levels) and commits
// them level by level; the slot's later times (a widened slot) stay on
// it for the next pass. An event scheduled for the time being drained —
// a zero-delay gate, always at a higher level than the event that
// scheduled it — joins the tail of its level's list. No sequence number
// is stored: scheduling order is list order.
//
// The fanout walk and gate re-evaluation run over the circuit's CSR view
// (flat kind/level/fanin/fanout arrays).
type EventDriven struct {
	csr       *netlist.CSR
	delays    []delay.Picoseconds
	modelName string

	// wheel[s&mask] lists, in scheduling order, the pool indices of the
	// events of absolute slot s — times in [s*width, (s+1)*width). free
	// heads the pool's free list. queued counts the events on slot lists,
	// stale ones included. now is the time being drained (-1 while the
	// t=0 source changes are applied); its events wait on level[l], and
	// occupied has bit l set while level[l] is non-empty.
	wheel    []eventList
	mask     int64
	width    delay.Picoseconds
	pool     []event
	free     int32
	queued   int
	now      delay.Picoseconds
	level    []eventList
	occupied []uint64

	pendingVal    []bool
	pendingActive []bool
	pendingGen    []uint32

	// LastSettleTime is the simulated time at which the previous Cycle
	// quiesced; callers can check it against the clock period.
	LastSettleTime delay.Picoseconds
	// LastEvents is the number of applied (non-stale) events in the
	// previous Cycle, a machine-independent cost metric.
	LastEvents uint64

	// observer, when set, receives every committed transition (including
	// the t=0 source changes). Used by waveform dumpers; nil in normal
	// estimation runs.
	observer func(id netlist.NodeID, t delay.Picoseconds, v bool)
}

type event struct {
	t     delay.Picoseconds
	level int32
	node  netlist.NodeID
	gen   uint32
	next  int32 // pool index of the next event on its list, -1 at the tail
}

// eventList is a FIFO of pool indices (head -1 = empty): one wheel slot,
// or one logic level of the time being drained.
type eventList struct{ head, tail int32 }

// maxWheelSpan bounds maxDelay/width: a delay table whose max/gcd ratio
// exceeds it gets proportionally wider slots, keeping the wheel at most
// 2*maxWheelSpan slots.
const maxWheelSpan = 1024

// wheelGeometry sizes the timing wheel for a delay table: the slot width
// (the gcd of the nonzero delays, widened to keep maxDelay/width within
// maxWheelSpan) and the slot count (the smallest power of two above
// maxDelay/width + 1).
func wheelGeometry(delays []delay.Picoseconds) (width delay.Picoseconds, slots int) {
	var g, maxD delay.Picoseconds
	for _, d := range delays {
		if d > 0 {
			a, b := g, d
			for b != 0 {
				a, b = b, a%b
			}
			g, maxD = a, max(maxD, d)
		}
	}
	width = max(g, 1)
	if span := maxD / width; span > maxWheelSpan {
		width *= (span + maxWheelSpan - 1) / maxWheelSpan
	}
	slots = 1
	for delay.Picoseconds(slots) <= maxD/width+1 {
		slots <<= 1
	}
	return width, slots
}

// NewEventDriven builds an event-driven simulator for a frozen circuit
// under a delay table.
func NewEventDriven(c *netlist.Circuit, dt *delay.Table) *EventDriven {
	if !c.Frozen() {
		panic("sim: NewEventDriven requires a frozen circuit")
	}
	if len(dt.Delays) != len(c.Nodes) {
		panic(fmt.Sprintf("sim: delay table has %d entries, circuit has %d nodes",
			len(dt.Delays), len(c.Nodes)))
	}
	for i, d := range dt.Delays {
		if d < 0 {
			panic(fmt.Sprintf("sim: node %d has negative delay %d", i, d))
		}
	}
	n := len(c.Nodes)
	r := c.CSR()
	levels := int32(1)
	for _, l := range r.Level {
		levels = max(levels, l+1)
	}
	width, slots := wheelGeometry(dt.Delays)
	e := &EventDriven{
		csr:           r,
		delays:        dt.Delays,
		modelName:     dt.ModelName,
		wheel:         make([]eventList, slots),
		mask:          int64(slots - 1),
		width:         width,
		level:         make([]eventList, levels),
		occupied:      make([]uint64, (levels+63)/64),
		pendingVal:    make([]bool, n),
		pendingActive: make([]bool, n),
		pendingGen:    make([]uint32, n),
	}
	e.resetQueue()
	return e
}

// resetQueue empties the wheel, the level lists and the event pool.
func (e *EventDriven) resetQueue() {
	for i := range e.wheel {
		e.wheel[i].head = -1
	}
	for i := range e.level {
		e.level[i].head = -1
	}
	clear(e.occupied)
	e.pool, e.free, e.queued, e.now = e.pool[:0], -1, 0, -1
}

// Cycle simulates one clock cycle. On entry vals must hold the settled
// values for the previous (pattern, state) pair; on return vals holds the
// settled values for (newPins, newQ).
//
// weights[i] is the power contribution of one transition at node i (zero
// to exclude a node, e.g. primary inputs whose transitions are paid by
// the external driver). The weighted sum over all transitions is
// returned. If counts is non-nil, counts[i] is incremented once per
// transition at node i (it is not cleared first, so callers can
// accumulate energy breakdowns over many cycles).
func (e *EventDriven) Cycle(vals []bool, newPins, newQ []bool, weights []float64, counts []uint64) float64 {
	r := e.csr
	sum := 0.0
	e.LastEvents = 0
	e.LastSettleTime = 0
	// The wheel is always drained by the previous Cycle; an aborted one
	// (a panicking observer) must not leak stale events into this one.
	if e.queued != 0 || e.now != -1 {
		e.resetQueue()
	}

	// Apply simultaneous source changes at t=0: the clock edge updates
	// latch outputs while the environment presents the next pattern.
	for i, id := range r.Inputs {
		if vals[id] != newPins[i] {
			vals[id] = newPins[i]
			sum += weights[id]
			if counts != nil {
				counts[id]++
			}
			if e.observer != nil {
				e.observer(netlist.NodeID(id), 0, vals[id])
			}
			e.LastEvents++
			e.fanoutEval(id, 0, vals)
		}
	}
	for i, id := range r.Latches {
		if vals[id] != newQ[i] {
			vals[id] = newQ[i]
			sum += weights[id]
			if counts != nil {
				counts[id]++
			}
			if e.observer != nil {
				e.observer(netlist.NodeID(id), 0, vals[id])
			}
			e.LastEvents++
			e.fanoutEval(id, 0, vals)
		}
	}

	// Propagate to quiescence: wheel slots in time order, each drained
	// one time at a time (a widened slot may hold several), each time
	// level by level.
	for sl := int64(0); e.queued > 0; sl++ {
		for slot := &e.wheel[sl&e.mask]; slot.head >= 0; {
			e.takeEarliest(slot)
			sum = e.drainLevels(sum, vals, weights, counts)
		}
	}
	e.now = -1
	return sum
}

// takeEarliest moves the earliest time's events of a wheel slot onto the
// level lists, in slot order, and makes that time e.now; the slot keeps
// its later-time events in order.
func (e *EventDriven) takeEarliest(slot *eventList) {
	head := slot.head
	slot.head = -1
	first := e.pool[head].t
	for i := e.pool[head].next; i >= 0; i = e.pool[i].next {
		first = min(first, e.pool[i].t)
	}
	for i := head; i >= 0; {
		ev := &e.pool[i]
		next := ev.next
		if ev.t == first {
			e.queued--
			e.appendLevel(i)
		} else {
			e.appendTo(slot, i)
		}
		i = next
	}
	e.now = first
}

// appendLevel links pool event i at the tail of its level's list.
func (e *EventDriven) appendLevel(i int32) {
	l := e.pool[i].level
	e.occupied[l>>6] |= 1 << (l & 63)
	e.appendTo(&e.level[l], i)
}

// appendTo links pool event i at the tail of list l.
func (e *EventDriven) appendTo(l *eventList, i int32) {
	e.pool[i].next = -1
	if l.head < 0 {
		l.head = i
	} else {
		e.pool[l.tail].next = i
	}
	l.tail = i
}

// drainLevels commits the events of time e.now in (level, scheduling
// order), adding each committed transition's weight to sum in that order,
// and returns the power sum. Committed events re-evaluate their fanout,
// which may append to higher levels only, so the ascending scan of the
// occupied bitmap sees them. Drained lists go back to the free list.
func (e *EventDriven) drainLevels(sum float64, vals []bool, weights []float64, counts []uint64) float64 {
	for w := range e.occupied {
		for e.occupied[w] != 0 {
			l := w<<6 | bits.TrailingZeros64(e.occupied[w])
			e.occupied[w] &^= 1 << (l & 63)
			list := e.level[l]
			e.level[l].head = -1
			for i := list.head; i >= 0; i = e.pool[i].next {
				ev := e.pool[i]
				id := ev.node
				if !e.pendingActive[id] || e.pendingGen[id] != ev.gen {
					continue // cancelled or superseded
				}
				e.pendingActive[id] = false
				vals[id] = e.pendingVal[id]
				sum += weights[id]
				if counts != nil {
					counts[id]++
				}
				if e.observer != nil {
					e.observer(id, ev.t, vals[id])
				}
				e.LastEvents++
				e.LastSettleTime = ev.t
				e.fanoutEval(int32(id), ev.t, vals)
			}
			e.pool[list.tail].next, e.free = e.free, list.head
		}
	}
	return sum
}

// CyclePower implements PowerEngine; it is Cycle under the interface's
// name.
func (e *EventDriven) CyclePower(vals []bool, newPins, newQ []bool, weights []float64, counts []uint64) float64 {
	return e.Cycle(vals, newPins, newQ, weights, counts)
}

// Name implements PowerEngine.
func (e *EventDriven) Name() string { return EngineEventDriven }

// DelayModelName implements PowerEngine: the name of the delay model the
// simulator's table was built from.
func (e *EventDriven) DelayModelName() string { return e.modelName }

// SetObserver installs (or clears, with nil) a callback invoked for
// every committed transition during subsequent Cycles. Observation slows
// simulation; estimation runs leave it unset.
func (e *EventDriven) SetObserver(fn func(id netlist.NodeID, t delay.Picoseconds, v bool)) {
	e.observer = fn
}

// fanoutEval re-evaluates every combinational gate driven by id at time t.
// It walks the CSR gate-fanout row of the node (non-combinational sinks —
// DFF D pins — are excluded at Freeze time).
func (e *EventDriven) fanoutEval(id int32, t delay.Picoseconds, vals []bool) {
	r := e.csr
	for _, g := range r.GateFanoutList[r.GateFanoutIdx[id]:r.GateFanoutIdx[id+1]] {
		newv := evalCSR(vals, r.Kind[g], r.FaninList[r.FaninIdx[g]:r.FaninIdx[g+1]])
		if e.pendingActive[g] {
			if e.pendingVal[g] == newv {
				continue // already scheduled to the right value
			}
			// Inertial cancellation of the pending (now wrong) change.
			e.pendingGen[g]++
			e.pendingActive[g] = false
		}
		if newv == vals[g] {
			continue
		}
		e.pendingVal[g] = newv
		e.pendingActive[g] = true
		e.pendingGen[g]++
		e.schedule(event{t: t + e.delays[g], level: r.Level[g],
			node: netlist.NodeID(g), gen: e.pendingGen[g]})
	}
}

// schedule queues ev behind every queued event of its time and level:
// on the level list of the time being drained (a zero-delay gate), or at
// the tail of its wheel slot.
func (e *EventDriven) schedule(ev event) {
	i := e.free
	if i >= 0 {
		e.free = e.pool[i].next
		e.pool[i] = ev
	} else {
		i = int32(len(e.pool))
		e.pool = append(e.pool, ev)
	}
	if ev.t == e.now {
		e.appendLevel(i)
		return
	}
	e.appendTo(&e.wheel[int64(ev.t/e.width)&e.mask], i)
	e.queued++
}
