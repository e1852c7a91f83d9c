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
// Inertial semantics: a gate evaluation schedules its new output value
// after the gate delay; an evaluation that returns the gate to its
// current value cancels any pending change (pulse filtering). At most one
// change per node is pending at any time.
//
// The simulator is canonical — its result depends only on the circuit,
// the delay table and the (old, new) source values, never on the order
// in which same-time work happens to be queued:
//
//   - Each gate is evaluated once per instant, after all of that
//     instant's fanin commits, and before its own level's due events
//     commit. Fanins sit at strictly lower levels, so this is the
//     levelized order (time, level). The simulator gets there without a
//     second pass: a committed change evaluates its combinational fanout
//     at once, and an evaluation of a gate already evaluated at this
//     instant first rolls the gate's pending change back to how it stood
//     before the instant — so only the last evaluation, the one that
//     sees every fanin commit of the instant, takes effect. An
//     evaluation at exactly a pending change's due time cancels it if
//     the gate's function moved back: a change survives iff the gate's
//     function does not change again within (τ, τ+d].
//   - A cycle's power is summed after the cycle, in node-index order,
//     adding w_i once per transition of node i (a touched-node bitmap is
//     walked in ascending order). Under an all-zero delay table every
//     node changes at most once, so the sum equals ZeroDelayToggle's bit
//     for bit.
//
// Both rules are what the word-level engine behind
// CompiledSession.StepSampledWith reproduces lane by lane (see
// waveEngine): power bits, per-node counts and settled values.
//
// The pending events live in a timing wheel (a calendar queue). Slot
// width is the gcd of the table's nonzero delays — so under the
// fanout-loaded model, whose delays are multiples of 20 ps, each slot
// holds a single time — widened when the max/gcd ratio exceeds
// maxWheelSpan, in which case a slot may hold several times. The wheel
// has the smallest power of two of slots above maxDelay/width + 1, so an
// event is never scheduled a full turn ahead. A slot is a FIFO list of
// its events, threaded through one shared event pool. Draining a slot
// moves its earliest time's events onto per-level FIFO lists (a bucket
// queue over logic levels) and processes them level by level; the
// slot's later times (a widened slot) stay on it for the next pass. An
// event scheduled for the time being drained — by a zero-delay gate,
// whose fanins commit at lower levels — joins the tail of its level's
// list before that level commits.
//
// The fanout walk and gate evaluation run over the circuit's CSR view
// (flat kind/level/fanin/fanout arrays).
type EventDriven struct {
	csr       *netlist.CSR
	delays    []delay.Picoseconds
	modelName string

	// wheel[s&mask] lists, in scheduling order, the pool indices of the
	// events of absolute slot s — times in [s*width, (s+1)*width). free
	// heads the pool's free list. queued counts the events on slot lists,
	// stale ones included. now is the time being drained (-1 between
	// cycles); its events wait on level[l], and occupied has bit l set
	// while level[l] is non-empty.
	wheel    []eventList
	mask     int64
	width    delay.Picoseconds
	pool     []event
	free     int32
	queued   int
	now      delay.Picoseconds
	level    []eventList
	occupied []uint64

	// gates[g] holds gate g's pending change; an event is live iff its
	// gate has an active pending change of the event's gen. gen numbers
	// the scheduled events, instant the drained times.
	gates   []gateState
	gen     uint32
	instant uint32

	// toggles[i] counts node i's transitions in the running cycle;
	// touched has bit i set while toggles[i] != 0.
	toggles []uint32
	touched []uint64

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

// pending is a gate's scheduled output change.
type pending struct {
	gen         uint32
	val, active bool
}

// gateState is a gate's pending change (cur) and, once the gate has been
// evaluated at instant at, its pending change from before that instant
// (undo).
type gateState struct {
	cur, undo pending
	at        uint32
}

type event struct {
	t     delay.Picoseconds
	level int32
	node  netlist.NodeID
	gen   uint32
	next  int32 // pool index of the next event on its list, -1 at the tail
}

// eventList is a FIFO of pool indices (head -1 = empty): one wheel
// slot, or one logic level of the time being drained.
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
	r := c.CSR()
	n := r.NumNodes()
	levels := int32(1)
	for _, l := range r.Level {
		levels = max(levels, l+1)
	}
	width, slots := wheelGeometry(dt.Delays)
	e := &EventDriven{
		csr:       r,
		delays:    dt.Delays,
		modelName: dt.ModelName,
		wheel:     make([]eventList, slots),
		mask:      int64(slots - 1),
		width:     width,
		level:     make([]eventList, levels),
		occupied:  make([]uint64, (levels+63)/64),
		gates:     make([]gateState, n),
		toggles:   make([]uint32, n),
		touched:   make([]uint64, (n+63)/64),
	}
	e.resetQueue()
	return e
}

// resetQueue empties the wheel, the level lists, the event pool, the
// pending changes and the cycle's toggle tally.
func (e *EventDriven) resetQueue() {
	for i := range e.wheel {
		e.wheel[i].head = -1
	}
	for i := range e.level {
		e.level[i].head = -1
	}
	clear(e.gates)
	e.instant = 1
	clear(e.occupied)
	clear(e.toggles)
	clear(e.touched)
	e.pool, e.free, e.queued, e.now = e.pool[:0], -1, 0, -1
}

// Cycle simulates one clock cycle. On entry vals must hold the settled
// values for the previous (pattern, state) pair; on return vals holds the
// settled values for (newPins, newQ).
//
// weights[i] is the power contribution of one transition at node i (zero
// to exclude a node, e.g. primary inputs whose transitions are paid by
// the external driver). The weighted sum over all transitions is
// returned, added in node-index order once per transition. If counts is
// non-nil, counts[i] is incremented once per transition at node i (it is
// not cleared first, so callers can accumulate energy breakdowns over
// many cycles).
func (e *EventDriven) Cycle(vals []bool, newPins, newQ []bool, weights []float64, counts []uint64) float64 {
	r := e.csr
	e.LastEvents = 0
	e.LastSettleTime = 0
	// The wheel is always drained by the previous Cycle; an aborted one
	// (a panicking observer) must not leak stale work into this one.
	if e.queued != 0 || e.now != -1 {
		e.resetQueue()
	}

	// Apply simultaneous source changes at t=0: the clock edge updates
	// latch outputs while the environment presents the next pattern.
	e.now = 0
	e.nextInstant()
	for i, id := range r.Inputs {
		if vals[id] != newPins[i] {
			vals[id] = newPins[i]
			e.commit(id, 0, vals)
		}
	}
	for i, id := range r.Latches {
		if vals[id] != newQ[i] {
			vals[id] = newQ[i]
			e.commit(id, 0, vals)
		}
	}
	e.drainLevels(vals)

	// Propagate to quiescence: wheel slots in time order, each drained
	// one time at a time (a widened slot may hold several), each time
	// level by level.
	for sl := int64(0); e.queued > 0; sl++ {
		for slot := &e.wheel[sl&e.mask]; slot.head >= 0; {
			e.takeEarliest(slot)
			e.drainLevels(vals)
		}
	}
	e.now = -1
	return e.sumToggles(weights, counts)
}

// sumToggles adds the running cycle's power in node-index order, w_i
// once per transition of node i, credits counts, and clears the tally.
func (e *EventDriven) sumToggles(weights []float64, counts []uint64) float64 {
	sum := 0.0
	for w, word := range e.touched {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			n, wt := e.toggles[i], weights[i]
			for k := n; k > 0; k-- {
				sum += wt
			}
			if counts != nil {
				counts[i] += uint64(n)
			}
			e.toggles[i] = 0
		}
		e.touched[w] = 0
	}
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
	e.nextInstant()
}

// nextInstant starts a new drained time: no gate has been evaluated at
// it yet.
func (e *EventDriven) nextInstant() {
	if e.instant++; e.instant == 0 {
		for i := range e.gates {
			e.gates[i].at = 0
		}
		e.instant = 1
	}
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

// drainLevels commits the live events of time e.now in (level,
// scheduling order). Committed events evaluate their fanout, which may
// append to higher levels only (a zero-delay gate), so the ascending
// scan of the occupied bitmap sees them. Drained lists go back to the
// free list.
func (e *EventDriven) drainLevels(vals []bool) {
	for w := range e.occupied {
		for e.occupied[w] != 0 {
			l := w<<6 | bits.TrailingZeros64(e.occupied[w])
			e.occupied[w] &^= 1 << (l & 63)
			list := e.level[l]
			e.level[l].head = -1
			for i := list.head; i >= 0; i = e.pool[i].next {
				ev := e.pool[i]
				id := ev.node
				p := &e.gates[id].cur
				if !p.active || p.gen != ev.gen {
					continue // cancelled or superseded
				}
				p.active = false
				vals[id] = p.val
				e.commit(int32(id), ev.t, vals)
			}
			e.pool[list.tail].next, e.free = e.free, list.head
		}
	}
}

// commit records node id's transition at time t (vals already holds the
// new value) and evaluates its combinational fanout at t.
//
// An evaluation applies the inertial rule to the gate's pending change
// as it stood before this instant: a pending change to the wrong value
// is cancelled, and a new value is scheduled one gate delay later. A
// repeated evaluation at the same instant replaces the earlier one: a
// cancellation is undone, and an event it scheduled is kept only if it
// still carries the right value (every evaluation at an instant
// schedules for the same time), else left stale.
func (e *EventDriven) commit(id int32, t delay.Picoseconds, vals []bool) {
	r := e.csr
	e.toggles[id]++
	e.touched[id>>6] |= 1 << (id & 63)
	if e.observer != nil {
		e.observer(netlist.NodeID(id), t, vals[id])
	}
	e.LastEvents++
	e.LastSettleTime = t
	for _, g := range r.GateFanoutList[r.GateFanoutIdx[id]:r.GateFanoutIdx[id+1]] {
		gs := &e.gates[g]
		if gs.at != e.instant {
			gs.at, gs.undo = e.instant, gs.cur
		}
		base := gs.undo
		newv := evalCSR(vals, r.Kind[g], r.FaninList[r.FaninIdx[g]:r.FaninIdx[g+1]])
		switch {
		case base.active && base.val == newv:
			gs.cur = base // the pending change already goes to the right value
		case newv == vals[g]:
			gs.cur.active = false // inertial cancellation, or nothing to do
		case gs.cur.active && gs.cur.val == newv && gs.cur.gen != base.gen:
			// Scheduled to the right value earlier in this instant.
		default:
			// Every scheduled event gets a fresh gen, so an event left
			// stale by a cancellation or a replaced evaluation never
			// turns live again.
			e.gen++
			gs.cur = pending{gen: e.gen, val: newv, active: true}
			e.schedule(event{t: t + e.delays[g], level: r.Level[g],
				node: netlist.NodeID(g), gen: e.gen})
		}
	}
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
