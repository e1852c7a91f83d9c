package compile

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Unit is the compiled form of one frozen circuit: the observation-exact
// Full program and the next-state-only Step program (see the package
// comment for what each may and may not restructure).
type Unit struct {
	Full *Program
	Step *Program
}

// For returns the compiled Unit of a frozen circuit, compiling on first
// use and caching the result on the circuit itself, so every session
// over the same circuit shares one Unit. Compilation is deterministic;
// concurrent first calls race only on which identical Unit gets cached.
func For(c *netlist.Circuit) *Unit {
	if u, ok := c.Artifact().(*Unit); ok {
		return u
	}
	u := Compile(c)
	c.SetArtifact(u)
	return u
}

// Compile builds the word-level programs of a frozen circuit.
func Compile(c *netlist.Circuit) *Unit {
	if !c.Frozen() {
		panic("compile: Compile requires a frozen circuit")
	}
	r := c.CSR()
	cv := constEval(r)
	ord := levelOrder(r)
	return &Unit{Full: compileFull(r, cv, ord), Step: compileStep(r, cv, ord)}
}

// levelOrder returns r.Order stably re-sorted by logic level (a counting
// sort). The CSR order is a valid topological order but interleaves
// levels; emitting in level-contiguous order instead makes each program's
// instructions a sequence of level runs, which is what the blocked
// executor's per-level waves require. The re-sort is itself topological —
// every fanin sits at a strictly lower level — and settled values are
// independent of which valid order is used, so compiled results are
// unchanged.
func levelOrder(r *netlist.CSR) []int32 {
	maxL := int32(0)
	for _, id := range r.Order {
		if r.Level[id] > maxL {
			maxL = r.Level[id]
		}
	}
	cnt := make([]int32, maxL+2)
	for _, id := range r.Order {
		cnt[r.Level[id]+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	out := make([]int32, len(r.Order))
	for _, id := range r.Order {
		out[cnt[r.Level[id]]] = id
		cnt[r.Level[id]]++
	}
	return out
}

// constVal is the three-point constant lattice of a signal.
type constVal uint8

const (
	varying constVal = iota
	zero
	one
)

func (v constVal) invert() constVal {
	switch v {
	case zero:
		return one
	case one:
		return zero
	}
	return varying
}

// shape reduces a combinational kind to its reduction base (And, Or,
// Xor, or Buf for the unary gates) and an output-inversion flag.
func shape(k logic.Kind) (logic.Kind, bool) {
	switch k {
	case logic.Buf:
		return logic.Buf, false
	case logic.Not:
		return logic.Buf, true
	case logic.And:
		return logic.And, false
	case logic.Nand:
		return logic.And, true
	case logic.Or:
		return logic.Or, false
	case logic.Nor:
		return logic.Or, true
	case logic.Xor:
		return logic.Xor, false
	case logic.Xnor:
		return logic.Xor, true
	}
	panic("compile: shape of non-combinational kind " + k.String())
}

// constEval propagates the constant lattice through the levelized
// order: a gate is constant iff its inputs force it (all-constant cone,
// or a controlling constant input — AND with a known 0, OR with a known
// 1). Inputs and latch outputs are varying by definition.
func constEval(r *netlist.CSR) []constVal {
	cv := make([]constVal, r.NumNodes())
	for _, id := range r.Const0s {
		cv[id] = zero
	}
	for _, id := range r.Const1s {
		cv[id] = one
	}
	for _, id := range r.Order {
		k := r.Kind[id]
		if !k.IsCombinational() {
			continue
		}
		fi := r.FaninList[r.FaninIdx[id]:r.FaninIdx[id+1]]
		base, inv := shape(k)
		var v constVal
		switch base {
		case logic.Buf:
			v = cv[fi[0]]
		case logic.And:
			v = one
			for _, f := range fi {
				if cv[f] == zero {
					v = zero
					break
				}
				if cv[f] == varying {
					v = varying
				}
			}
		case logic.Or:
			v = zero
			for _, f := range fi {
				if cv[f] == one {
					v = one
					break
				}
				if cv[f] == varying {
					v = varying
				}
			}
		case logic.Xor:
			v = zero
			for _, f := range fi {
				if cv[f] == varying {
					v = varying
					break
				}
				if cv[f] == one {
					v = v.invert()
				}
			}
		}
		if inv {
			v = v.invert()
		}
		cv[id] = v
	}
	return cv
}

// emit appends one instruction computing (base, inv) over the operand
// rows into dst, picking the narrowest opcode form.
func (p *Program) emit(dst int32, base logic.Kind, inv bool, ops []int32) {
	switch len(ops) {
	case 0:
		panic("compile: emit with no operands")
	case 1:
		op := opCopy
		if inv {
			op = opNot
		}
		p.code = append(p.code, inst{op: op, dst: dst, a: ops[0]})
	case 2:
		var op opcode
		switch base {
		case logic.And:
			op = opAnd2
			if inv {
				op = opNand2
			}
		case logic.Or:
			op = opOr2
			if inv {
				op = opNor2
			}
		case logic.Xor:
			op = opXor2
			if inv {
				op = opXnor2
			}
		default:
			panic("compile: 2-operand " + base.String())
		}
		p.code = append(p.code, inst{op: op, dst: dst, a: ops[0], b: ops[1]})
	default:
		var op opcode
		switch base {
		case logic.And:
			op = opAndN
			if inv {
				op = opNandN
			}
		case logic.Or:
			op = opOrN
			if inv {
				op = opNorN
			}
		case logic.Xor:
			op = opXorN
			if inv {
				op = opXnorN
			}
		default:
			panic("compile: n-ary " + base.String())
		}
		off := int32(len(p.Args))
		p.Args = append(p.Args, ops...)
		p.code = append(p.code, inst{op: op, dst: dst, off: off, n: int32(len(ops))})
	}
}

// compileFull builds the observation-exact program: one register row
// per node (row i == node i), every varying gate emitted in
// level-contiguous order, constant cones hoisted into init rows,
// identity operands elided with the gate's polarity adjusted. Node
// values after Exec are bit-identical to the scalar levelized settle's.
func compileFull(r *netlist.CSR, cv []constVal, ord []int32) *Program {
	p := &Program{
		Slots: r.NumNodes(),
		In:    append([]int32(nil), r.Inputs...),
		Q:     append([]int32(nil), r.Latches...),
		D:     append([]int32(nil), r.LatchD...),
	}
	for id, v := range cv {
		switch v {
		case zero:
			p.Const0 = append(p.Const0, int32(id))
		case one:
			p.Const1 = append(p.Const1, int32(id))
		}
	}
	for _, id := range ord {
		k := r.Kind[id]
		if !k.IsCombinational() || cv[id] != varying {
			continue
		}
		fi := r.FaninList[r.FaninIdx[id]:r.FaninIdx[id+1]]
		base, inv := shape(k)
		if base == logic.Buf {
			p.emit(id, base, inv, fi)
			p.levels = append(p.levels, r.Level[id])
			continue
		}
		ops := make([]int32, 0, len(fi))
		for _, f := range fi {
			switch cv[f] {
			case varying:
				ops = append(ops, f)
			case one:
				// Identity operand of AND; parity flip under XOR. (A
				// controlling constant would have folded the gate.)
				if base == logic.Xor {
					inv = !inv
				}
			}
		}
		p.emit(id, base, inv, ops)
		p.levels = append(p.levels, r.Level[id])
	}
	return p
}

// compileStep builds the next-state-only program over a compact
// register file: rows [0, #inputs) are the primary inputs, rows
// [#inputs, #inputs+#latches) the latch outputs, then constant rows and
// recycled temporaries. Gates outside the latch-D cone are never
// compiled; BUF chains collapse to aliases; single-fanout same-base
// chains fuse into n-ary ops.
func compileStep(r *netlist.CSR, cv []constVal, ord []int32) *Program {
	n := r.NumNodes()
	nIn, nL := len(r.Inputs), len(r.Latches)
	p := &Program{Slots: nIn + nL}
	for i := 0; i < nIn; i++ {
		p.In = append(p.In, int32(i))
	}
	for i := 0; i < nL; i++ {
		p.Q = append(p.Q, int32(nIn+i))
	}
	if nL == 0 {
		return p
	}

	// Leaf rows by node id: inputs and latch outputs.
	leaf := make([]int32, n)
	for i := range leaf {
		leaf[i] = -1
	}
	for i, id := range r.Inputs {
		leaf[id] = int32(i)
	}
	for i, id := range r.Latches {
		leaf[id] = int32(nIn + i)
	}

	// rep collapses varying BUF chains to their driver. (A constant BUF
	// is handled by the lattice, never by rep.)
	rep := make([]int32, n)
	for i := range rep {
		rep[i] = -1
	}
	var resolve func(id int32) int32
	resolve = func(id int32) int32 {
		if rep[id] >= 0 {
			return rep[id]
		}
		out := id
		if r.Kind[id] == logic.Buf && cv[id] == varying {
			out = resolve(r.FaninList[r.FaninIdx[id]])
		}
		rep[id] = out
		return out
	}

	// Cone of the latch D pins: the only nodes whose values influence
	// the next state. Everything else is dead fanout for hidden cycles.
	needed := make([]bool, n)
	var stack []int32
	mark := func(id int32) {
		if !needed[id] {
			needed[id] = true
			stack = append(stack, id)
		}
	}
	for _, d := range r.LatchD {
		mark(d)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cv[id] != varying {
			continue // constant cones never execute
		}
		for _, f := range r.FaninList[r.FaninIdx[id]:r.FaninIdx[id+1]] {
			mark(f)
		}
	}

	// pinned rows hold the D values themselves: they must exist as rows
	// and survive to the end of the program.
	pinned := make([]bool, n)
	for _, d := range r.LatchD {
		if cv[d] == varying {
			pinned[resolve(d)] = true
		}
	}

	// isGate reports whether id compiles to an instruction of its own
	// (before fusion): a needed, varying combinational gate that isn't a
	// collapsed BUF.
	isGate := func(id int32) bool {
		k := r.Kind[id]
		return needed[id] && cv[id] == varying && k.IsCombinational() && k != logic.Buf
	}

	// Effective use counts: how many compiled consumers reference each
	// node after BUF collapse and constant elision. Chain fusion moves a
	// child's operands into its parent, so counts are stable under it.
	uses := make([]int32, n)
	for _, id := range ord {
		if !isGate(id) {
			continue
		}
		for _, f := range r.FaninList[r.FaninIdx[id]:r.FaninIdx[id+1]] {
			if cv[f] == varying {
				uses[resolve(f)]++
			}
		}
	}
	for _, d := range r.LatchD {
		if cv[d] == varying {
			uses[resolve(d)]++
		}
	}

	// absorbed[c] marks gates that fuse into their single consumer:
	// same reduction base, non-inverting (or XOR base, where an
	// inverting child just flips the parent's polarity), not a D value.
	// The reverse levelized walk decides consumers before producers, so
	// chains fuse transitively; an absorbed gate's children check
	// against the same base its parent did.
	absorbed := make([]bool, n)
	fusable := func(parentBase logic.Kind, c int32) bool {
		if !needed[c] || cv[c] != varying || pinned[c] || uses[c] != 1 {
			return false
		}
		k := r.Kind[c]
		if !k.IsCombinational() || k == logic.Buf || k == logic.Not {
			return false
		}
		base, inv := shape(k)
		if base != parentBase {
			return false
		}
		return !inv || base == logic.Xor
	}
	for i := len(ord) - 1; i >= 0; i-- {
		id := ord[i]
		if !isGate(id) || r.Kind[id] == logic.Not {
			continue
		}
		base, _ := shape(r.Kind[id])
		for _, f := range r.FaninList[r.FaninIdx[id]:r.FaninIdx[id+1]] {
			if cv[f] != varying {
				continue
			}
			if c := resolve(f); fusable(base, c) {
				absorbed[c] = true
			}
		}
	}

	// collect gathers gate id's surviving operands (constant-elided,
	// BUF-collapsed, absorbed children expanded in place) under the
	// given reduction base, threading the parity flips of elided XOR
	// ones and of absorbed inverting children.
	var collect func(base logic.Kind, id int32, inv bool, ops []int32) ([]int32, bool)
	collect = func(base logic.Kind, id int32, inv bool, ops []int32) ([]int32, bool) {
		for _, f := range r.FaninList[r.FaninIdx[id]:r.FaninIdx[id+1]] {
			switch cv[f] {
			case one:
				if base == logic.Xor {
					inv = !inv
				}
				continue
			case zero:
				continue
			}
			c := resolve(f)
			if absorbed[c] {
				if _, cInv := shape(r.Kind[c]); cInv {
					inv = !inv
				}
				ops, inv = collect(base, c, inv, ops)
			} else {
				ops = append(ops, c)
			}
		}
		return ops, inv
	}

	// Virtual emission: destinations and operands are node ids. The walk
	// over the level-sorted order makes vcode (and so the final program)
	// level-contiguous; lvl records each instruction's logic level.
	type vinst struct {
		base logic.Kind
		inv  bool
		dst  int32
		lvl  int32
		ops  []int32
	}
	var vcode []vinst
	for _, id := range ord {
		if !isGate(id) || absorbed[id] {
			continue
		}
		base, inv := shape(r.Kind[id])
		var ops []int32
		if base == logic.Buf {
			// Only NOT survives here: varying BUFs collapse via rep.
			ops = []int32{resolve(r.FaninList[r.FaninIdx[id]])}
		} else {
			ops, inv = collect(base, id, inv, make([]int32, 0, 4))
		}
		vcode = append(vcode, vinst{base: base, inv: inv, dst: id, lvl: r.Level[id], ops: ops})
	}

	// Constant rows, allocated only if something still references them
	// (a latch whose D pin is constant).
	constRow := [2]int32{-1, -1} // indexed [zero-1, one-1]
	needConst := func(v constVal) int32 {
		i := int(v) - 1
		if constRow[i] < 0 {
			constRow[i] = int32(p.Slots)
			p.Slots++
			if v == one {
				p.Const1 = append(p.Const1, constRow[i])
			} else {
				p.Const0 = append(p.Const0, constRow[i])
			}
		}
		return constRow[i]
	}

	// Linear-scan register allocation over the virtual code: leaf rows
	// are fixed; temporaries are recycled once their last consumer has
	// executed. An instruction acquires its destination before releasing
	// its operands, so a destination row never aliases its own operand
	// rows (the n-ary forms accumulate in place). A slot freed during
	// level L enters the free list only at the L→L+1 boundary: within one
	// level no instruction may overwrite a row a same-level neighbor
	// still reads, which is what lets the blocked executor run one
	// level's instructions in any order (or in parallel).
	remaining := make([]int32, n)
	for _, vi := range vcode {
		for _, o := range vi.ops {
			remaining[o]++
		}
	}
	row := make([]int32, n)
	for i := range row {
		row[i] = -1
	}
	for id, l := range leaf {
		if l >= 0 {
			row[id] = l
		}
	}
	var free, pendingFree []int32
	acquire := func() int32 {
		if k := len(free); k > 0 {
			s := free[k-1]
			free = free[:k-1]
			return s
		}
		s := int32(p.Slots)
		p.Slots++
		return s
	}
	curLevel := int32(-1)
	for _, vi := range vcode {
		if vi.lvl != curLevel {
			free = append(free, pendingFree...)
			pendingFree = pendingFree[:0]
			curLevel = vi.lvl
		}
		ops := make([]int32, len(vi.ops))
		for j, o := range vi.ops {
			if row[o] < 0 {
				panic(fmt.Sprintf("compile: operand node %d used before definition", o))
			}
			ops[j] = row[o]
		}
		row[vi.dst] = acquire()
		for _, o := range vi.ops {
			remaining[o]--
			if remaining[o] == 0 && !pinned[o] && leaf[o] < 0 {
				pendingFree = append(pendingFree, row[o])
			}
		}
		p.emit(row[vi.dst], vi.base, vi.inv, ops)
		p.levels = append(p.levels, vi.lvl)
	}

	// D rows: the row of each latch's (collapsed) D driver — a leaf, a
	// pinned temporary, or a constant row.
	p.D = make([]int32, nL)
	for i, d := range r.LatchD {
		if cv[d] != varying {
			p.D[i] = needConst(cv[d])
			continue
		}
		c := resolve(d)
		if row[c] < 0 {
			panic(fmt.Sprintf("compile: latch %d D driver %d has no row", i, c))
		}
		p.D[i] = row[c]
	}
	return p
}
