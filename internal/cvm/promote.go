package cvm

import "cloud9/internal/expr"

// PromoteSlots moves every scalar stack slot whose address never escapes
// into a register of its function. A slot is promoted iff its size is 1,
// 2, 4 or 8 bytes and every register a frameaddr of it defines is
// defined once and used only as the address of a load or store of the
// slot's width; any other use leaves the slot a memory object, so arrays
// and address-taken scalars keep their bounds checks.
//
// Instructions are rewritten in place, one for one (frameaddr -> nop,
// load -> mov, store -> slotstore): instruction counts, lines and block
// shapes are what step budgets, coverage, md2u distances and job replay
// count, and they stay what they were.
func (p *Program) PromoteSlots() {
	var regs []regUse // scratch, one allocation for the program
	for _, f := range p.Funcs {
		if len(f.Slots) == 0 || f.SlotRegs != nil {
			continue
		}
		if cap(regs) < f.NumRegs {
			regs = make([]regUse, f.NumRegs)
		}
		regs = regs[:f.NumRegs]
		clear(regs)
		f.promoteSlots(regs)
	}
}

// regUse is what promotion needs to know of one register.
type regUse struct {
	defs int32 // instructions writing it, parameters counting one
	slot int32 // 1 + the slot a frameaddr put the address of here
	uses uint8 // useEscapes, or widthUse of every access it addressed
}

const useEscapes = 1 << 7 // used as anything but a load or store address

// widthUse is the regUse.uses bit of an access of width w.
func widthUse(w expr.Width) uint8 {
	switch w {
	case expr.W8:
		return 1
	case expr.W16:
		return 2
	case expr.W32:
		return 4
	case expr.W64:
		return 8
	}
	return useEscapes
}

// slotWidth is the width of a promotable slot of size bytes, or 0.
func slotWidth(size int64) expr.Width {
	switch size {
	case 1, 2, 4, 8:
		return expr.Width(8 * size)
	}
	return 0
}

// promoteSlots is PromoteSlots for one function; regs brings a zeroed
// entry per register. It runs before Validate, so it trusts no index.
func (f *Func) promoteSlots(regs []regUse) {
	f.SlotRegs = make([]int, len(f.Slots)) // 0: promotable so far; -1: a memory object
	for i, size := range f.Slots {
		if slotWidth(size) == 0 {
			f.SlotRegs[i] = -1
		}
	}
	for r := 0; r < f.NumParams && r < len(regs); r++ {
		regs[r].defs = 1
	}
	use := func(r int, how uint8) {
		if r >= 0 && r < len(regs) {
			regs[r].uses |= how
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.def(); d >= 0 && d < len(regs) {
				regs[d].defs++
				if in.Op == OpFrameAddr && in.Imm >= 0 && in.Imm < int64(len(f.Slots)) {
					if prev := regs[d].slot; prev != 0 {
						f.SlotRegs[prev-1] = -1 // d's uses can no longer be told apart
					}
					regs[d].slot = int32(in.Imm) + 1
				}
			}
			switch in.Op {
			case OpLoad:
				use(in.B, widthUse(in.W))
			case OpStore:
				use(in.A, widthUse(in.W))
				use(in.B, useEscapes)
			case OpMov, OpZExt, OpSExt, OpTrunc, OpSlotStore:
				use(in.B, useEscapes)
			case OpCondBr, OpAssert, OpRet:
				use(in.A, useEscapes)
			case OpCall:
				for _, r := range in.Args {
					use(r, useEscapes)
				}
			case OpSelect:
				use(in.B, useEscapes)
				use(in.C, useEscapes)
				use(in.D, useEscapes)
			default:
				if in.Op.IsBinary() {
					use(in.B, useEscapes)
					use(in.C, useEscapes)
				}
			}
		}
	}

	for _, r := range regs {
		if r.slot != 0 && (r.defs != 1 || r.uses&^widthUse(slotWidth(f.Slots[r.slot-1])) != 0) {
			f.SlotRegs[r.slot-1] = -1
		}
	}
	promoted := false
	for i, r := range f.SlotRegs {
		if r == 0 {
			f.SlotRegs[i] = f.NumRegs
			f.NumRegs++
			promoted = true
		}
	}
	if !promoted {
		return
	}

	// reg is the register of the promoted slot r held the address of.
	reg := func(r int) int {
		if r < 0 || r >= len(regs) || regs[r].slot == 0 {
			return -1
		}
		return f.SlotRegs[regs[r].slot-1]
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			switch in := &b.Instrs[i]; in.Op {
			case OpFrameAddr:
				if reg(in.A) >= 0 {
					in.Op, in.A, in.Imm = OpNop, 0, 0
				}
			case OpLoad:
				if r := reg(in.B); r >= 0 {
					in.Op, in.B, in.W = OpMov, r, 0
				}
			case OpStore:
				if r := reg(in.A); r >= 0 {
					in.Op, in.A = OpSlotStore, r
				}
			}
		}
	}
}
