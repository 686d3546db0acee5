package cvm

import (
	"fmt"

	"cloud9/internal/expr"
)

// Validate checks structural well-formedness of the program: register
// bounds, branch targets, terminator placement, operand widths and
// resolvable call targets (functions may also call builtins, whose names
// are supplied by the interpreter via known).
func (p *Program) Validate(known func(string) bool) error {
	globals := map[string]bool{}
	for _, g := range p.Globals {
		if globals[g.Name] {
			return fmt.Errorf("cvm: duplicate global %q", g.Name)
		}
		if int64(len(g.Init)) > g.Size {
			return fmt.Errorf("cvm: global %q init larger than size", g.Name)
		}
		globals[g.Name] = true
	}
	for name, f := range p.Funcs {
		if name != f.Name {
			return fmt.Errorf("cvm: func map key %q != name %q", name, f.Name)
		}
		if err := p.validateFunc(f, globals, known); err != nil {
			return fmt.Errorf("cvm: func %s: %w", name, err)
		}
	}
	return nil
}

func validWidth(w expr.Width) bool {
	switch w {
	case expr.W1, expr.W8, expr.W16, expr.W32, expr.W64:
		return true
	}
	return false
}

func (p *Program) validateFunc(f *Func, globals map[string]bool, known func(string) bool) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	checkReg := func(r int) error {
		if r < 0 || r >= f.NumRegs {
			return fmt.Errorf("register %d out of range [0,%d)", r, f.NumRegs)
		}
		return nil
	}
	checkTarget := func(t int64) error {
		if t < 0 || int(t) >= len(f.Blocks) {
			return fmt.Errorf("branch target %d out of range", t)
		}
		return nil
	}
	promoted, err := f.firstPromoted()
	if err != nil {
		return err
	}
	for bi, blk := range f.Blocks {
		if blk.Index != bi {
			return fmt.Errorf("block %d has index %d", bi, blk.Index)
		}
		if len(blk.Instrs) == 0 {
			return fmt.Errorf("block %d empty", bi)
		}
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			last := ii == len(blk.Instrs)-1
			if in.Op.IsTerminator() != last {
				if last {
					return fmt.Errorf("block %d does not end in a terminator", bi)
				}
				return fmt.Errorf("block %d has terminator %v mid-block at %d", bi, in.Op, ii)
			}
			if err := p.validateInstr(f, in, promoted, checkReg, checkTarget, globals, known); err != nil {
				return fmt.Errorf("block %d instr %d (%v): %w", bi, ii, in.Op, err)
			}
		}
	}
	return nil
}

// firstPromoted checks f.SlotRegs — promoted slots take the function's
// last registers, above the parameters, in slot order — and returns the
// first of those registers (f.NumRegs when no slot is promoted).
func (f *Func) firstPromoted() (int, error) {
	if f.SlotRegs == nil {
		return f.NumRegs, nil
	}
	if len(f.SlotRegs) != len(f.Slots) {
		return 0, fmt.Errorf("%d slot registers for %d slots", len(f.SlotRegs), len(f.Slots))
	}
	first := f.NumRegs - f.NumPromoted()
	if first < f.NumParams {
		return 0, fmt.Errorf("%d promoted slots in %d registers above %d parameters", f.NumRegs-first, f.NumRegs, f.NumParams)
	}
	next := first
	for i, r := range f.SlotRegs {
		if r == -1 {
			continue
		}
		if r != next {
			return 0, fmt.Errorf("slot %d promoted to register %d, want %d", i, r, next)
		}
		if slotWidth(f.Slots[i]) == 0 {
			return 0, fmt.Errorf("slot %d of %d bytes promoted", i, f.Slots[i])
		}
		next++
	}
	return first, nil
}

// slotIn returns the promoted slot living in register r, or -1.
func (f *Func) slotIn(r int) int {
	for i, sr := range f.SlotRegs {
		if sr == r {
			return i
		}
	}
	return -1
}

// validateInstr checks one instruction; promoted is the first register
// holding a promoted slot.
func (p *Program) validateInstr(f *Func, in *Instr, promoted int, checkReg func(int) error,
	checkTarget func(int64) error, globals map[string]bool, known func(string) bool) error {
	if d := in.def(); d >= promoted && d < f.NumRegs && in.Op != OpSlotStore {
		return fmt.Errorf("writes register %d of promoted slot %d", d, f.slotIn(d))
	}
	regs := func(rs ...int) error {
		for _, r := range rs {
			if err := checkReg(r); err != nil {
				return err
			}
		}
		return nil
	}
	switch in.Op {
	case OpNop:
		return nil
	case OpConst:
		if !validWidth(in.W) {
			return fmt.Errorf("bad width %d", in.W)
		}
		return regs(in.A)
	case OpMov:
		return regs(in.A, in.B)
	case OpZExt, OpSExt, OpTrunc:
		if !validWidth(in.W) {
			return fmt.Errorf("bad width %d", in.W)
		}
		return regs(in.A, in.B)
	case OpLoad:
		if !validWidth(in.W) || in.W == expr.W1 {
			return fmt.Errorf("bad load width %d", in.W)
		}
		return regs(in.A, in.B)
	case OpStore:
		if !validWidth(in.W) || in.W == expr.W1 {
			return fmt.Errorf("bad store width %d", in.W)
		}
		return regs(in.A, in.B)
	case OpFrameAddr:
		if in.Imm < 0 || int(in.Imm) >= len(f.Slots) {
			return fmt.Errorf("frame slot %d out of range [0,%d)", in.Imm, len(f.Slots))
		}
		if f.SlotReg(int(in.Imm)) >= 0 {
			return fmt.Errorf("frame slot %d is promoted and has no address", in.Imm)
		}
		return regs(in.A)
	case OpSlotStore:
		if err := regs(in.A, in.B); err != nil {
			return err
		}
		if in.A < promoted {
			return fmt.Errorf("register %d is no promoted slot's", in.A)
		}
		if w := slotWidth(f.Slots[f.slotIn(in.A)]); in.W != w {
			return fmt.Errorf("width %d into a slot of width %d", in.W, w)
		}
		return nil
	case OpGlobalAddr:
		if !globals[in.Sym] {
			return fmt.Errorf("unknown global %q", in.Sym)
		}
		return regs(in.A)
	case OpBr:
		return checkTarget(in.Imm)
	case OpCondBr:
		if err := regs(in.A); err != nil {
			return err
		}
		if err := checkTarget(in.Imm); err != nil {
			return err
		}
		return checkTarget(in.Imm2)
	case OpRet:
		if in.A == -1 {
			return nil
		}
		return regs(in.A)
	case OpCall:
		if p.Funcs[in.Sym] == nil && (known == nil || !known(in.Sym)) {
			return fmt.Errorf("unresolved callee %q", in.Sym)
		}
		if callee := p.Funcs[in.Sym]; callee != nil && len(in.Args) != callee.NumParams {
			return fmt.Errorf("call to %q with %d args, want %d", in.Sym, len(in.Args), callee.NumParams)
		}
		if in.A != -1 {
			if err := regs(in.A); err != nil {
				return err
			}
		}
		return regs(in.Args...)
	case OpSelect:
		return regs(in.A, in.B, in.C, in.D)
	case OpAssert:
		return regs(in.A)
	case OpError:
		return nil
	default:
		if in.Op.IsBinary() {
			if !validWidth(in.W) {
				return fmt.Errorf("bad width %d", in.W)
			}
			return regs(in.A, in.B, in.C)
		}
		return fmt.Errorf("unknown opcode %v", in.Op)
	}
}
