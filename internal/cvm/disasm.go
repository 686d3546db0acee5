package cvm

import (
	"fmt"
	"sort"
	"strings"
)

// Disasm renders the program as readable text, primarily for tests and
// debugging of the compiler.
func (p *Program) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s\n", p.Name)
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "global %s [%d bytes]\n", g.Name, g.Size)
	}
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(p.Funcs[n].Disasm())
	}
	return b.String()
}

// Disasm renders one function.
func (f *Func) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(params=%d regs=%d slots=%d promoted=%d)\n",
		f.Name, f.NumParams, f.NumRegs, len(f.Slots), f.NumPromoted())
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, ".b%d:\n", blk.Index)
		for i := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", blk.Instrs[i].String())
		}
	}
	return b.String()
}

// String renders one instruction.
func (in *Instr) String() string {
	switch in.Op {
	case OpNop:
		return "nop"
	case OpConst:
		return fmt.Sprintf("r%d = const %d w%d", in.A, in.Imm, in.W)
	case OpMov:
		return fmt.Sprintf("r%d = r%d", in.A, in.B)
	case OpZExt, OpSExt, OpTrunc:
		return fmt.Sprintf("r%d = %v r%d -> w%d", in.A, in.Op, in.B, in.W)
	case OpLoad:
		return fmt.Sprintf("r%d = load w%d [r%d]", in.A, in.W, in.B)
	case OpStore:
		return fmt.Sprintf("store w%d [r%d] = r%d", in.W, in.A, in.B)
	case OpSlotStore:
		return fmt.Sprintf("r%d = slotstore w%d r%d", in.A, in.W, in.B)
	case OpFrameAddr:
		return fmt.Sprintf("r%d = &slot%d", in.A, in.Imm)
	case OpGlobalAddr:
		return fmt.Sprintf("r%d = &%s", in.A, in.Sym)
	case OpBr:
		return fmt.Sprintf("br .b%d", in.Imm)
	case OpCondBr:
		return fmt.Sprintf("condbr r%d .b%d .b%d", in.A, in.Imm, in.Imm2)
	case OpRet:
		if in.A == -1 {
			return "ret"
		}
		return fmt.Sprintf("ret r%d", in.A)
	case OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = fmt.Sprintf("r%d", a)
		}
		call := fmt.Sprintf("call %s(%s)", in.Sym, strings.Join(args, ", "))
		if in.A == -1 {
			return call
		}
		return fmt.Sprintf("r%d = %s", in.A, call)
	case OpSelect:
		return fmt.Sprintf("r%d = select r%d ? r%d : r%d", in.A, in.B, in.C, in.D)
	case OpAssert:
		return fmt.Sprintf("assert r%d %q", in.A, in.Sym)
	case OpError:
		return fmt.Sprintf("error %q", in.Sym)
	default:
		if in.Op.IsBinary() {
			return fmt.Sprintf("r%d = %v w%d r%d, r%d", in.A, in.Op, in.W, in.B, in.C)
		}
		return fmt.Sprintf("%v A=%d B=%d C=%d", in.Op, in.A, in.B, in.C)
	}
}
