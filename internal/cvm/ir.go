// Package cvm defines the Cloud9 VM intermediate representation: a typed
// register-machine IR organized into functions and basic blocks. It plays
// the role LLVM bitcode plays for KLEE — the compiler in internal/cc
// lowers C-subset sources to this IR, and internal/interp executes it
// symbolically.
package cvm

import (
	"fmt"

	"cloud9/internal/expr"
)

// Opcode identifies a CVM instruction.
type Opcode uint8

// Instruction opcodes.
const (
	OpNop Opcode = iota
	// Data movement.
	OpConst // A <- Imm (width W)
	OpMov   // A <- B
	// Binary arithmetic: A <- B op C, all width W.
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
	// Comparisons: A <- B op C, result width W1.
	OpEq
	OpNe
	OpUlt
	OpUle
	OpSlt
	OpSle
	// Conversions: A <- conv(B) to width W.
	OpZExt
	OpSExt
	OpTrunc
	// Memory: addresses are 64-bit values.
	OpLoad      // A <- mem[B], width W
	OpStore     // mem[A] <- B, width W
	OpFrameAddr // A <- address of stack slot Imm
	OpGlobalAddr
	// Control flow (terminators).
	OpBr     // goto block Imm
	OpCondBr // if A (width W1) goto block Imm else block Imm2
	OpRet    // return A (A == -1: void)
	// Calls.
	OpCall // A <- Sym(Args...); A == -1 discards the result
	// Misc.
	OpSelect // A <- B ? C : D (B width W1)
	OpAssert // if !A: report error Sym and terminate path
	OpError  // unconditional error Sym (abort)
	// OpSlotStore is what PromoteSlots makes of a store to a promoted
	// slot: A <- B (width W), A the slot's register, the value left as a
	// load after the store would read it back from memory.
	OpSlotStore
)

var opcodeNames = [...]string{
	OpNop: "nop", OpConst: "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUDiv: "udiv", OpSDiv: "sdiv",
	OpURem: "urem", OpSRem: "srem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpEq: "eq", OpNe: "ne", OpUlt: "ult", OpUle: "ule", OpSlt: "slt", OpSle: "sle",
	OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc",
	OpLoad: "load", OpStore: "store", OpFrameAddr: "frameaddr", OpGlobalAddr: "globaladdr",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret", OpCall: "call",
	OpSelect: "select", OpAssert: "assert", OpError: "error",
	OpSlotStore: "slotstore",
}

// String returns the opcode mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsTerminator reports whether the opcode ends a basic block.
func (o Opcode) IsTerminator() bool {
	switch o {
	case OpBr, OpCondBr, OpRet, OpError:
		return true
	}
	return false
}

// IsBinary reports whether the opcode is a two-operand ALU operation.
func (o Opcode) IsBinary() bool {
	return o >= OpAdd && o <= OpSle
}

// ExprOp maps an ALU opcode to the corresponding expression operator.
// OpNe has no direct expr counterpart (it is built as Not(Eq)).
func (o Opcode) ExprOp() (expr.Op, bool) {
	switch o {
	case OpAdd:
		return expr.OpAdd, true
	case OpSub:
		return expr.OpSub, true
	case OpMul:
		return expr.OpMul, true
	case OpUDiv:
		return expr.OpUDiv, true
	case OpSDiv:
		return expr.OpSDiv, true
	case OpURem:
		return expr.OpURem, true
	case OpSRem:
		return expr.OpSRem, true
	case OpAnd:
		return expr.OpAnd, true
	case OpOr:
		return expr.OpOr, true
	case OpXor:
		return expr.OpXor, true
	case OpShl:
		return expr.OpShl, true
	case OpLShr:
		return expr.OpLShr, true
	case OpAShr:
		return expr.OpAShr, true
	case OpEq:
		return expr.OpEq, true
	case OpUlt:
		return expr.OpUlt, true
	case OpUle:
		return expr.OpUle, true
	case OpSlt:
		return expr.OpSlt, true
	case OpSle:
		return expr.OpSle, true
	}
	return 0, false
}

// Instr is one CVM instruction. Operand meaning depends on Op; see the
// opcode comments. Register indices are function-local.
type Instr struct {
	Op   Opcode
	W    expr.Width // operation width
	A    int        // usually the destination register
	B    int
	C    int
	D    int
	Imm  int64  // immediate / branch target / frame offset
	Imm2 int64  // second branch target
	Sym  string // callee, global name, or error message
	Args []int  // call argument registers
	Line int    // source line (coverage unit); 0 = none
	// Callee is the function an OpCall runs when Sym names one of the
	// program's, set by Program.Link; nil for a builtin.
	Callee *Func
}

// def returns the register the instruction writes, or -1.
func (in *Instr) def() int {
	switch in.Op {
	case OpConst, OpMov, OpZExt, OpSExt, OpTrunc, OpLoad, OpFrameAddr,
		OpGlobalAddr, OpCall, OpSelect, OpSlotStore:
		return in.A
	}
	if in.Op.IsBinary() {
		return in.A
	}
	return -1
}

// Block is a basic block: a straight-line instruction sequence ending in
// exactly one terminator.
type Block struct {
	Index  int
	Instrs []Instr
}

// Func is a CVM function.
type Func struct {
	Name      string
	NumParams int // parameters arrive in registers 0..NumParams-1
	NumRegs   int
	// Slots are the sizes of the function's stack locals. A slot is a
	// distinct memory object per activation, so out-of-bounds accesses
	// between locals are detected precisely, unless PromoteSlots found
	// it a scalar whose address never escapes: that one lives in the
	// register SlotRegs names and has no object.
	Slots []int64
	// SlotRegs is nil (hand-built IR: every slot a memory object) or
	// parallel to Slots: the register a promoted slot lives in, -1 for a
	// memory object. Promoted slots take the function's last registers,
	// in slot order, and only OpSlotStore writes those.
	SlotRegs []int
	Blocks   []*Block
}

// SlotReg returns the register slot i was promoted to, or -1 when the
// slot is a memory object.
func (f *Func) SlotReg(i int) int {
	if f.SlotRegs == nil {
		return -1
	}
	return f.SlotRegs[i]
}

// NumPromoted counts the slots that live in registers.
func (f *Func) NumPromoted() int {
	n := 0
	for _, r := range f.SlotRegs {
		if r >= 0 {
			n++
		}
	}
	return n
}

// Global is a program-level variable with optional initial contents.
type Global struct {
	Name string
	Size int64
	Init []byte // len <= Size; remainder is zero
}

// Program is a complete CVM translation unit.
type Program struct {
	Name    string
	Funcs   map[string]*Func
	Globals []*Global
	// MaxLine is the highest source line number used by any instruction;
	// coverage bit vectors are sized from it.
	MaxLine int
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Funcs: make(map[string]*Func)}
}

// AddGlobal registers a global variable and returns it.
func (p *Program) AddGlobal(name string, size int64, init []byte) *Global {
	g := &Global{Name: name, Size: size, Init: init}
	p.Globals = append(p.Globals, g)
	return g
}

// Func returns the named function or nil.
func (p *Program) Func(name string) *Func {
	return p.Funcs[name]
}

// Link binds every call to a function the program defines to that
// function (Instr.Callee), so executing a call looks up no name. Call it
// once the program is complete, before any interpreter runs it: workers
// share one program and never write to it.
func (p *Program) Link() {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Op == OpCall {
					in.Callee = p.Funcs[in.Sym]
				}
			}
		}
	}
}

// CoverableLines returns the sorted-unique count of distinct source lines
// attached to instructions — the denominator for line coverage.
func (p *Program) CoverableLines() int {
	seen := make(map[int]bool)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if ln := b.Instrs[i].Line; ln > 0 {
					seen[ln] = true
				}
			}
		}
	}
	return len(seen)
}
