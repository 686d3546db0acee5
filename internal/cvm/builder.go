package cvm

import (
	"fmt"

	"cloud9/internal/expr"
)

// FuncBuilder incrementally constructs a Func. It allocates virtual
// registers and basic blocks and appends instructions to a current block.
// Terminators close blocks; appending to a closed block is an error the
// validator reports.
type FuncBuilder struct {
	fn   *Func
	cur  *Block
	line int
}

// NewFuncBuilder starts a function with the given parameter count.
// Parameters occupy registers 0..numParams-1.
func NewFuncBuilder(name string, numParams int) *FuncBuilder {
	fn := &Func{Name: name, NumParams: numParams, NumRegs: numParams}
	b := &FuncBuilder{fn: fn}
	b.cur = b.NewBlock()
	return b
}

// Func finalizes and returns the function.
func (b *FuncBuilder) Func() *Func { return b.fn }

// SetLine sets the source line attached to subsequently emitted
// instructions (0 disables).
func (b *FuncBuilder) SetLine(line int) { b.line = line }

// NewReg allocates a fresh virtual register.
func (b *FuncBuilder) NewReg() int {
	r := b.fn.NumRegs
	b.fn.NumRegs++
	return r
}

// NewBlock creates a new basic block (does not switch to it).
func (b *FuncBuilder) NewBlock() *Block {
	blk := &Block{Index: len(b.fn.Blocks)}
	b.fn.Blocks = append(b.fn.Blocks, blk)
	return blk
}

// SetBlock switches emission to blk.
func (b *FuncBuilder) SetBlock(blk *Block) { b.cur = blk }

// CurrentBlock returns the block instructions are being appended to.
func (b *FuncBuilder) CurrentBlock() *Block { return b.cur }

// Terminated reports whether the current block already ends in a
// terminator.
func (b *FuncBuilder) Terminated() bool {
	n := len(b.cur.Instrs)
	return n > 0 && b.cur.Instrs[n-1].Op.IsTerminator()
}

func (b *FuncBuilder) emit(i Instr) {
	i.Line = b.line
	b.cur.Instrs = append(b.cur.Instrs, i)
}

// Alloca reserves a stack slot of size bytes and returns its index.
// The slot is a separate memory object at run time unless
// Program.PromoteSlots moves it into a register.
func (b *FuncBuilder) Alloca(size int64) int64 {
	b.fn.Slots = append(b.fn.Slots, size)
	return int64(len(b.fn.Slots) - 1)
}

// Const emits: dst <- imm (width w); returns dst.
func (b *FuncBuilder) Const(imm int64, w expr.Width) int {
	dst := b.NewReg()
	b.emit(Instr{Op: OpConst, W: w, A: dst, Imm: imm})
	return dst
}

// Mov emits dst <- src into a fresh register.
func (b *FuncBuilder) Mov(src int) int {
	dst := b.NewReg()
	b.emit(Instr{Op: OpMov, A: dst, B: src})
	return dst
}

// MovTo emits dst <- src into an existing register.
func (b *FuncBuilder) MovTo(dst, src int) {
	b.emit(Instr{Op: OpMov, A: dst, B: src})
}

// Bin emits dst <- l op r (width w); returns dst.
func (b *FuncBuilder) Bin(op Opcode, l, r int, w expr.Width) int {
	if !op.IsBinary() {
		panic(fmt.Sprintf("cvm: Bin with non-binary op %v", op))
	}
	dst := b.NewReg()
	b.emit(Instr{Op: op, W: w, A: dst, B: l, C: r})
	return dst
}

// Conv emits a width conversion (OpZExt, OpSExt or OpTrunc).
func (b *FuncBuilder) Conv(op Opcode, src int, w expr.Width) int {
	dst := b.NewReg()
	b.emit(Instr{Op: op, W: w, A: dst, B: src})
	return dst
}

// Load emits dst <- mem[addr] of width w.
func (b *FuncBuilder) Load(addr int, w expr.Width) int {
	dst := b.NewReg()
	b.emit(Instr{Op: OpLoad, W: w, A: dst, B: addr})
	return dst
}

// Store emits mem[addr] <- val of width w.
func (b *FuncBuilder) Store(addr, val int, w expr.Width) {
	b.emit(Instr{Op: OpStore, W: w, A: addr, B: val})
}

// FrameAddr emits dst <- &slot[idx].
func (b *FuncBuilder) FrameAddr(idx int64) int {
	dst := b.NewReg()
	b.emit(Instr{Op: OpFrameAddr, A: dst, Imm: idx})
	return dst
}

// GlobalAddr emits dst <- &global.
func (b *FuncBuilder) GlobalAddr(name string) int {
	dst := b.NewReg()
	b.emit(Instr{Op: OpGlobalAddr, A: dst, Sym: name})
	return dst
}

// Br emits an unconditional branch to blk.
func (b *FuncBuilder) Br(blk *Block) {
	b.emit(Instr{Op: OpBr, Imm: int64(blk.Index)})
}

// CondBr emits: if cond goto then else goto els. cond must be width W1.
func (b *FuncBuilder) CondBr(cond int, then, els *Block) {
	b.emit(Instr{Op: OpCondBr, A: cond, Imm: int64(then.Index), Imm2: int64(els.Index)})
}

// Ret emits a return of val (pass -1 for void).
func (b *FuncBuilder) Ret(val int) {
	b.emit(Instr{Op: OpRet, A: val})
}

// Call emits dst <- callee(args...); dst -1 discards the result.
func (b *FuncBuilder) Call(callee string, args ...int) int {
	dst := b.NewReg()
	b.emit(Instr{Op: OpCall, A: dst, Sym: callee, Args: args})
	return dst
}

// CallVoid emits callee(args...) discarding any result.
func (b *FuncBuilder) CallVoid(callee string, args ...int) {
	b.emit(Instr{Op: OpCall, A: -1, Sym: callee, Args: args})
}

// Select emits dst <- cond ? a : b.
func (b *FuncBuilder) Select(cond, a, bb int) int {
	dst := b.NewReg()
	b.emit(Instr{Op: OpSelect, A: dst, B: cond, C: a, D: bb})
	return dst
}

// Assert emits a checked assertion with message msg.
func (b *FuncBuilder) Assert(cond int, msg string) {
	b.emit(Instr{Op: OpAssert, A: cond, Sym: msg})
}

// Error emits an unconditional path-terminating error.
func (b *FuncBuilder) Error(msg string) {
	b.emit(Instr{Op: OpError, Sym: msg})
}
